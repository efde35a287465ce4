package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"mtcache/internal/exec"
	"mtcache/internal/metrics"
	"mtcache/internal/sql"
	"mtcache/internal/types"
)

// Ten literal variants of one query shape must share a single parsed
// statement and a single cached plan.
func TestAutoParamSharesOnePlan(t *testing.T) {
	db := newBackendDB(t)
	db.InvalidatePlans()
	hits0 := metrics.Default.Counter("engine.autoparam_hits").Value()
	for i := 1; i <= 10; i++ {
		res, err := db.Exec(fmt.Sprintf("SELECT i_title FROM item WHERE i_id = %d", i), nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 {
			t.Fatalf("i_id=%d: %d rows", i, len(res.Rows))
		}
	}
	if n := db.PlanCacheSize(); n != 1 {
		t.Errorf("plan cache holds %d plans for one shape, want 1", n)
	}
	if n := db.AutoParamCacheSize(); n != 1 {
		t.Errorf("auto-param cache holds %d shapes, want 1", n)
	}
	if hits := metrics.Default.Counter("engine.autoparam_hits").Value() - hits0; hits < 9 {
		t.Errorf("autoparam hits = %d, want >= 9", hits)
	}
	// DDL invalidation clears the shape cache along with the plans.
	db.InvalidatePlans()
	if n := db.AutoParamCacheSize(); n != 0 {
		t.Errorf("auto-param cache not cleared by InvalidatePlans: %d", n)
	}
}

// A shape verdict resolved across an InvalidatePlans call must not be
// cached: it was computed against the old catalog. Here the old verdict is
// "ineligible" (no cached view covers item, so the parameterized plan needs
// the backend) and the DDL in between makes the shape eligible.
func TestAutoParamStaleVerdictNotCached(t *testing.T) {
	_, cache := newCachePair(t)
	const text = "SELECT i_title FROM item WHERE i_id = 17"
	key, _, ok := new(sql.Normalizer).Normalize(text)
	if !ok {
		t.Fatal("text did not normalize")
	}
	shape := string(key)

	// First half of a miss in autoParse: snapshot the generation, resolve.
	cache.autoMu.Lock()
	gen := cache.autoCache.gen
	cache.autoMu.Unlock()
	if verdict := cache.autoResolve(shape); verdict != nil {
		t.Fatal("shape resolved as eligible with no cached view to answer it")
	}
	if _, err := cache.Exec("CREATE CACHED VIEW allitems AS SELECT i_id, i_title FROM item", nil); err != nil {
		t.Fatal(err)
	}
	// Second half: the insert is refused.
	cache.autoMu.Lock()
	inserted := cache.autoCache.putIfGen(gen, shape, nil)
	cache.autoMu.Unlock()
	if inserted || cache.AutoParamCacheSize() != 0 {
		t.Fatalf("verdict from before the DDL was cached (inserted=%v, %d shapes)", inserted, cache.AutoParamCacheSize())
	}
	if _, _, _, ok := cache.autoParse(text); !ok {
		t.Fatal("shape still ineligible after the cached view that covers it was created")
	}
}

// Property: an auto-parameterized execution returns byte-identical results
// to the same text executed with auto-parameterization disabled, for
// arbitrary literal values and shapes.
func TestAutoParamExecutionEquivalence(t *testing.T) {
	auto := newBackendDB(t)
	plain := newBackendDB(t)
	plain.autoOff = true

	r := rand.New(rand.NewSource(31))
	shapes := []func() string{
		func() string {
			return fmt.Sprintf("SELECT i_id, i_title, i_cost FROM item WHERE i_id = %d", r.Intn(250))
		},
		func() string {
			return fmt.Sprintf("SELECT i_id FROM item WHERE i_cost > %d.%d AND i_id < %d ORDER BY i_id",
				r.Intn(200), r.Intn(10), r.Intn(250))
		},
		func() string {
			return fmt.Sprintf("SELECT i_title, COUNT(*) AS c FROM item WHERE i_id <= %d GROUP BY i_title ORDER BY c DESC, i_title", r.Intn(250))
		},
		func() string {
			return fmt.Sprintf("SELECT i_id FROM item WHERE i_title = 'book%s' AND i_stock = %d ORDER BY i_id",
				[]string{"", "x", "xx"}[r.Intn(3)], 100)
		},
		func() string {
			return fmt.Sprintf("SELECT TOP 5 i_id, i_cost * %d AS v FROM item WHERE i_id IN (%d, %d, %d) ORDER BY i_id",
				r.Intn(9)+1, r.Intn(250), r.Intn(250), r.Intn(250))
		},
	}
	for trial := 0; trial < 150; trial++ {
		q := shapes[trial%len(shapes)]()
		a, errA := auto.Exec(q, nil)
		p, errP := plain.Exec(q, nil)
		if (errA == nil) != (errP == nil) {
			t.Fatalf("%s: error divergence: auto=%v plain=%v", q, errA, errP)
		}
		if errA != nil {
			continue
		}
		if fmt.Sprint(a.Cols) != fmt.Sprint(p.Cols) {
			t.Fatalf("%s: cols diverge\nauto:  %v\nplain: %v", q, a.Cols, p.Cols)
		}
		if len(a.Rows) != len(p.Rows) {
			t.Fatalf("%s: %d rows auto vs %d plain", q, len(a.Rows), len(p.Rows))
		}
		for i := range a.Rows {
			for j := range a.Rows[i] {
				av, pv := a.Rows[i][j], p.Rows[i][j]
				if av.K != pv.K || types.Compare(av, pv) != 0 {
					t.Fatalf("%s: row %d col %d: %v (%v) vs %v (%v)", q, i, j, av, av.K, pv, pv.K)
				}
			}
		}
	}
	if plain.PlanCacheSize() <= auto.PlanCacheSize() {
		t.Errorf("literal-distinct texts should cache more plans without auto-param: auto=%d plain=%d",
			auto.PlanCacheSize(), plain.PlanCacheSize())
	}
}

// Property: serial and parallel execution return identical results (ordered
// queries for a stable comparison). Run under -race this also exercises the
// Exchange workers sharing one Env.
func TestAutoParamRowBatchParallelEquivalence(t *testing.T) {
	batch := newParallelDB(t, 6000)

	queries := []string{
		"SELECT id, val FROM big WHERE val >= 100.0 ORDER BY id",
		"SELECT grp, COUNT(*) AS c, SUM(val) AS s FROM big WHERE id < 5000 GROUP BY grp ORDER BY grp",
		"SELECT a.id, b.val FROM big a INNER JOIN big b ON a.id = b.id WHERE a.grp = 7 ORDER BY a.id",
	}
	for _, q := range queries {
		bres, err := batch.Exec(q, nil)
		if err != nil {
			t.Fatalf("batch %s: %v", q, err)
		}
		// Same engine re-planned serial: flip MaxDOP to compare parallel vs
		// serial output of the identical database.
		opts := batch.Options()
		prevDOP := opts.MaxDOP
		opts.MaxDOP = 1
		batch.SetOptions(opts)
		sres, err := batch.Exec(q, nil)
		if err != nil {
			t.Fatalf("serial %s: %v", q, err)
		}
		opts.MaxDOP = prevDOP
		batch.SetOptions(opts)

		if len(sres.Rows) != len(bres.Rows) {
			t.Fatalf("serial vs parallel %s: %d vs %d rows", q, len(sres.Rows), len(bres.Rows))
		}
		for i := range sres.Rows {
			for j := range sres.Rows[i] {
				if types.Compare(sres.Rows[i][j], bres.Rows[i][j]) != 0 {
					t.Fatalf("serial vs parallel %s: row %d col %d: %v vs %v",
						q, i, j, sres.Rows[i][j], bres.Rows[i][j])
				}
			}
		}
	}
}

// Allocation regression gate: resolving a warmed shape — normalize, cache
// lookup, literal extraction — performs zero allocations.
func TestAutoParamCacheHitZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	db := newBackendDB(t)
	const q = "SELECT i_title FROM item WHERE i_id = 123"
	if _, err := db.Exec(q, nil); err != nil {
		t.Fatal(err)
	}
	// Warm the pooled normalizer.
	if _, _, norm, ok := db.autoParse(q); !ok {
		t.Fatal("shape not cached")
	} else {
		normPool.Put(norm)
	}
	if avg := testing.AllocsPerRun(500, func() {
		stmt, args, norm, ok := db.autoParse(q)
		if !ok || stmt == nil || len(args) != 1 {
			t.Fatal("cache hit failed")
		}
		normPool.Put(norm)
	}); avg != 0 {
		t.Errorf("cache-hit key computation: %.1f allocs/op, want 0", avg)
	}
}

// User-supplied named parameters and auto-parameterized literals coexist in
// one statement.
func TestAutoParamMixedWithUserParams(t *testing.T) {
	db := newBackendDB(t)
	res, err := db.Exec("SELECT i_id FROM item WHERE i_id = @id AND i_stock = 100",
		exec.Params{"id": types.NewInt(7)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 7 {
		t.Fatalf("mixed params: %v", res.Rows)
	}
}

// On a cache, shapes whose parameterized plan would go remote are negative-
// cached: each literal text plans individually so cached-view predicate
// matching keeps seeing literal values.
func TestAutoParamUnsafeShapesBypassOnCache(t *testing.T) {
	_, cache := newCachePair(t)
	for i := 0; i < 3; i++ {
		res, err := cache.Exec("SELECT i_title FROM item WHERE i_id = 17", nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Counters.RemoteQueries != 1 {
			t.Fatalf("run %d: rows=%d remote=%d", i, len(res.Rows), res.Counters.RemoteQueries)
		}
	}
	// The shape is retained as a negative entry: present in the cache, but
	// executions keep taking the ordinary literal-preserving path.
	if n := cache.AutoParamCacheSize(); n < 1 {
		t.Errorf("negative shape not retained: %d", n)
	}
}
