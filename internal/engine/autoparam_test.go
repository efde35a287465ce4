package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"mtcache/internal/exec"
	"mtcache/internal/metrics"
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

// On a cache, a shape that needs the backend shares one parsed statement and
// one plan like any other: ten literal variants grow each cache by one entry,
// cost one remote query apiece, return what the backend returns, and — once
// the shape is warm — parse nothing on either side.
func TestAutoParamRemoteShapesShareOnePlanOnCache(t *testing.T) {
	backend, cache := newCachePair(t)
	plans0, shapes0 := cache.PlanCacheSize(), cache.AutoParamCacheSize()
	bplans0 := backend.PlanCacheSize()
	parses := metrics.Default.Histogram("engine.parse_seconds")
	var parsed0 int64
	for i := 1; i <= 10; i++ {
		if i == 2 {
			parsed0 = parses.Count() // the first execution warmed both servers
		}
		q := fmt.Sprintf("SELECT i_title, i_cost FROM item WHERE i_id = %d", 17*i)
		got, err := cache.Exec(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := backend.Exec(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.Counters.RemoteQueries != 1 {
			t.Fatalf("%s: %d remote queries, want 1", q, got.Counters.RemoteQueries)
		}
		if fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) || len(got.Rows) != 1 {
			t.Fatalf("%s: cache %v, backend %v", q, got.Rows, want.Rows)
		}
	}
	if n := cache.PlanCacheSize() - plans0; n != 1 {
		t.Errorf("cache plan cache grew by %d for one shape, want 1", n)
	}
	if n := cache.AutoParamCacheSize() - shapes0; n != 1 {
		t.Errorf("cache shape cache grew by %d for one shape, want 1", n)
	}
	// The backend holds the forwarded shape and the direct one, nothing per literal.
	if n := backend.PlanCacheSize() - bplans0; n > 2 {
		t.Errorf("backend plan cache grew by %d, want at most 2", n)
	}
	if n := parses.Count() - parsed0; n != 0 {
		t.Errorf("%d statements were parsed after warm-up, want 0", n)
	}
}

// A user may spell @__pN parameters of their own: with no literal in the text
// there is nothing to collide with, and the values bind from the named map on
// a backend and through a cache's remote branch alike.
func TestExplicitAutoParamNamesBindFromNamedMap(t *testing.T) {
	backend, cache := newCachePair(t)
	for _, db := range []*Database{backend, cache} {
		res, err := db.Exec("SELECT i_id FROM item WHERE i_id = @__p1", exec.Params{"__p1": types.NewInt(7)})
		if err != nil {
			t.Fatalf("%s: %v", db.Name, err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].Int() != 7 {
			t.Fatalf("%s: rows %v, want [[7]]", db.Name, res.Rows)
		}
	}
}

// Allocation regression gate for the remote path: distinct literals of one
// remote-going shape, cache over an in-process link. Every execution hits
// the plan cache on both servers — a miss means some literal text was parsed
// and optimized again — and stays under a ceiling set ~15 % above the 89
// allocs/op measured when the shared plan replaced the per-text one (which
// cost 272 in this loop).
func TestRemoteShapeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	_, cache := newCachePair(t)
	next := 0
	run := func() {
		next++
		res, err := cache.Exec(fmt.Sprintf("SELECT i_title, i_cost FROM item WHERE i_id = %d", next%200+1), nil)
		if err != nil || len(res.Rows) != 1 || res.Counters.RemoteQueries != 1 {
			t.Fatalf("i_id = %d: %+v, %v", next%200+1, res, err)
		}
	}
	run() // warm the shape and plan caches of both servers
	misses := metrics.Default.Counter("engine.plan_cache_misses")
	misses0 := misses.Value()
	const ceiling = 102
	if avg := testing.AllocsPerRun(200, run); avg > ceiling {
		t.Errorf("remote-going shape: %.0f allocs/op, ceiling %d", avg, ceiling)
	} else {
		t.Logf("remote-going shape: %.0f allocs/op", avg)
	}
	if n := misses.Value() - misses0; n != 0 {
		t.Errorf("%d plan-cache misses after warm-up, want 0", n)
	}
}
