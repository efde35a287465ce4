package engine

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"mtcache/internal/exec"
	"mtcache/internal/imcache"
	"mtcache/internal/metrics"
	"mtcache/internal/opt"
	"mtcache/internal/sql"
	"mtcache/internal/types"
)

// imTestDB builds a backend with one fact table for intermediate-result
// cache tests. opts == nil uses the default cache configuration.
func imTestDB(t *testing.T, opts *imcache.Options) *Database {
	t.Helper()
	db := New(Config{Name: "im-test", Role: Backend, IMCache: opts})
	err := db.ExecScript(`CREATE TABLE t (id INT PRIMARY KEY, grp INT, v INT, w FLOAT);`)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]types.Row, 0, 1000)
	for i := 0; i < 1000; i++ {
		rows = append(rows, types.Row{
			types.NewInt(int64(i)),
			types.NewInt(int64(i % 64)),
			types.NewInt(int64(i % 100)),
			types.NewFloat(float64(i) / 7),
		})
	}
	if err := db.BulkLoad("t", rows); err != nil {
		t.Fatal(err)
	}
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	return db
}

func imCanon(rows []types.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		var cells []string
		for _, v := range r {
			cells = append(cells, v.Display())
		}
		out[i] = strings.Join(cells, "|")
	}
	sort.Strings(out)
	return out
}

// TestIMCacheDifferential: a warmed cached aggregate must be row-identical
// to the cold computation, and repeat executions must hit the cache.
func TestIMCacheDifferential(t *testing.T) {
	db := imTestDB(t, nil)
	const q = "SELECT grp, COUNT(*) AS n, SUM(v) AS s FROM t GROUP BY grp"

	db.SetIMCacheEnabled(false)
	cold, err := db.Exec(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	db.SetIMCacheEnabled(true)

	hitsBefore := metrics.Default.Counter("imcache.hits").Value()
	var warm *Result
	for i := 0; i < 4; i++ {
		if warm, err = db.Exec(q, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := metrics.Default.Counter("imcache.hits").Value(); got == hitsBefore {
		t.Fatal("repeated aggregate never hit the intermediate-result cache")
	}
	want, got := imCanon(cold.Rows), imCanon(warm.Rows)
	if len(want) != len(got) {
		t.Fatalf("row count: cold %d, cached %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("differential mismatch at row %d: cold %q, cached %q", i, want[i], got[i])
		}
	}
}

// TestIMCacheInvalidationOnWrite: DML against a lineage table marks the
// intermediate stale; without a freshness allowance the next execution
// recomputes and sees the write.
func TestIMCacheInvalidationOnWrite(t *testing.T) {
	db := imTestDB(t, nil)
	const q = "SELECT COUNT(*) AS n FROM t"
	var before *Result
	var err error
	for i := 0; i < 3; i++ {
		if before, err = db.Exec(q, nil); err != nil {
			t.Fatal(err)
		}
	}
	if n := before.Rows[0][0].Int(); n != 1000 {
		t.Fatalf("baseline count %d, want 1000", n)
	}
	if _, err := db.Exec("INSERT INTO t (id, grp, v, w) VALUES (5000, 1, 1, 1.0)", nil); err != nil {
		t.Fatal(err)
	}
	after, err := db.Exec(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := after.Rows[0][0].Int(); n != 1001 {
		t.Fatalf("served a stale intermediate after DML: count %d, want 1001", n)
	}
}

// TestIMCacheFreshnessComposition: WITH FRESHNESS gives a stale intermediate
// a second life — a bounded-stale execution may serve it, a plain (or
// zero-bound) execution must recompute.
func TestIMCacheFreshnessComposition(t *testing.T) {
	db := imTestDB(t, nil)
	const q = "SELECT COUNT(*) AS n FROM t WHERE grp = 1"
	var base *Result
	var err error
	for i := 0; i < 3; i++ {
		if base, err = db.Exec(q, nil); err != nil {
			t.Fatal(err)
		}
	}
	baseN := base.Rows[0][0].Int()
	if _, err := db.Exec("INSERT INTO t (id, grp, v, w) VALUES (5001, 1, 1, 1.0)", nil); err != nil {
		t.Fatal(err)
	}

	// Bounded-stale read first: the stale entry is within any generous bound.
	stale, err := db.Exec(q+" WITH FRESHNESS 300", nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := stale.Rows[0][0].Int(); n != baseN {
		t.Fatalf("WITH FRESHNESS 300 recomputed (%d); want the stale intermediate (%d)", n, baseN)
	}
	// Zero bound means "current": the stale entry is unusable.
	zero, err := db.Exec(q+" WITH FRESHNESS 0", nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := zero.Rows[0][0].Int(); n != baseN+1 {
		t.Fatalf("WITH FRESHNESS 0 served stale data: %d, want %d", n, baseN+1)
	}
	// Plain read recomputes and refreshes the entry in place.
	fresh, err := db.Exec(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := fresh.Rows[0][0].Int(); n != baseN+1 {
		t.Fatalf("plain read served stale data: %d, want %d", n, baseN+1)
	}
}

// TestIMCacheEvictionUnderPressure: a byte budget far below the working set
// keeps total bytes bounded and evicts lower-benefit entries.
func TestIMCacheEvictionUnderPressure(t *testing.T) {
	db := imTestDB(t, &imcache.Options{MaxBytes: 8 << 10, MaxEntryBytes: 4 << 10, AdmitAfter: 1})
	evBefore := metrics.Default.Counter("imcache.evictions").Value()
	for g := 0; g < 16; g++ {
		q := fmt.Sprintf("SELECT id, v, w FROM t WHERE grp = %d", g)
		for i := 0; i < 3; i++ {
			if _, err := db.Exec(q, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	imc := db.IMCache()
	if imc.Bytes() > 8<<10 {
		t.Fatalf("cache bytes %d exceed the 8KiB budget", imc.Bytes())
	}
	if ev := metrics.Default.Counter("imcache.evictions").Value() - evBefore; ev == 0 {
		t.Fatal("no evictions under a budget far below the working set")
	}
}

// TestIMCacheChurnKeepsPlans: the result cache admitting, going stale,
// refreshing and evicting under a tiny byte budget never touches the plan or
// shape caches — after warm-up no statement is optimized again — and every
// read still returns the current rows.
func TestIMCacheChurnKeepsPlans(t *testing.T) {
	db := imTestDB(t, &imcache.Options{MaxBytes: 6 << 10, MaxEntryBytes: 4 << 10, AdmitAfter: 1})
	// Model of column v and the three read shapes checked against it.
	v := make([]int64, 1000)
	for i := range v {
		v[i] = int64(i % 100)
	}
	point := func(id int) {
		t.Helper()
		res, err := db.Exec(fmt.Sprintf("SELECT v FROM t WHERE id = %d", id), nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].Int() != v[id] {
			t.Fatalf("id %d: got %v, want %d", id, res.Rows, v[id])
		}
	}
	sum := func(grp int) {
		t.Helper()
		res, err := db.Exec(fmt.Sprintf("SELECT SUM(v) AS s FROM t WHERE grp = %d", grp), nil)
		if err != nil {
			t.Fatal(err)
		}
		var want int64
		for id := grp; id < len(v); id += 64 {
			want += v[id]
		}
		if got := res.Rows[0][0].Int(); got != want {
			t.Fatalf("grp %d: SUM(v) = %d, want %d", grp, got, want)
		}
	}
	list := func(grp int) {
		t.Helper()
		res, err := db.Exec(fmt.Sprintf("SELECT id, v FROM t WHERE grp = %d", grp), nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) == 0 {
			t.Fatalf("grp %d: no rows", grp)
		}
		for _, r := range res.Rows {
			if id := r[0].Int(); id%64 != int64(grp) || r[1].Int() != v[id] {
				t.Fatalf("grp %d: row %v, want v = %d", grp, r, v[id])
			}
		}
	}
	round := func(i int) {
		id := (i * 67) % 1000 // walks every group
		if _, err := db.Exec(fmt.Sprintf("UPDATE t SET v = v + 1 WHERE id = %d", id), nil); err != nil {
			t.Fatal(err)
		}
		v[id]++
		for rep := 0; rep < 2; rep++ { // the second pass is served from the cache
			point(id)
			sum(id % 64)
			list(id % 64)
			list((id + 1) % 64)
		}
	}

	round(0) // warm-up: one plan and one shape per statement
	plans, shapes := db.PlanCacheSize(), db.AutoParamCacheSize()
	if plans != 3 || shapes != 3 {
		t.Fatalf("warm-up cached %d plans, %d shapes; want 3 and 3", plans, shapes)
	}
	counter := func(name string) int64 { return metrics.Default.Counter(name).Value() }
	misses := counter("engine.plan_cache_misses")
	before := map[string]int64{}
	for _, name := range []string{"imcache.admits", "imcache.hits", "imcache.invalidations", "imcache.evictions"} {
		before[name] = counter(name)
	}
	for i := 1; i <= 40; i++ {
		round(i)
	}
	for name, was := range before {
		if counter(name) == was {
			t.Errorf("%s did not move: the churn this test is about never happened", name)
		}
	}
	if got := counter("engine.plan_cache_misses"); got != misses {
		t.Errorf("result-cache churn caused %d plan-cache misses", got-misses)
	}
	if p, s := db.PlanCacheSize(), db.AutoParamCacheSize(); p != plans || s != shapes {
		t.Errorf("result-cache churn moved the caches: %d plans, %d shapes; want %d and %d", p, s, plans, shapes)
	}
}

// TestInvalidatePlansClearsEverything: DDL, a statistics refresh and an
// optimizer-option change each empty the two caches there are — the plan cache
// and the shape cache — and a plan optimized across the call is not inserted
// afterwards. A materialized view's maintenance is not a cache and is not
// touched: the view follows its table across every one of them.
func TestInvalidatePlansClearsEverything(t *testing.T) {
	causes := []struct {
		name string
		fire func(db *Database) error
	}{
		{"CREATE VIEW", func(db *Database) error { return db.ExecScript("CREATE VIEW tv AS SELECT id, v FROM t WHERE grp = 1") }},
		{"DROP VIEW", func(db *Database) error { return db.ExecScript("DROP VIEW mv") }},
		{"ANALYZE", func(db *Database) error { return db.AnalyzeTable("t") }},
		{"SetOptions", func(db *Database) error {
			o := db.Options()
			o.MaxDOP = 1
			db.SetOptions(o)
			return nil
		}},
	}
	for _, c := range causes {
		t.Run(c.name, func(t *testing.T) {
			db := imTestDB(t, nil)
			if err := db.ExecScript("CREATE MATERIALIZED VIEW mv AS SELECT id, v FROM t WHERE v <= 10"); err != nil {
				t.Fatal(err)
			}
			if _, err := db.Exec("UPDATE t SET v = 5 WHERE id = 3", nil); err != nil {
				t.Fatal(err)
			}
			if _, err := db.Exec("SELECT v FROM t WHERE id = 3", nil); err != nil {
				t.Fatal(err)
			}
			if db.PlanCacheSize() == 0 || db.AutoParamCacheSize() == 0 {
				t.Fatalf("warm-up cached %d plans, %d shapes", db.PlanCacheSize(), db.AutoParamCacheSize())
			}

			// A plan in flight: optimized before the invalidation, inserted after.
			stmt, err := sql.Parse("SELECT w FROM t WHERE id = @id")
			if err != nil {
				t.Fatal(err)
			}
			sel := stmt.(*sql.SelectStmt)
			db.planMu.Lock()
			gen := db.planCache.gen
			db.planMu.Unlock()
			inflight, err := opt.Optimize(sel, db.env())
			if err != nil {
				t.Fatal(err)
			}

			if err := c.fire(db); err != nil {
				t.Fatal(err)
			}
			if p, s := db.PlanCacheSize(), db.AutoParamCacheSize(); p+s != 0 {
				t.Errorf("left %d plans, %d shapes", p, s)
			}
			db.planMu.Lock()
			inserted := db.planCache.putIfGen(gen, sel.CacheKey(), inflight)
			db.planMu.Unlock()
			if inserted || db.PlanCacheSize() != 0 {
				t.Error("a plan optimized before the invalidation was cached after it")
			}
			if db.Catalog().Table("mv") == nil {
				return // DROP VIEW
			}
			if _, err := db.Exec("UPDATE t SET v = 7 WHERE id = 3", nil); err != nil {
				t.Fatal(err)
			}
			if res, err := db.Exec("SELECT v FROM mv WHERE id = 3", nil); err != nil || len(res.Rows) != 1 || res.Rows[0][0].Int() != 7 {
				t.Errorf("after the invalidation mv no longer follows t: %v, %v", res, err)
			}
		})
	}
}

// TestIMCacheConcurrentStress drives queries, writes and enable/disable
// toggles concurrently; run under -race this checks the locking discipline
// between the cache, the plan cache and the optimizer env.
func TestIMCacheConcurrentStress(t *testing.T) {
	db := imTestDB(t, &imcache.Options{AdmitAfter: 1})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				q := fmt.Sprintf("SELECT COUNT(*) AS n FROM t WHERE grp = %d", (w*50+i)%16)
				if _, err := db.Exec(q, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			ins := fmt.Sprintf("INSERT INTO t (id, grp, v, w) VALUES (%d, %d, 1, 1.0)", 10000+i, i%16)
			if _, err := db.Exec(ins, nil); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			db.SetIMCacheEnabled(i%2 == 0)
		}
		db.SetIMCacheEnabled(true)
	}()
	wg.Wait()
}

// TestIMCacheSysTable: sys.intermediate_results lists admitted entries with
// lineage and turns stale after a write.
func TestIMCacheSysTable(t *testing.T) {
	db := imTestDB(t, nil)
	const q = "SELECT grp, COUNT(*) AS n FROM t GROUP BY grp"
	for i := 0; i < 3; i++ {
		if _, err := db.Exec(q, nil); err != nil {
			t.Fatal(err)
		}
	}
	res, err := db.Exec("SELECT shape, lineage, hits, staleness_seconds FROM sys.intermediate_results", nil)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range res.Rows {
		if strings.Contains(r[0].Str(), "GROUP BY") && strings.Contains(r[1].Str(), "t") {
			found = true
			if r[2].Int() == 0 {
				t.Fatal("sys.intermediate_results shows zero hits for a repeated aggregate")
			}
			if r[3].Float() != 0 {
				t.Fatalf("fresh entry reports staleness %v", r[3].Float())
			}
		}
	}
	if !found {
		t.Fatalf("admitted aggregate missing from sys.intermediate_results: %v", res.Rows)
	}
	if _, err := db.Exec("DELETE FROM t WHERE id = 0", nil); err != nil {
		t.Fatal(err)
	}
	res, err = db.Exec("SELECT staleness_seconds FROM sys.intermediate_results", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		if r[0].Float() < 0 {
			t.Fatalf("stale entry reports negative staleness %v", r[0].Float())
		}
	}
}

// The result key writes each named parameter's value from the name it is
// stored under — the executor resolves @ID by exact name, so {"ID": 3} and
// {"ID": 7} are different executions whatever a lower-cased lookup finds.
func TestIMKeyKeepsMixedCaseParamValues(t *testing.T) {
	const q = "SELECT i_id FROM item WHERE i_id = @ID"
	three, seven := exec.Params{"ID": types.NewInt(3)}, exec.Params{"ID": types.NewInt(7)}
	if imKey(q, three, nil) == imKey(q, seven, nil) {
		t.Fatal("@ID = 3 and @ID = 7 share one result key")
	}
	db := newBackendDB(t)
	for round := 0; round < 3; round++ {
		for _, p := range []exec.Params{three, seven} {
			res, err := db.Exec(q, p)
			if err != nil {
				t.Fatal(err)
			}
			if want := p["ID"].Int(); len(res.Rows) != 1 || res.Rows[0][0].Int() != want {
				t.Fatalf("round %d, @ID = %d: rows %v", round, want, res.Rows)
			}
		}
	}
}
