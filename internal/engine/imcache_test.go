package engine

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"mtcache/internal/imcache"
	"mtcache/internal/metrics"
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

// TestIMCacheViewTierSubstitution: an admitted select-project intermediate
// becomes a synthetic view the optimizer substitutes into other queries.
func TestIMCacheViewTierSubstitution(t *testing.T) {
	db := imTestDB(t, nil)
	const q1 = "SELECT id, v FROM t WHERE grp = 5"
	for i := 0; i < 3; i++ {
		if _, err := db.Exec(q1, nil); err != nil {
			t.Fatal(err)
		}
	}
	// A different query subsumed by the intermediate: same source filter,
	// narrower projection plus an extra residual predicate.
	stmt, err := sql.Parse("SELECT v FROM t WHERE grp = 5 AND v >= 0")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := db.Plan(stmt.(*sql.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	usedIM := false
	for _, v := range plan.UsedViews {
		if strings.HasPrefix(v, imViewPrefix) {
			usedIM = true
		}
	}
	if !usedIM {
		t.Fatalf("plan did not substitute the intermediate view; used %v", plan.UsedViews)
	}
	// And the substituted plan must produce the right rows.
	res, err := db.Exec("SELECT v FROM t WHERE grp = 5 AND v >= 0", nil)
	if err != nil {
		t.Fatal(err)
	}
	db.SetIMCacheEnabled(false)
	want, err := db.Exec("SELECT v FROM t WHERE grp = 5 AND v >= 0", nil)
	if err != nil {
		t.Fatal(err)
	}
	w, g := imCanon(want.Rows), imCanon(res.Rows)
	if len(w) != len(g) {
		t.Fatalf("row count: want %d, got %d", len(w), len(g))
	}
	for i := range w {
		if w[i] != g[i] {
			t.Fatalf("substituted plan row %d: want %q, got %q", i, w[i], g[i])
		}
	}
}

// TestIMCachePlanInvalidationOnAdmit is the regression test for the
// plan-cache race: admitting (and later dropping) a view-tier intermediate
// must invalidate cached plans exactly like DDL, or a stale plan could keep
// reading a dropped intermediate.
func TestIMCachePlanInvalidationOnAdmit(t *testing.T) {
	db := imTestDB(t, nil)
	if _, err := db.Exec("SELECT COUNT(*) AS n FROM t WHERE v = 3", nil); err != nil {
		t.Fatal(err)
	}
	db.planMu.Lock()
	gen := db.planCache.gen
	db.planMu.Unlock()

	// Two executions admit a select-project intermediate with a view.
	const q = "SELECT id, v FROM t WHERE grp = 7"
	for i := 0; i < 2; i++ {
		if _, err := db.Exec(q, nil); err != nil {
			t.Fatal(err)
		}
	}
	db.planMu.Lock()
	afterAdmit := db.planCache.gen
	db.planMu.Unlock()
	if afterAdmit == gen {
		t.Fatal("admitting a view-tier intermediate did not invalidate cached plans")
	}

	// Disabling drops every entry; plans referencing intermediates must go too.
	db.SetIMCacheEnabled(false)
	db.planMu.Lock()
	afterDrop := db.planCache.gen
	db.planMu.Unlock()
	if afterDrop == afterAdmit {
		t.Fatal("dropping intermediates did not invalidate cached plans")
	}
}

// TestIMCacheChurnKeepsAutoParamShapes: admitting and invalidating a
// view-tier intermediate clears the query plan cache (and a plan optimized
// across the transition is not re-inserted) but leaves the
// auto-parameterization shape cache alone — shape eligibility depends on DDL
// and cached-view definitions, never on __im_N entries.
func TestIMCacheChurnKeepsAutoParamShapes(t *testing.T) {
	db := imTestDB(t, nil)
	for _, q := range []string{
		"SELECT v FROM t WHERE id = 1",
		"SELECT COUNT(*) AS n FROM t WHERE v = 3",
	} {
		if _, err := db.Exec(q, nil); err != nil {
			t.Fatal(err)
		}
	}
	shapes := db.AutoParamCacheSize()
	if shapes == 0 || db.PlanCacheSize() == 0 {
		t.Fatalf("warm-up cached nothing: shapes=%d plans=%d", shapes, db.PlanCacheSize())
	}

	db.planMu.Lock()
	staleGen := db.planCache.gen
	db.planMu.Unlock()

	// Admit: the second execution materializes a view-tier entry.
	const q = "SELECT id, v FROM t WHERE grp = 7"
	for i := 0; i < 2; i++ {
		if _, err := db.Exec(q, nil); err != nil {
			t.Fatal(err)
		}
	}
	shapes++ // q's own shape
	if got := db.AutoParamCacheSize(); got != shapes {
		t.Fatalf("admit changed the shape cache: %d shapes, want %d", got, shapes)
	}
	// The admit cleared the plan cache: the warm-up statements' plans are gone.
	if n := db.PlanCacheSize(); n != 0 {
		t.Fatalf("admit left %d cached plans", n)
	}
	// planCached refuses to insert a plan optimized under an older
	// generation, so a plan in flight across the admit is not re-inserted.
	db.planMu.Lock()
	if db.planCache.gen == staleGen {
		t.Fatal("admit did not advance the plan-cache generation")
	}
	db.planMu.Unlock()

	// Re-warm one plan (a new literal: the old text is now served by the
	// exact tier without planning), then invalidate the entry by a write.
	if _, err := db.Exec("SELECT v FROM t WHERE id = 2", nil); err != nil {
		t.Fatal(err)
	}
	if db.PlanCacheSize() == 0 {
		t.Fatal("plan not re-cached after admit")
	}
	if _, err := db.Exec("UPDATE t SET v = v + 1 WHERE id = 500", nil); err != nil {
		t.Fatal(err)
	}
	if n := db.PlanCacheSize(); n != 0 {
		t.Fatalf("invalidation left %d cached plans", n)
	}
	if got := db.AutoParamCacheSize(); got != shapes {
		t.Fatalf("invalidation changed the shape cache: %d shapes, want %d", got, shapes)
	}

	// DDL still clears everything.
	if _, err := db.Exec("CREATE INDEX ix_t_grp ON t (grp)", nil); err != nil {
		t.Fatal(err)
	}
	if got := db.AutoParamCacheSize(); got != 0 {
		t.Fatalf("DDL left %d shapes cached", got)
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
