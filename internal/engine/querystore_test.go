package engine

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"mtcache/internal/sql"
	"mtcache/internal/trace"
)

// took returns r as the record of a statement that began at start and whose
// execution took d: the execute stage is the latency the store keeps.
func took(d time.Duration, start time.Time, r *trace.Record) *trace.Record {
	r.Stages[trace.StageExec], r.Start = d, start
	return r
}

func TestRecordAndSnapshot(t *testing.T) {
	var s shapeStats
	now := time.Now()
	for i := 0; i < 5; i++ {
		planCache := trace.PlanMiss
		if i > 0 {
			planCache = trace.PlanHit
		}
		s.record(took(time.Duration(i+1)*time.Millisecond, now, &trace.Record{
			Variant:   "local",
			Rows:      2,
			PlanCache: planCache,
			Staleness: float64(i),
		}), nil, 0)
	}
	s.record(took(10*time.Millisecond, now, &trace.Record{
		Variant:   "remote",
		Tier:      trace.TierRemote,
		Rows:      1,
		PlanCache: trace.PlanMiss,
		Counters:  trace.Counters{RemoteQueries: 1, RowsRemote: 1},
	}), errors.New("boom"), 0)
	ss, ok := s.snapshot("SELECT a FROM t WHERE id = @p", nil)
	if !ok || ss.Shape != "SELECT a FROM t WHERE id = @p" {
		t.Fatalf("snapshot = %+v, %v", ss, ok)
	}
	if ss.Rollup.Execs != 6 || ss.Rollup.Rows != 11 {
		t.Fatalf("rollup execs/rows = %d/%d, want 6/11", ss.Rollup.Execs, ss.Rollup.Rows)
	}
	if ss.Rollup.LocalExecs != 5 || ss.Rollup.Remote != 1 {
		t.Fatalf("local/remote = %d/%d, want 5/1", ss.Rollup.LocalExecs, ss.Rollup.Remote)
	}
	if ss.Rollup.Hits != 4 || ss.Rollup.Misses != 2 {
		t.Fatalf("hits/misses = %d/%d, want 4/2", ss.Rollup.Hits, ss.Rollup.Misses)
	}
	if ss.Rollup.MaxStale != 4 {
		t.Fatalf("max staleness = %v, want 4", ss.Rollup.MaxStale)
	}
	if ss.Rollup.Errs != 1 || ss.LastError != "boom" || !ss.LastErrAt.Equal(now) {
		t.Fatalf("errors = %d lastErr = %q at %v", ss.Rollup.Errs, ss.LastError, ss.LastErrAt)
	}
	if len(ss.Variants) != 2 {
		t.Fatalf("want 2 variants, got %d", len(ss.Variants))
	}
	// Variants sorted by descending execs: local (5) before remote (1).
	if ss.Variants[0].Variant != "local" || ss.Variants[1].Variant != "remote" {
		t.Fatalf("variant order = %q,%q", ss.Variants[0].Variant, ss.Variants[1].Variant)
	}
	// p99 over {1..5,10} ms must be the max.
	if got := ss.Rollup.P99Ms; got < 9.9 || got > 10.1 {
		t.Fatalf("rollup p99 = %v, want ~10", got)
	}
	if ss.Rollup.TotalMs < 24.9 || ss.Rollup.TotalMs > 25.1 {
		t.Fatalf("rollup total_ms = %v, want ~25", ss.Rollup.TotalMs)
	}
	var empty shapeStats
	if _, ok := empty.snapshot("q", nil); ok {
		t.Fatal("a shape that recorded nothing has a row")
	}
}

// The engine reports staleness -1 when it is unknown (a cached view before
// its first pull, or a query that touched no cached view). The sentinel must
// not enter the max-staleness aggregate as a negative sample, and a variant
// that never saw a real observation must answer -1, not 0.
func TestStalenessSentinelExcludedFromStats(t *testing.T) {
	now := time.Now()
	// Only sentinel samples: max staleness stays "unknown".
	var unknown shapeStats
	for i := 0; i < 3; i++ {
		unknown.record(took(0, now, &trace.Record{Variant: "local", Staleness: -1}), nil, 0)
	}
	// A mix: the sentinel must not mask or perturb the real observations.
	var mixed shapeStats
	mixed.record(took(0, now, &trace.Record{Variant: "local", Staleness: -1}), nil, 0)
	mixed.record(took(0, now, &trace.Record{Variant: "local", Staleness: 2.5}), nil, 0)
	mixed.record(took(0, now, &trace.Record{Variant: "remote", Staleness: -1}), nil, 0)

	ss, _ := unknown.snapshot("SELECT a FROM unknown_t", nil)
	if ss.Rollup.MaxStale != -1 {
		t.Fatalf("unknown-only rollup MaxStale = %v, want -1", ss.Rollup.MaxStale)
	}
	for _, v := range ss.Variants {
		if v.MaxStale != -1 {
			t.Fatalf("unknown-only variant %q MaxStale = %v, want -1", v.Variant, v.MaxStale)
		}
	}
	ss, _ = mixed.snapshot("SELECT b FROM mixed_t", nil)
	if ss.Rollup.MaxStale != 2.5 {
		t.Fatalf("mixed rollup MaxStale = %v, want 2.5", ss.Rollup.MaxStale)
	}
	for _, v := range ss.Variants {
		want := -1.0
		if v.Variant == "local" {
			want = 2.5
		}
		if v.MaxStale != want {
			t.Fatalf("%s MaxStale = %v, want %v", v.Variant, v.MaxStale, want)
		}
	}
}

func TestSlowCaptureArmAndRearm(t *testing.T) {
	var s shapeStats
	const slow = 5 * time.Millisecond
	now := time.Now()
	fast := func(at time.Time) *trace.Record { return took(time.Millisecond, at, &trace.Record{Variant: "local"}) }
	slowRun := func(at time.Time) *trace.Record {
		return took(20*time.Millisecond, at, &trace.Record{Variant: "local"})
	}

	s.record(fast(now), nil, slow)
	if s.capture.CompareAndSwap(true, false) {
		t.Fatal("fast execution armed capture")
	}
	s.record(slowRun(now), nil, 0)
	if s.capture.CompareAndSwap(true, false) {
		t.Fatal("a slow execution armed capture with capture off")
	}
	s.record(slowRun(now), nil, slow)
	if !s.capture.CompareAndSwap(true, false) {
		t.Fatal("slow execution did not arm capture")
	}
	if s.capture.CompareAndSwap(true, false) {
		t.Fatal("taking the capture did not clear the flag")
	}
	s.keepAnalyzed("local", "Scan t (rows=1)", "@__p0 = 7", now)
	// Within the re-arm interval further slow runs must not re-arm.
	s.record(slowRun(now.Add(slowRearm-time.Millisecond)), nil, slow)
	if s.capture.CompareAndSwap(true, false) {
		t.Fatal("capture re-armed inside the re-arm interval")
	}
	// Once the interval has passed since the capture, it arms again.
	s.record(slowRun(now.Add(slowRearm)), nil, slow)
	if !s.capture.CompareAndSwap(true, false) {
		t.Fatal("capture did not re-arm after the interval elapsed")
	}
	ss, _ := s.snapshot("q", nil)
	if ss.Variants[0].Analyzed != "Scan t (rows=1)" {
		t.Fatalf("analyzed plan not retained: %q", ss.Variants[0].Analyzed)
	}
	if ss.Variants[0].Literals != "@__p0 = 7" {
		t.Fatalf("captured literals not retained: %q", ss.Variants[0].Literals)
	}
}

// TestConcurrentRecordSnapshot: statements record on their shapes, take and
// keep captures, while readers snapshot them; the race detector is the check,
// and every execution is counted once.
func TestConcurrentRecordSnapshot(t *testing.T) {
	shapes := make([]shapeStats, 40)
	now := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s := &shapes[i%len(shapes)]
				s.record(took(time.Microsecond, now, &trace.Record{Variant: "local", Rows: 1}), nil, time.Nanosecond)
				if s.capture.CompareAndSwap(true, false) {
					s.keepAnalyzed("local", "x", "", now)
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		_, _ = shapes[i%len(shapes)].snapshot("q", nil)
	}
	wg.Wait()
	var execs int64
	for i := range shapes {
		ss, _ := shapes[i].snapshot("q", nil)
		execs += ss.Rollup.Execs
	}
	if execs != 4*500 {
		t.Fatalf("recorded %d executions, want %d", execs, 4*500)
	}
}

// shapeRows is db's sys.query_stats as shape → its row's executions, plan-cache
// hits and misses.
func shapeRows(t *testing.T, db *Database) map[string][3]int64 {
	t.Helper()
	res, err := db.Exec("SELECT shape, executions, plan_cache_hits, plan_cache_misses FROM sys.query_stats", nil)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][3]int64{}
	for _, r := range res.Rows {
		if _, dup := out[r[0].Str()]; dup {
			t.Fatalf("%s: shape %q has two rows", db.Name, r[0].Str())
		}
		out[r[0].Str()] = [3]int64{r[1].Int(), r[2].Int(), r[3].Int()}
	}
	return out
}

// TestQueryStatsLiveAndDieWithTheirEntry: a shape's statistics are its
// plan-cache entry's, so the plan cache's bound is theirs — the entry pushed
// out of the LRU takes them, and a recently executed shape keeps them — and a
// flush drops every row.
func TestQueryStatsLiveAndDieWithTheirEntry(t *testing.T) {
	db := newBackendDB(t)
	text := func(i int) string { return fmt.Sprintf("SELECT i_id AS c%d FROM item WHERE i_id = 1", i) }
	shape := func(i int) string {
		return sql.MustParseSelect(fmt.Sprintf("SELECT i_id AS c%d FROM item WHERE i_id = @__p0", i)).CacheKey()
	}
	exec := func(i int) {
		if _, err := db.Exec(text(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	exec(0)
	exec(1)
	if rows := db.QueryStore(); len(rows) != 2 || rows[0].Shape != shape(1) || rows[1].Shape != shape(0) {
		t.Fatalf("query store = %+v, want shapes 1 and 0, most recent first", rows)
	}
	// Keep shape 1 warm while planCacheCap more shapes go through; shape 0
	// is the least recently used entry and goes first.
	for i := 2; i < planCacheCap+2; i++ {
		exec(i)
		if i%64 == 0 {
			exec(1)
		}
	}
	rows := shapeRows(t, db)
	if _, ok := rows[shape(0)]; ok {
		t.Fatal("the evicted shape's statistics outlived its entry")
	}
	if r, ok := rows[shape(1)]; !ok || r[0] < 2 {
		t.Fatalf("the recently executed shape lost its statistics: %v", r)
	}
	if len(rows) > planCacheCap {
		t.Fatalf("%d rows, more than the plan cache's %d entries", len(rows), planCacheCap)
	}
	db.InvalidatePlans()
	if rows := db.QueryStore(); len(rows) != 0 {
		t.Fatalf("a flushed plan cache still reports %d shapes", len(rows))
	}
}

// TestQueryPlansShowThePlanThatRuns: after a plan-cache flush — DDL, a
// statistics refresh, an optimizer-option change — the shape's next execution
// runs a new plan, and sys.query_plans shows that plan: the text EXPLAIN
// renders for the shape, under the variant that ran. The query store used to
// keep the first plan text a variant ever had, beside the plan that replaced
// it.
func TestQueryPlansShowThePlanThatRuns(t *testing.T) {
	for _, c := range []struct {
		name     string
		db       func(t *testing.T) *Database
		q        string // %d: a key
		cause    func(t *testing.T, db *Database)
		wantPlan string
	}{
		{name: "CREATE INDEX", db: newBackendDB, q: "SELECT i_id FROM item WHERE i_cost = %d.5",
			cause: func(t *testing.T, db *Database) {
				if _, err := db.Exec("CREATE INDEX ix_cost ON item (i_cost)", nil); err != nil {
					t.Fatal(err)
				}
			},
			wantPlan: "IndexSeek item.ix_cost"},
		{name: "ANALYZE", db: newBackendDB, q: "SELECT i_id FROM item WHERE i_title = 'book%d'",
			cause: func(t *testing.T, db *Database) {
				for i := 1000; i < 1300; i++ {
					if _, err := db.Exec(fmt.Sprintf("INSERT INTO item (i_id, i_title, i_cost) VALUES (%d, 'book7', 1.5)", i), nil); err != nil {
						t.Fatal(err)
					}
				}
				if err := db.Analyze(); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "SetOptions", q: "SELECT i_title FROM item WHERE i_id = %d",
			db: func(t *testing.T) *Database { cache, _ := newReportingCache(t); return cache },
			cause: func(t *testing.T, db *Database) {
				o := db.Options()
				o.EnableDynamicPlans = false
				db.SetOptions(o)
			}},
	} {
		db := c.db(t)
		explain := func(q string) string {
			res, err := db.Exec("EXPLAIN "+q, nil)
			if err != nil {
				t.Fatal(err)
			}
			var lines []string
			for _, r := range res.Rows {
				lines = append(lines, r[0].Str())
			}
			return strings.Join(lines, "\n")
		}
		if _, err := db.Exec(fmt.Sprintf(c.q, 7), nil); err != nil {
			t.Fatal(err)
		}
		before := explain(fmt.Sprintf(c.q, 7))
		c.cause(t, db)
		q := fmt.Sprintf(c.q, 8)
		if _, err := db.Exec(q, nil); err != nil {
			t.Fatal(err)
		}
		now := explain(q)
		if now == before {
			t.Fatalf("%s: fixture: the plan did not change:\n%s", c.name, now)
		}
		if !strings.Contains(now, c.wantPlan) {
			t.Fatalf("%s: EXPLAIN shows\n%s\nwant %s", c.name, now, c.wantPlan)
		}
		res, err := db.Exec("SELECT shape, variant, plan FROM sys.query_plans", nil)
		if err != nil {
			t.Fatal(err)
		}
		var plans []string
		for _, r := range res.Rows {
			if strings.HasPrefix(r[0].Str(), strings.SplitN(c.q, " WHERE", 2)[0]) && r[2].Str() != "" {
				plans = append(plans, r[1].Str()+": "+strings.TrimRight(r[2].Str(), "\n"))
			}
		}
		if len(plans) != 1 || !strings.HasSuffix(plans[0], ": "+now) {
			t.Errorf("%s: sys.query_plans shows %q, EXPLAIN\n%s", c.name, plans, now)
		}
	}
}

// TestEachServerReportsItsOwnShapes: a cache and its backend in one process
// each list in sys.query_stats the shapes that server ran, with that server's
// plan-cache hits and misses: a shape both ran is one row on each, counted
// apart, and a shape only the other ran is not listed.
func TestEachServerReportsItsOwnShapes(t *testing.T) {
	cache, link := newReportingCache(t)
	backend := link.db
	shape := func(q string) string { return sql.MustParseSelect(q).CacheKey() }
	both := shape("SELECT o_qty FROM orders WHERE o_id = @__p0")                      // local on either
	remote := shape("SELECT i_stock FROM item WHERE i_id = @__p0")                    // the cache's remote plan …
	shipped := shape("SELECT item.i_stock FROM item AS item WHERE item.i_id = @__p0") // … and the text it ships
	direct := shape("SELECT i_title FROM item WHERE i_id = @__p0")
	for _, s := range []struct {
		db *Database
		q  string
	}{
		{cache, "SELECT o_qty FROM orders WHERE o_id = 3"},
		{cache, "SELECT o_qty FROM orders WHERE o_id = 4"},
		{cache, "SELECT o_qty FROM orders WHERE o_id = 5"},
		{cache, "SELECT i_stock FROM item WHERE i_id = 7"},
		{cache, "SELECT i_stock FROM item WHERE i_id = 9"},
		{backend, "SELECT o_qty FROM orders WHERE o_id = 3"},
		{backend, "SELECT o_qty FROM orders WHERE o_id = 4"},
		{backend, "SELECT i_title FROM item WHERE i_id = 5"},
		{backend, "SELECT i_title FROM item WHERE i_id = 6"},
	} {
		if _, err := s.db.Exec(s.q, nil); err != nil {
			t.Fatal(err)
		}
	}
	// executions, plan-cache hits, misses
	want := map[string][3]int64{both: {3, 2, 1}, remote: {2, 1, 1}}
	if got := shapeRows(t, cache); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("the cache's sys.query_stats is %v, want %v", got, want)
	}
	got := shapeRows(t, backend) // and the shapes of the cache's view seeds
	for s, w := range map[string][3]int64{both: {2, 1, 1}, shipped: {2, 1, 1}, direct: {2, 1, 1}} {
		if got[s] != w {
			t.Errorf("the backend's row for %q is %v, want %v", s, got[s], w)
		}
	}
	if _, ok := got[remote]; ok {
		t.Errorf("the backend lists %q, which only the cache ran", remote)
	}
}
