package engine

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mtcache/internal/catalog"
	"mtcache/internal/exec"
	"mtcache/internal/metrics"
	"mtcache/internal/querystore"
	"mtcache/internal/resilience"
	"mtcache/internal/storage"
	"mtcache/internal/trace"
)

// cutLink is a backend link the test can cut: while down every read fails the
// way a dead connection does.
type cutLink struct {
	*Link
	down atomic.Bool
}

func (l *cutLink) Query(sqlText string, params exec.Params) (*exec.ResultSet, error) {
	if l.down.Load() {
		return nil, fmt.Errorf("%w: link cut by the test", resilience.ErrBackendDown)
	}
	return l.Link.Query(sqlText, params)
}

func (l *cutLink) QueryTraced(sqlText string, params exec.Params, traceID string) (*exec.ResultSet, *trace.WireSpan, error) {
	if l.down.Load() {
		return nil, nil, fmt.Errorf("%w: link cut by the test", resilience.ErrBackendDown)
	}
	return l.Link.QueryTraced(sqlText, params, traceID)
}

// newReportingCache is an in-process cache with one of everything a statement
// can meet: cv_orders covers orders (local plans), cv_low covers the lower
// half of item by key (a ChoosePlan per point shape) without i_stock (remote
// plans), a staleness probe, a session gate that has applied LSN 10, a
// backend link that can be cut, and a read procedure of two SELECTs.
func newReportingCache(t *testing.T) (*Database, *cutLink) {
	t.Helper()
	backend := newBackendDB(t)
	for i := 1; i <= 20; i++ {
		if _, err := backend.Exec(fmt.Sprintf("INSERT INTO orders (o_id, o_i_id, o_qty) VALUES (%d, %d, %d)", i, i, i%5+1), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := backend.Analyze(); err != nil {
		t.Fatal(err)
	}
	link := &cutLink{Link: NewLink(backend)}
	cache := New(Config{Name: "cache1", Role: Cache, Remote: link})
	cache.OnCachedViewCreate(func(v *catalog.Table) error {
		// The seed: what replication's snapshot would have applied.
		seed, err := backend.ExecStmt(v.ViewDef, nil)
		if err != nil {
			return err
		}
		tx := cache.Store().Begin(true)
		for _, row := range seed.Rows {
			if _, err := tx.Insert(v.Name, row); err != nil {
				return err
			}
		}
		return tx.CommitUnlogged()
	})
	cache.SetStalenessProbe(func(string) (float64, bool) { return 0.25, true })
	cache.SetSessionGate(func(min storage.LSN, _ time.Duration) (storage.LSN, bool) { return 10, min <= 10 })
	err := cache.ExecScript(`
		CREATE TABLE item (i_id INT PRIMARY KEY, i_title VARCHAR(60) NOT NULL, i_cost FLOAT, i_stock INT DEFAULT 100);
		CREATE TABLE orders (o_id INT PRIMARY KEY, o_i_id INT, o_qty INT);
		CREATE CACHED VIEW cv_orders AS SELECT o_id, o_i_id, o_qty FROM orders;
		CREATE CACHED VIEW cv_low AS SELECT i_id, i_title, i_cost FROM item WHERE i_id <= 100;
		CREATE PROCEDURE twoReads @o INT, @i INT AS BEGIN
			SELECT o_qty FROM orders WHERE o_id = @o;
			SELECT i_stock FROM item WHERE i_id = @i;
		END`)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"item", "orders"} {
		cache.Catalog().Table(name).Stats.Store(backend.Catalog().Table(name).Stats.Load().Clone())
	}
	cache.InvalidatePlans()
	return cache, link
}

// storeExecs tallies the query store's executions by variant.
func storeExecs() map[string]int64 {
	out := map[string]int64{}
	for _, shape := range querystore.Default.Snapshot() {
		for _, v := range shape.Variants {
			out[v.Variant] += v.Execs
		}
	}
	return out
}

// TestStatementReportedOnce: whatever answers a statement, and also when
// nothing does, the statement is reported exactly once to each reader of its
// record — one entry in the trace ring under the ID the Result carries, one
// stage observation per SELECT that planned and per SELECT that ran a plan,
// one query-store execution under the variant that names what answered — and
// the tree rendered from the record has the spans of the stages it went
// through. The backend behind the in-process link shares the process-wide
// histograms and query store, so a statement that reaches it counts there
// too: those are the "+1 backend" below.
func TestStatementReportedOnce(t *testing.T) {
	cache, link := newReportingCache(t)
	shipped := cache.Options()
	anyError := errors.New("any error")
	querystore.Default.Reset()
	t.Cleanup(querystore.Default.Reset)
	optimize := metrics.Default.Histogram("engine.optimize_seconds")
	execute := metrics.Default.Histogram("engine.execute_seconds")
	text := func(q string) func() (*Result, *trace.Record, error) {
		return func() (*Result, *trace.Record, error) { return cache.ExecSessionTraced(q, nil, 0, 0, "") }
	}
	remoteSpans := "cache1.exec,optimize,execute,remote,backend.exec,optimize,execute"
	for _, c := range []struct {
		name     string
		run      func() (*Result, *trace.Record, error)
		setup    func()
		tier     trace.Tier
		cache    trace.PlanCache
		planned  int64 // SELECTs that went through the plan stage
		executed int64 // SELECTs that ran a plan
		store    map[string]int64
		spans    string // depth-first
		branch   string // the execute span's chooseplan attribute
		err      error
	}{
		{name: "plan-cache miss", run: text("SELECT o_qty FROM orders WHERE o_id = 3"),
			tier: trace.TierLocal, cache: trace.PlanMiss, planned: 1, executed: 1,
			store: map[string]int64{"local+cv_orders": 1}, spans: "cache1.exec,optimize,execute"},
		{name: "plan-cache hit", run: text("SELECT o_qty FROM orders WHERE o_id = 4"),
			tier: trace.TierLocal, cache: trace.PlanHit, planned: 1, executed: 1,
			store: map[string]int64{"local+cv_orders": 1}, spans: "cache1.exec,optimize,execute"},
		{name: "second execution, admitted to the result cache", run: text("SELECT o_qty FROM orders WHERE o_id = 3"),
			tier: trace.TierLocal, cache: trace.PlanHit, planned: 1, executed: 1,
			store: map[string]int64{"local+cv_orders": 1}, spans: "cache1.exec,optimize,execute"},
		{name: "imcache hit", run: text("SELECT o_qty FROM orders WHERE o_id = 3"),
			tier: trace.TierIMCache, cache: trace.PlanNotConsulted,
			store: map[string]int64{"imcache": 1}, spans: "cache1.exec,imcache_hit"},
		{name: "remote plan (+1 backend)", run: text("SELECT i_stock FROM item WHERE i_id = 7"),
			tier: trace.TierRemote, cache: trace.PlanMiss, planned: 2, executed: 2,
			store: map[string]int64{"remote": 1, "local": 1}, spans: remoteSpans},
		{name: "dynamic plan, local branch", run: text("SELECT i_title FROM item WHERE i_id = 7"),
			tier: trace.TierDynamicLocal, cache: trace.PlanMiss, planned: 1, executed: 1,
			store: map[string]int64{"dynamic+cv_low": 1}, spans: "cache1.exec,optimize,execute", branch: "local"},
		{name: "dynamic plan, remote branch (+1 backend)", run: text("SELECT i_title FROM item WHERE i_id = 150"),
			tier: trace.TierDynamicRemote, cache: trace.PlanHit, planned: 2, executed: 2,
			store: map[string]int64{"dynamic+cv_low": 1, "local": 1}, spans: remoteSpans, branch: "remote"},
		{name: "degraded-local", run: text("SELECT o_i_id FROM orders WHERE o_id = 5"),
			setup: func() {
				// A backend this cheap wins every plan on cost; with the link
				// cut, the view is what is left.
				o := cache.Options()
				o.RemoteCostFactor, o.TransferStartupCost, o.TransferCostPerByte = 1e-6, 0, 0
				cache.SetOptions(o)
				link.down.Store(true)
			},
			tier: trace.TierDegraded, cache: trace.PlanMiss, planned: 1, executed: 1,
			store: map[string]int64{"degraded-local": 1}, spans: "cache1.exec,optimize,execute,remote"},
		{name: "failing statement: the backend is down and no view can answer", run: text("SELECT i_stock FROM item WHERE i_id = 9"),
			tier: trace.TierRemote, cache: trace.PlanMiss, planned: 1, executed: 1,
			store: map[string]int64{"remote": 1}, spans: "cache1.exec,optimize,execute,remote", err: resilience.ErrBackendDown},
		{name: "failing statement: no plan", run: text("SELECT nope FROM item WHERE i_id = 9"),
			setup: func() { link.down.Store(false) },
			cache: trace.PlanMiss, planned: 1, spans: "cache1.exec,optimize", err: anyError},
		{name: "failing statement: no parse", run: text("SELEC 1"), spans: "cache1.exec,parse", err: anyError},
		{name: "session-gate refusal", spans: "cache1.exec,gate", err: ErrSessionStale,
			run: func() (*Result, *trace.Record, error) {
				return cache.ExecSessionTraced("SELECT o_qty FROM orders WHERE o_id = 3", nil, 11, time.Millisecond, "")
			}},
		{name: "session gate passed, caller's trace ID",
			run: func() (*Result, *trace.Record, error) {
				return cache.ExecSessionTraced("SELECT o_qty FROM orders WHERE o_id = 3", nil, 10, time.Millisecond, "from-the-frame")
			},
			setup: func() { cache.SetOptions(shipped) },
			tier:  trace.TierIMCache, store: map[string]int64{"imcache": 1}, spans: "cache1.exec,gate,imcache_hit"},
		{name: "EXEC of a read procedure with two SELECTs (+1 backend)", run: text("EXEC twoReads @o = 6, @i = 8"),
			planned: 3, executed: 3, store: map[string]int64{"local+cv_orders": 1, "remote": 1, "local": 1},
			spans: "cache1.exec,parse"},
		{name: "forwarded DML", run: text("UPDATE orders SET o_qty = 9 WHERE o_id = 6"),
			tier: trace.TierForwarded, spans: "cache1.exec,parse"},
	} {
		if c.setup != nil {
			c.setup()
		}
		trace.Traces.Reset()
		planned0, executed0, store0 := optimize.Count(), execute.Count(), storeExecs()
		res, rec, err := c.run()
		switch {
		case c.err == nil && err != nil:
			t.Fatalf("%s: %v", c.name, err)
		case c.err != nil && (err == nil || c.err != anyError && !errors.Is(err, c.err)):
			t.Fatalf("%s: error %v, want %v", c.name, err, c.err)
		}
		if rec == nil || rec.Err != err || rec.Tier != c.tier || rec.PlanCache != c.cache {
			t.Errorf("%s: record %+v, want tier %q, plan cache %d, error %v", c.name, rec, c.tier, c.cache, err)
		}
		var kept []*trace.Record
		for _, r := range trace.Traces.Recent(0) {
			if r.Server == cache.Name {
				kept = append(kept, r)
			}
		}
		if len(kept) != 1 || kept[0] != rec || rec.ID == "" {
			t.Fatalf("%s: the ring gained %d cache statements, want the one returned", c.name, len(kept))
		}
		if res != nil && res.TraceID != rec.ID {
			t.Errorf("%s: Result.TraceID %q, the ring entry is %q", c.name, res.TraceID, rec.ID)
		}
		if got := optimize.Count() - planned0; got != c.planned {
			t.Errorf("%s: %d observations of engine.optimize_seconds, want %d", c.name, got, c.planned)
		}
		if got := execute.Count() - executed0; got != c.executed {
			t.Errorf("%s: %d observations of engine.execute_seconds, want %d", c.name, got, c.executed)
		}
		gained := storeExecs()
		for variant, n := range store0 {
			if gained[variant] -= n; gained[variant] == 0 {
				delete(gained, variant)
			}
		}
		if fmt.Sprint(gained) != fmt.Sprint(c.store) && (len(gained) != 0 || len(c.store) != 0) {
			t.Errorf("%s: the query store gained %v, want %v", c.name, gained, c.store)
		}
		var names []string
		var walk func(*trace.WireSpan)
		walk = func(w *trace.WireSpan) {
			names = append(names, w.Name)
			for _, ch := range w.Children {
				walk(ch)
			}
		}
		walk(rec.Tree())
		if got := strings.Join(names, ","); got != c.spans || rec.FindSpan("execute").AttrValue("chooseplan") != c.branch {
			t.Errorf("%s: spans %s, want %s with chooseplan=%q\n%s", c.name, got, c.spans, c.branch, trace.Render(rec))
		}
	}
	if rec := trace.Traces.Last(); rec.SQL != "UPDATE orders SET o_qty = 9 WHERE o_id = 6" || rec.FindSpan("cache1.exec").AttrValue("sql") != rec.SQL {
		t.Errorf("the root span carries the statement text: %s", trace.Render(rec))
	}
}

// TestQueryStoreTalliesPlanCacheLikeTheCounters: sys.query_stats'
// plan_cache_hits and plan_cache_misses are the same events the
// engine.plan_cache_hits and engine.plan_cache_misses counters count. A
// result-cache answer and a WITH FRESHNESS statement never ask the plan
// cache, so they are neither; the query store used to tally the first as a
// hit and the second as a miss.
func TestQueryStoreTalliesPlanCacheLikeTheCounters(t *testing.T) {
	db := imTestDB(t, nil)
	querystore.Default.Reset()
	t.Cleanup(querystore.Default.Reset)
	hits, misses := metrics.Default.Counter("engine.plan_cache_hits"), metrics.Default.Counter("engine.plan_cache_misses")
	hits0, misses0 := hits.Value(), misses.Value()
	var tiers []trace.Tier
	for _, q := range []string{
		"SELECT COUNT(*) FROM t WHERE grp = 1",                    // plan-cache miss
		"SELECT COUNT(*) FROM t WHERE grp = 2",                    // plan-cache hit
		"SELECT COUNT(*) FROM t WHERE grp = 1",                    // plan-cache hit, admitted to the result cache
		"SELECT COUNT(*) FROM t WHERE grp = 1",                    // result-cache hit
		"SELECT COUNT(*) FROM t WHERE grp = 3 WITH FRESHNESS 300", // planned per execution
	} {
		_, rec, err := db.ExecSessionTraced(q, nil, 0, 0, "")
		if err != nil {
			t.Fatal(err)
		}
		tiers = append(tiers, rec.Tier)
	}
	if want := []trace.Tier{trace.TierLocal, trace.TierLocal, trace.TierLocal, trace.TierIMCache, trace.TierLocal}; !slices.Equal(tiers, want) {
		t.Fatalf("fixture: the statements were answered by %v, want %v", tiers, want)
	}
	var storeHits, storeMisses, execs int64
	for _, shape := range querystore.Default.Snapshot() {
		storeHits, storeMisses, execs = storeHits+shape.Rollup.Hits, storeMisses+shape.Rollup.Misses, execs+shape.Rollup.Execs
	}
	if execs != 5 {
		t.Errorf("the query store recorded %d executions, want 5", execs)
	}
	if h, m := hits.Value()-hits0, misses.Value()-misses0; storeHits != h || storeMisses != m || h != 2 || m != 1 {
		t.Errorf("plan cache: the query store says %d hits and %d misses, the counters %d and %d; want 2 and 1 from both",
			storeHits, storeMisses, h, m)
	}
}

// TestTracedExchangeUnderConcurrency: the operators that add spans to a
// running statement's record do it from worker goroutines. Four clients run a
// parallel scan as traced statements at once (the pooled instances too); each
// record's tree has the exchange under execute, a span per worker, and the
// workers' rows add up to the result — and the race detector has nothing to
// say about any of it, a late span included: the tree is read the moment the
// statement returns.
func TestTracedExchangeUnderConcurrency(t *testing.T) {
	db := newParallelDB(t, 5000)
	db.SetIMCacheEnabled(false)
	const q = "SELECT id, val FROM big WHERE val >= 100.0"
	errs := make(chan error, 4)
	for c := 0; c < 4; c++ {
		go func() {
			for i := 0; i < 5; i++ {
				res, rec, err := db.ExecSessionTraced(q, nil, 0, 0, "")
				if err != nil {
					errs <- err
					return
				}
				ex := rec.FindSpan("execute").Find("exchange")
				if ex == nil || ex.AttrValue("dop") != fmt.Sprint(len(ex.Children)) || len(ex.Children) < 2 {
					errs <- fmt.Errorf("no exchange with a span per worker under execute:\n%s", trace.Render(rec))
					return
				}
				var rows int64
				for _, w := range ex.Children {
					n := int64(0)
					fmt.Sscan(w.AttrValue("rows"), &n)
					rows += n
				}
				if rows != int64(len(res.Rows)) || rows != rec.Rows {
					errs <- fmt.Errorf("workers report %d rows, the result has %d, the record %d", rows, len(res.Rows), rec.Rows)
					return
				}
			}
			errs <- nil
		}()
	}
	for c := 0; c < 4; c++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
