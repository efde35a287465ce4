package wire

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"mtcache/internal/engine"
	"mtcache/internal/exec"
	"mtcache/internal/metrics"
	"mtcache/internal/resilience"
	"mtcache/internal/trace"
	"mtcache/internal/types"
)

// spanNames lists a tree's span names, depth first.
func spanNames(w *trace.WireSpan) string {
	var names []string
	var walk func(*trace.WireSpan)
	walk = func(w *trace.WireSpan) {
		names = append(names, w.Name)
		for _, c := range w.Children {
			walk(c)
		}
	}
	walk(w)
	return strings.Join(names, ",")
}

// keptUnder returns the one record db's ring keeps under the rendered trace
// ID id, failing the test unless there is exactly one.
func keptUnder(t *testing.T, db *engine.Database, id string) *trace.Record {
	t.Helper()
	n, err := trace.ParseID(id)
	if err != nil {
		t.Fatal(err)
	}
	kept := db.Traces().ByID(n)
	if len(kept) != 1 {
		t.Fatalf("%s keeps %d records under %s, want 1", db.Name, len(kept), id)
	}
	return &kept[0]
}

// QueryTraced ships the trace ID in the request frame, and nothing of the
// trace comes back: the backend keeps its record of the query under the
// caller's ID, with the stages it went through.
func TestWireQueryTraced(t *testing.T) {
	b, srv := newWiredBackend(t)
	c := dial(t, srv)

	const id = "0123456789ab-0123"
	rs, w, err := c.QueryTraced("SELECT name FROM part WHERE id = @id",
		exec.Params{"id": types.NewInt(7)}, id)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 {
		t.Fatalf("rows: %d", len(rs.Rows))
	}
	if w != nil {
		t.Errorf("a span came back with the rows: %+v", w)
	}
	// No "parse" child: the auto-parameterization front door serves SELECT
	// text from its shape cache, so parsing happens at most once per shape
	// (and never inside the per-execution trace).
	back := keptUnder(t, b.DB, id)
	if got := spanNames(back.Tree()); got != "backend.exec,optimize,execute" {
		t.Errorf("the backend's record of the traced query: %s, want backend.exec,optimize,execute", got)
	}
}

// A query through a remote cache reaches the backend under the cache's trace
// ID, and the cache's stitched view of it (the reader's view: \trace,
// /debug/trace/last) has the backend's record, read back over TCP from the
// backend's sys.traces, under the cache-side remote span — the stages the
// in-process link's stitched view shows (TestStatementReportedOnce).
func TestWireTraceStitchedAcrossLink(t *testing.T) {
	b, srv := newWiredBackend(t)
	backendDB := b.DB
	c := dial(t, srv)
	rc, err := NewRemoteCache("tcpcache", c, nil)
	if err != nil {
		t.Fatal(err)
	}

	res, err := rc.DB.Exec("SELECT name FROM part WHERE id = 500", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.RemoteQueries != 1 {
		t.Fatalf("expected a remote round-trip: %+v", res.Counters)
	}
	tr, tree := rc.DB.LastTrace()
	if tr == nil || tr.ID != res.TraceID {
		t.Fatalf("last trace does not match result trace ID %x", res.TraceID)
	}
	if got, want := spanNames(tree), "tcpcache.exec,optimize,execute,remote,backend.exec,optimize,execute"; got != want {
		t.Errorf("stitched spans %s, want %s\n%s", got, want, trace.RenderTree(tr, tree))
	}
	if spanNames(tr.Tree()) != "tcpcache.exec,optimize,execute,remote" {
		t.Errorf("the cache's own record holds more than its own spans:\n%s", trace.Render(tr))
	}
	// The backend ran its half under the cache's trace ID: its record of it
	// is the one the stitched view shows.
	back := keptUnder(t, backendDB, trace.FormatID(tr.ID))
	if got := tree.Find("backend.exec"); !reflect.DeepEqual(got, back.Tree()) {
		t.Errorf("the stitched view's backend.exec is not the backend's record:\n%s\nwant\n%s", trace.RenderTree(tr, tree), trace.Render(back))
	}
}

// The resilient client passes a traced query's ID through its retry loop:
// the backend keeps its record under it, and no span comes back.
func TestResilientQueryTraced(t *testing.T) {
	b, srv := newWiredBackend(t)
	r, err := DialResilient(srv.Addr(), resilience.Policy{
		MaxAttempts: 2, RequestTimeout: time.Second,
		BaseDelay: time.Millisecond, MaxDelay: time.Millisecond, Multiplier: 1,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	const id = "0123456789ab-4567"
	rs, w, err := r.QueryTraced("SELECT COUNT(*) FROM part", nil, id)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 || rs.Rows[0][0].Int() != 1000 || w != nil {
		t.Fatalf("rows: %v, span %+v", rs.Rows, w)
	}
	if back := keptUnder(t, b.DB, id); back.SQL != "SELECT COUNT(*) FROM part" || back.Server != "backend" {
		t.Errorf("the backend's record under %s: %s.exec %q", id, back.Server, back.SQL)
	}
}

// A trace ID travels as the number trace.FormatID renders: text it could not
// have produced is refused, unsent, with an error naming it, by the client and
// through the resilient client's retry loop.
func TestUnparseableTraceIDRefused(t *testing.T) {
	_, srv := newWiredBackend(t)
	r, err := DialResilient(srv.Addr(), resilience.Policy{
		MaxAttempts: 2, RequestTimeout: time.Second,
		BaseDelay: time.Millisecond, MaxDelay: time.Millisecond, Multiplier: 1,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for name, q := range map[string]func(string, exec.Params, string) (*exec.ResultSet, *trace.WireSpan, error){
		"client": dial(t, srv).QueryTraced, "resilient": r.QueryTraced,
	} {
		if rs, _, err := q("SELECT COUNT(*) FROM part", nil, "trace-xyz"); err == nil || rs != nil || !strings.Contains(err.Error(), "trace-xyz") {
			t.Errorf("%s: %v, %v; want an error naming the ID", name, rs, err)
		}
	}
}

// Pulling publishes the cache's one replication-lag gauge.
func TestPullPublishesLagGauge(t *testing.T) {
	_, srv := newWiredBackend(t)
	c := dial(t, srv)
	rc, err := NewRemoteCache("tcpcache", c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := rc.CreateCachedView("CREATE CACHED VIEW lagview AS SELECT id, name FROM part WHERE id <= 10"); err != nil {
		t.Fatal(err)
	}
	lag := metrics.Default.Gauge("repl.lag_seconds")
	lag.Set(-1) // the gauge is the process's: anything else may have set it
	if _, err := rc.Pull(); err != nil {
		t.Fatal(err)
	}
	if _, err := rc.Pull(); err != nil { // second round: lastPull is now set
		t.Fatal(err)
	}
	if v := lag.Value(); v < 0 || v > 5 {
		t.Errorf("repl.lag_seconds = %v after two pulls", v)
	}
	if metrics.Default.Histogram("repl.pull_seconds").Count() == 0 {
		t.Error("pull latency histogram empty")
	}
}

// TestTracedRequestPassesSessionGate: a trace id does not exempt a request
// from the session gate. A frame carrying both a trace id and a watermark the
// cache has not applied is answered Stale with no rows — the traced path used
// to skip the gate and read through the lagging cache — and one the cache has
// applied is answered with rows. The cache keeps
// both statements under their callers' IDs: the refused one with its gate
// and nothing else.
func TestTracedRequestPassesSessionGate(t *testing.T) {
	_, srv := newWiredBackend(t)
	rc, err := NewRemoteCache("gated", dial(t, srv), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := rc.CreateCachedView("CREATE CACHED VIEW tires AS SELECT id, name, qty FROM part WHERE type = 'Tire'"); err != nil {
		t.Fatal(err)
	}
	csrv, err := ServeCache(rc, "127.0.0.1:0", ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer csrv.Close()
	c := dial(t, csrv)

	applied := rc.AppliedLSN()
	const q = "SELECT name FROM part WHERE type = 'Tire' AND id = 4"
	var resp response
	if err := c.roundTrip(&request{Kind: reqQuery, SQL: q, TraceID: 0x0123456789ab0002, MinLSN: applied + 1000, WaitMs: 20}, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Stale || len(resp.Rows) != 0 {
		t.Errorf("watermark ahead of the cache: stale=%v rows=%v; want Stale and nothing else", resp.Stale, resp.Rows)
	}
	if got := spanNames(keptUnder(t, rc.DB, "0123456789ab-0002").Tree()); got != "gated.exec,gate" {
		t.Errorf("the cache's record of the refused request: %s, want gated.exec,gate", got)
	}

	if err := c.roundTrip(&request{Kind: reqQuery, SQL: q, TraceID: 0x0123456789ab0003, MinLSN: applied, WaitMs: 20}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Stale || len(resp.Rows) != 1 || resp.Rows[0][0].Str() != "part4" {
		t.Errorf("watermark the cache has applied: stale=%v rows=%v", resp.Stale, resp.Rows)
	}
	if got := spanNames(keptUnder(t, rc.DB, "0123456789ab-0003").Tree()); !strings.HasPrefix(got, "gated.exec,gate,") {
		t.Errorf("the cache's record of the served request: %s, want gated.exec,gate and the rest", got)
	}
}
