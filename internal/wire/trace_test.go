package wire

import (
	"strings"
	"testing"
	"time"

	"mtcache/internal/exec"
	"mtcache/internal/metrics"
	"mtcache/internal/resilience"
	"mtcache/internal/trace"
	"mtcache/internal/types"
)

// QueryTraced ships the trace ID in the request frame and returns the
// backend's span tree alongside the rows.
func TestWireQueryTraced(t *testing.T) {
	_, srv := newWiredBackend(t)
	c := dial(t, srv)

	rs, w, err := c.QueryTraced("SELECT name FROM part WHERE id = @id",
		exec.Params{"id": types.NewInt(7)}, "trace-123")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 {
		t.Fatalf("rows: %d", len(rs.Rows))
	}
	if w == nil {
		t.Fatal("no span returned for a traced query")
	}
	if w.Name != "backend.exec" {
		t.Errorf("backend span name: %q", w.Name)
	}
	var names []string
	for _, ch := range w.Children {
		names = append(names, ch.Name)
	}
	// No "parse" child: the auto-parameterization front door serves SELECT
	// text from its shape cache, so parsing happens at most once per shape
	// (and never inside the per-execution trace).
	joined := strings.Join(names, ",")
	for _, want := range []string{"optimize", "execute"} {
		if !strings.Contains(joined, want) {
			t.Errorf("backend span children missing %q: %v", want, names)
		}
	}
}

// A query through a remote cache stitches the backend's spans (shipped over
// TCP in the response frame) under the cache-side remote span.
func TestWireTraceStitchedAcrossLink(t *testing.T) {
	_, srv := newWiredBackend(t)
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
	tr := trace.Traces.Last()
	if tr == nil || tr.ID != res.TraceID {
		t.Fatalf("last trace does not match result trace ID %q", res.TraceID)
	}
	for _, name := range []string{"remote", "backend.exec"} {
		if tr.FindSpan(name) == nil {
			t.Fatalf("trace missing span %q:\n%s", name, trace.Render(tr))
		}
	}
	// The backend ran its half under the cache's trace ID — its own record,
	// kept just before the cache's, carries it — and its spans came back in
	// the response frame: one tree.
	if back := trace.Traces.Recent(2)[1]; back.Server != "backend" || back.ID != tr.ID {
		t.Errorf("backend record %s.exec has trace ID %q, want %q", back.Server, back.ID, tr.ID)
	}
	text := trace.Render(tr)
	for _, want := range []string{"tcpcache.exec", "backend.exec", "remote"} {
		if !strings.Contains(text, want) {
			t.Errorf("rendered trace missing %q:\n%s", want, text)
		}
	}
}

// The resilient client passes traced queries through its retry loop.
func TestResilientQueryTraced(t *testing.T) {
	_, srv := newWiredBackend(t)
	r, err := DialResilient(srv.Addr(), resilience.Policy{
		MaxAttempts: 2, RequestTimeout: time.Second,
		BaseDelay: time.Millisecond, MaxDelay: time.Millisecond, Multiplier: 1,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rs, w, err := r.QueryTraced("SELECT COUNT(*) FROM part", nil, "trace-xyz")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 || rs.Rows[0][0].Int() != 1000 {
		t.Fatalf("rows: %v", rs.Rows)
	}
	if w == nil || w.Name != "backend.exec" {
		t.Fatalf("resilient traced span: %+v", w)
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
// applied is answered with rows, the span tree and the applied position.
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
	if err := c.roundTrip(&request{Kind: reqQuery, SQL: q, TraceID: "t-gate", MinLSN: applied + 1000, WaitMs: 20}, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Stale || len(resp.Rows) != 0 || resp.Span != nil {
		t.Errorf("watermark ahead of the cache: stale=%v rows=%v span=%v; want Stale and nothing else", resp.Stale, resp.Rows, resp.Span)
	}
	if resp.Applied < applied || resp.Applied >= applied+1000 {
		t.Errorf("stale answer reports Applied=%d, cache is at %d", resp.Applied, applied)
	}

	if err := c.roundTrip(&request{Kind: reqQuery, SQL: q, TraceID: "t-gate", MinLSN: applied, WaitMs: 20}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Stale || len(resp.Rows) != 1 || resp.Rows[0][0].Str() != "part4" {
		t.Errorf("watermark the cache has applied: stale=%v rows=%v", resp.Stale, resp.Rows)
	}
	if resp.Span == nil || resp.Span.Name != "gated.exec" {
		t.Errorf("traced answer carries no span tree: %+v", resp.Span)
	}
	if resp.Applied < applied {
		t.Errorf("traced answer reports Applied=%d, cache is at %d", resp.Applied, applied)
	}
}
