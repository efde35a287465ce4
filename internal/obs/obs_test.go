package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mtcache/internal/engine"
	"mtcache/internal/metrics"
	"mtcache/internal/trace"
)

func get(t *testing.T, url string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
}

// ring serves a bare trace ring: a server with no backend, whose records
// stitch to their own trees.
type ring struct{ *trace.Collector }

func (r ring) Traces() *trace.Collector               { return r.Collector }
func (ring) Stitch(rec *trace.Record) *trace.WireSpan { return rec.Tree() }
func newRing(n int) ring                              { return ring{trace.NewCollector(n)} }

func newObsServer(t *testing.T) (*httptest.Server, *metrics.Registry, *trace.Collector) {
	t.Helper()
	reg := metrics.NewRegistry()
	traces := newRing(4)
	srv := httptest.NewServer(Handler(reg, traces))
	t.Cleanup(srv.Close)
	return srv, reg, traces.Collector
}

func TestMetricsEndpointPrometheus(t *testing.T) {
	srv, reg, _ := newObsServer(t)
	reg.Counter("opt.chooseplan_local").Add(2)
	reg.Gauge("repl.lag_seconds.cv_item").Set(0.5)
	reg.Histogram("engine.execute_seconds").Observe(0.01)

	code, body, ctype := get(t, srv.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !strings.HasPrefix(ctype, "text/plain; version=0.0.4") {
		t.Errorf("content type: %q", ctype)
	}
	for _, want := range []string{
		"# TYPE mtcache_opt_chooseplan_local counter",
		"mtcache_opt_chooseplan_local 2",
		"# TYPE mtcache_repl_lag_seconds_cv_item gauge",
		"# TYPE mtcache_engine_execute_seconds summary",
		`mtcache_engine_execute_seconds{quantile="0.5"}`,
		"mtcache_engine_execute_seconds_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
}

func TestMetricsEndpointJSON(t *testing.T) {
	srv, reg, _ := newObsServer(t)
	reg.Counter("hits").Add(3)
	reg.Histogram("lat").Observe(1.5)

	code, body, ctype := get(t, srv.URL+"/metrics.json")
	if code != http.StatusOK || ctype != "application/json" {
		t.Fatalf("status %d content-type %q", code, ctype)
	}
	var e metrics.Export
	if err := json.Unmarshal([]byte(body), &e); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, body)
	}
	if e.Counters["hits"] != 3 {
		t.Errorf("counters: %v", e.Counters)
	}
	if e.Histograms["lat"].Count != 1 || e.Histograms["lat"].Max != 1.5 {
		t.Errorf("histograms: %+v", e.Histograms)
	}
}

func TestTraceEndpoints(t *testing.T) {
	srv, _, traces := newObsServer(t)

	_, body, _ := get(t, srv.URL+"/debug/trace/last")
	if !strings.Contains(body, "(no traces recorded)") {
		t.Errorf("empty collector: %q", body)
	}

	tr := trace.BeginStatement("cache", "", 0)
	tr.Chose(trace.BranchLocal)
	tr.Mark(trace.StageExec)
	tr.Finish(nil)
	traces.Add(tr)

	_, body, _ = get(t, srv.URL+"/debug/trace/last")
	for _, want := range []string{"trace " + trace.FormatID(tr.ID), "cache.exec", "execute", `chooseplan="local"`} {
		if !strings.Contains(body, want) {
			t.Errorf("/debug/trace/last missing %q:\n%s", want, body)
		}
	}

	tr2 := trace.BeginStatement("cache", "", 0)
	tr2.Finish(nil)
	traces.Add(tr2)
	_, body, _ = get(t, srv.URL+"/debug/traces")
	id, id2 := trace.FormatID(tr.ID), trace.FormatID(tr2.ID)
	if !strings.Contains(body, id) || !strings.Contains(body, id2) {
		t.Errorf("/debug/traces should list both traces:\n%s", body)
	}
	if strings.Index(body, id2) > strings.Index(body, id) {
		t.Error("/debug/traces must be newest-first")
	}
}

// TestTraceEndpointsStitchTheBackendsHalf: a cache's /debug/trace/last and
// /debug/trace/<id> show a statement that went to the backend with the
// backend's record of the round trip under the remote span, read from the
// backend by the statement's trace ID; /debug/traces lists the cache's
// records as it kept them. An ID the ring does not keep, or text that is no
// trace ID, is not found.
func TestTraceEndpointsStitchTheBackendsHalf(t *testing.T) {
	backend := engine.New(engine.Config{Name: "backend", Role: engine.Backend})
	cache := engine.New(engine.Config{Name: "cache1", Role: engine.Cache, Remote: engine.NewLink(backend)})
	const ddl = "CREATE TABLE part (id INT PRIMARY KEY, name VARCHAR(20))"
	for _, db := range []*engine.Database{backend, cache} {
		if _, err := db.Exec(ddl, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := backend.Exec("INSERT INTO part (id, name) VALUES (1, 'bolt')", nil); err != nil {
		t.Fatal(err)
	}
	res, err := cache.Exec("SELECT name FROM part WHERE id = 1", nil)
	if err != nil || res.Counters.RemoteQueries != 1 {
		t.Fatalf("fixture: %+v, %v; want one remote query", res, err)
	}
	srv := httptest.NewServer(Handler(metrics.NewRegistry(), cache))
	t.Cleanup(srv.Close)
	id := trace.FormatID(res.TraceID)
	for _, path := range []string{"/debug/trace/last", "/debug/trace/" + id} {
		code, body, _ := get(t, srv.URL+path)
		if code != http.StatusOK || strings.Count(body, "trace "+id) != 1 || !strings.Contains(body, "\n    remote") ||
			!strings.Contains(body, "\n      backend.exec") || strings.Contains(body, "missing") {
			t.Errorf("%s: %d\n%s\nwant the cache's record with the backend's under its remote span", path, code, body)
		}
	}
	if _, body, _ := get(t, srv.URL+"/debug/traces"); !strings.Contains(body, "cache1.exec") || strings.Contains(body, "backend.exec") {
		t.Errorf("/debug/traces lists the cache's records as kept:\n%s", body)
	}
	for _, path := range []string{"/debug/trace/" + trace.FormatID(res.TraceID+1), "/debug/trace/nonsense"} {
		if code, body, _ := get(t, srv.URL+path); code != http.StatusNotFound {
			t.Errorf("%s: %d %q, want 404", path, code, body)
		}
	}
}

// TestNoRingNoTraceEndpoints: a process with no trace ring of its own (a
// router) serves no trace endpoints; there is no process-wide ring to fall
// back on.
func TestNoRingNoTraceEndpoints(t *testing.T) {
	srv := httptest.NewServer(Handler(metrics.NewRegistry(), nil))
	t.Cleanup(srv.Close)
	for _, path := range []string{"/debug/trace/last", "/debug/trace/0123456789ab-0001", "/debug/traces"} {
		if code, body, _ := get(t, srv.URL+path); code != http.StatusNotFound {
			t.Errorf("%s without a ring: %d %q, want 404", path, code, body)
		}
	}
	if code, _, _ := get(t, srv.URL+"/metrics"); code != http.StatusOK {
		t.Errorf("/metrics without a ring: %d", code)
	}
}

// TestEventsAndQuerystoreEndpoints: /debug/events serves the events of the
// handler's registry newest first, and none of another registry's; a
// server's query store is one more Status source: its shapes are
// a list under /debug/status, where both server binaries register their
// Database's. There is no endpoint of its own.
func TestEventsAndQuerystoreEndpoints(t *testing.T) {
	db := engine.New(engine.Config{Name: "obs", Role: engine.Backend})
	if _, err := db.Exec("SELECT 1", nil); err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	srv := httptest.NewServer(Handler(reg, newRing(4),
		Status{Name: "querystore", Fn: func() any { return db.QueryStore() }}))
	t.Cleanup(srv.Close)

	code, body, _ := get(t, srv.URL+"/debug/events")
	if code != http.StatusOK || strings.TrimSpace(body) != "[]" {
		t.Fatalf("no events yet: %d %q, want an empty JSON list", code, body)
	}
	reg.Event("storage.checkpoints", "lsn", "42")
	metrics.NewRegistry().Event("wire.retries", "addr", "elsewhere")
	reg.Event("storage.gc_runs", "versions", "7")
	code, body, ctype := get(t, srv.URL+"/debug/events")
	if code != http.StatusOK || ctype != "application/json" {
		t.Fatalf("status %d content-type %q", code, ctype)
	}
	var events []metrics.Event
	if err := json.Unmarshal([]byte(body), &events); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, body)
	}
	if len(events) != 2 || events[0].Kind != "storage.gc_runs" || events[1].Kind != "storage.checkpoints" {
		t.Fatalf("want the handler's registry's two events, newest first, and no other: %+v", events)
	}
	if events[0].Seq != 2 || events[1].Detail() != "lsn=42" {
		t.Fatalf("seq or fields lost on the way: %+v", events)
	}
	_, body, _ = get(t, srv.URL+"/debug/events?n=1")
	if err := json.Unmarshal([]byte(body), &events); err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Kind != "storage.gc_runs" {
		t.Fatalf("?n=1 should return the newest event: %+v", events)
	}

	code, body, _ = get(t, srv.URL+"/debug/status")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var out struct {
		QueryStore []engine.ShapeSnapshot `json:"querystore"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, body)
	}
	if len(out.QueryStore) != 1 || out.QueryStore[0].Shape != "SELECT @__p0" || out.QueryStore[0].Rollup.Execs != 1 {
		t.Fatalf("querystore: %+v", out.QueryStore)
	}
	if code, _, _ := get(t, srv.URL+"/debug/querystore"); code != http.StatusNotFound {
		t.Fatalf("/debug/querystore answered %d; the query store is a /debug/status source", code)
	}
}

func TestServeBindsAndCloses(t *testing.T) {
	addr, closeFn, err := Serve("127.0.0.1:0", metrics.NewRegistry(), newRing(1))
	if err != nil {
		t.Fatal(err)
	}
	code, _, _ := get(t, "http://"+addr+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if err := closeFn(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Error("endpoint should refuse connections after close")
	}
}
