package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mtcache/internal/metrics"
	"mtcache/internal/querystore"
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

func newObsServer(t *testing.T) (*httptest.Server, *metrics.Registry, *trace.Collector) {
	t.Helper()
	reg := metrics.NewRegistry()
	traces := trace.NewCollector(4)
	srv := httptest.NewServer(Handler(reg, traces))
	t.Cleanup(srv.Close)
	return srv, reg, traces
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

	tr := trace.BeginStatement("cache", "", "")
	tr.Annotate(nil, "chooseplan", "local")
	tr.Mark(trace.StageExec)
	tr.Finish(nil)
	traces.Add(tr)

	_, body, _ = get(t, srv.URL+"/debug/trace/last")
	for _, want := range []string{"trace " + tr.ID, "cache.exec", "execute", `chooseplan="local"`} {
		if !strings.Contains(body, want) {
			t.Errorf("/debug/trace/last missing %q:\n%s", want, body)
		}
	}

	tr2 := trace.BeginStatement("cache", "", "")
	tr2.Finish(nil)
	traces.Add(tr2)
	_, body, _ = get(t, srv.URL+"/debug/traces")
	if !strings.Contains(body, tr.ID) || !strings.Contains(body, tr2.ID) {
		t.Errorf("/debug/traces should list both traces:\n%s", body)
	}
	if strings.Index(body, tr2.ID) > strings.Index(body, tr.ID) {
		t.Error("/debug/traces must be newest-first")
	}
}

func TestEventsAndQuerystoreEndpoints(t *testing.T) {
	srv, _, _ := newObsServer(t)
	querystore.Events.Reset()
	querystore.Default.Reset()
	t.Cleanup(func() {
		querystore.Events.Reset()
		querystore.Default.Reset()
	})

	code, body, ctype := get(t, srv.URL+"/debug/events")
	if code != http.StatusOK || ctype != "application/json" {
		t.Fatalf("status %d content-type %q", code, ctype)
	}
	var events []querystore.Event
	if err := json.Unmarshal([]byte(body), &events); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, body)
	}
	if len(events) != 0 {
		t.Fatalf("expected empty ring, got %d events", len(events))
	}

	querystore.Emit("checkpoint", "lsn", "42")
	querystore.Emit("gc_run", "versions", "7")
	_, body, _ = get(t, srv.URL+"/debug/events?n=1")
	if err := json.Unmarshal([]byte(body), &events); err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Kind != "gc_run" {
		t.Fatalf("?n=1 should return the newest event: %+v", events)
	}

	querystore.Default.Record(&trace.Record{Shape: "SELECT 1", Variant: "local", Rows: 1})
	code, body, _ = get(t, srv.URL+"/debug/querystore")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var out struct {
		Enabled         bool                       `json:"enabled"`
		SlowThresholdMs float64                    `json:"slow_threshold_ms"`
		Shapes          []querystore.ShapeSnapshot `json:"shapes"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, body)
	}
	if !out.Enabled || out.SlowThresholdMs <= 0 {
		t.Fatalf("enabled=%v slow_threshold_ms=%v", out.Enabled, out.SlowThresholdMs)
	}
	if len(out.Shapes) != 1 || out.Shapes[0].Shape != "SELECT 1" {
		t.Fatalf("shapes: %+v", out.Shapes)
	}
}

func TestServeBindsAndCloses(t *testing.T) {
	addr, closeFn, err := Serve("127.0.0.1:0", metrics.NewRegistry(), trace.NewCollector(1))
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
