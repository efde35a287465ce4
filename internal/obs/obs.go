// Package obs exposes the process's observability state over HTTP:
//
//	/metrics           Prometheus text exposition of the metrics registry
//	/metrics.json      the same snapshot as JSON
//	/debug/trace/last  the most recent query trace, rendered as a text tree
//	/debug/traces      the recent-trace ring, newest first
//	/debug/status      JSON from registered Status sources (e.g. per-
//	                   subscription replication health: queue depth, apply
//	                   errors, staleness)
//	/debug/events      the structured event ring (repl resubscribes,
//	                   checkpoints, deadlock aborts, ...), newest first;
//	                   ?n=K limits the count
//	/debug/querystore  the query store: per-shape per-variant runtime stats
//	                   plus captured slow-query plans, as JSON
//
// Both server binaries mount it; tests hit it through httptest.
package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"

	"mtcache/internal/metrics"
	"mtcache/internal/querystore"
	"mtcache/internal/trace"
)

// Status is a named source of structured health state, polled at request
// time and rendered as JSON under its name at /debug/status.
type Status struct {
	Name string
	Fn   func() any
}

// Handler returns the observability mux over a registry and a trace
// collector. nil arguments select the process-wide defaults. Status sources,
// if any, are served at /debug/status.
func Handler(reg *metrics.Registry, traces *trace.Collector, status ...Status) http.Handler {
	if reg == nil {
		reg = metrics.Default
	}
	if traces == nil {
		traces = trace.Traces
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		metrics.WritePrometheus(w, reg)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		reg.WriteJSON(w) //nolint:errcheck — best-effort over HTTP
	})
	mux.HandleFunc("/debug/trace/last", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, trace.Render(traces.Last()))
	})
	mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		recent := traces.Recent(0)
		if len(recent) == 0 {
			fmt.Fprint(w, trace.Render(nil))
		}
		for _, t := range recent {
			fmt.Fprint(w, trace.Render(t))
			fmt.Fprintln(w)
		}
	})
	mux.HandleFunc("/debug/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		n := 0 // all
		if s := r.URL.Query().Get("n"); s != "" {
			if v, err := strconv.Atoi(s); err == nil {
				n = v
			}
		}
		events := querystore.Events.Recent(n)
		if events == nil {
			events = []querystore.Event{}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(events) //nolint:errcheck — best-effort over HTTP
	})
	mux.HandleFunc("/debug/querystore", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		shapes := querystore.Default.Snapshot()
		if shapes == nil {
			shapes = []querystore.ShapeSnapshot{}
		}
		out := map[string]any{
			"enabled":           querystore.Default.Enabled(),
			"slow_threshold_ms": float64(querystore.Default.SlowThreshold().Microseconds()) / 1000,
			"shapes":            shapes,
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(out) //nolint:errcheck — best-effort over HTTP
	})
	mux.HandleFunc("/debug/status", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		out := make(map[string]any, len(status))
		for _, s := range status {
			out[s.Name] = s.Fn()
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(out) //nolint:errcheck — best-effort over HTTP
	})
	return mux
}

// Serve starts the observability endpoint on addr (e.g. "127.0.0.1:8344")
// in a background goroutine and returns the bound listener address. The
// listener is closed with the returned closer.
func Serve(addr string, reg *metrics.Registry, traces *trace.Collector, status ...Status) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: Handler(reg, traces, status...)}
	go srv.Serve(ln) //nolint:errcheck — closed via the returned closer
	return ln.Addr().String(), srv.Close, nil
}
