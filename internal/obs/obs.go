// Package obs exposes the process's observability state over HTTP:
//
//	/metrics           Prometheus text exposition of the metrics registry
//	/metrics.json      the same snapshot as JSON
//	/debug/trace/last  the server's most recent statement trace, rendered as
//	                   a text tree, with the backend's half of each remote
//	                   round trip under it (engine.Database.Stitch: read from
//	                   the backend's sys.traces, by trace ID)
//	/debug/trace/<id>  the same for each statement the server's ring keeps
//	                   under that trace ID, oldest first
//	/debug/traces      the server's trace ring, newest first, each record
//	                   as this server kept it
//	/debug/status      JSON from registered Status sources (e.g. a
//	                   server's query store — per-shape per-variant runtime
//	                   stats plus captured slow-query plans — or per-
//	                   subscription replication health)
//	/debug/events      the registry's events (repl resubscribes,
//	                   checkpoints, deadlock aborts, ...), newest first,
//	                   each under the name of the counter it bumped;
//	                   ?n=K limits the count
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
	"mtcache/internal/trace"
)

// Status is a named source of structured health state, polled at request
// time and rendered as JSON under its name at /debug/status.
type Status struct {
	Name string
	Fn   func() any
}

// Tracer is what the trace endpoints read of a server (engine.Database): its
// ring, and one of its records rendered with the backend's half of its
// remote round trips.
type Tracer interface {
	Traces() *trace.Collector
	Stitch(r *trace.Record) *trace.WireSpan
}

// Handler returns the observability mux over a registry and a server's
// traces. A nil registry selects the process-wide default; nil traces serve
// no trace endpoints (a process that runs no statements, such as a router,
// has no ring). Status sources, if any, are served at /debug/status.
func Handler(reg *metrics.Registry, traces Tracer, status ...Status) http.Handler {
	if reg == nil {
		reg = metrics.Default
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
	if traces != nil {
		mux.HandleFunc("/debug/trace/last", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			last := traces.Traces().Last()
			fmt.Fprint(w, trace.RenderTree(last, traces.Stitch(last)))
		})
		mux.HandleFunc("/debug/trace/{id}", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			id, err := trace.ParseID(r.PathValue("id"))
			kept := traces.Traces().ByID(id)
			if err != nil || len(kept) == 0 {
				w.WriteHeader(http.StatusNotFound)
				fmt.Fprintf(w, "(no trace %q kept)\n", r.PathValue("id"))
				return
			}
			for i := range kept {
				fmt.Fprint(w, trace.RenderTree(&kept[i], traces.Stitch(&kept[i])))
			}
		})
		mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			recent := traces.Traces().Recent(0)
			if len(recent) == 0 {
				fmt.Fprint(w, trace.Render(nil))
			}
			for i := range recent {
				fmt.Fprint(w, trace.Render(&recent[i]))
				fmt.Fprintln(w)
			}
		})
	}
	mux.HandleFunc("/debug/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		n := 0 // all
		if s := r.URL.Query().Get("n"); s != "" {
			if v, err := strconv.Atoi(s); err == nil {
				n = v
			}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(reg.Events(n)) //nolint:errcheck — best-effort over HTTP
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

// Serve starts the observability endpoint (Handler) on addr (e.g.
// "127.0.0.1:8344") in a background goroutine and returns the bound listener
// address. The listener is closed with the returned closer.
func Serve(addr string, reg *metrics.Registry, traces Tracer, status ...Status) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: Handler(reg, traces, status...)}
	go srv.Serve(ln) //nolint:errcheck — closed via the returned closer
	return ln.Addr().String(), srv.Close, nil
}
