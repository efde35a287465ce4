package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// HistogramStats is the exportable summary of one histogram.
type HistogramStats struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// Export is a point-in-time snapshot of every instrument, suitable for JSON
// serialization (the obs endpoint serves one at /metrics.json).
type Export struct {
	Counters   map[string]int64          `json:"counters"`
	Gauges     map[string]float64        `json:"gauges"`
	Histograms map[string]HistogramStats `json:"histograms"`
}

// Export snapshots the registry.
func (r *Registry) Export() Export {
	e := Export{
		Counters:   r.Snapshot(),
		Gauges:     r.GaugeSnapshot(),
		Histograms: make(map[string]HistogramStats),
	}
	for n, h := range r.histogramsCopy() {
		e.Histograms[n] = HistogramStats{
			Count: h.Count(),
			Mean:  h.Mean(),
			Min:   h.Min(),
			Max:   h.Max(),
			P50:   h.Quantile(0.5),
			P90:   h.Quantile(0.9),
			P99:   h.Quantile(0.99),
		}
	}
	return e
}

// WriteJSON writes the registry snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Export())
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4). Instrument names are prefixed with "mtcache_" and
// sanitized (dots and dashes become underscores); histograms are rendered as
// summaries with quantile labels plus _sum and _count series.
func WritePrometheus(w io.Writer, r *Registry) {
	snap := r.Snapshot()
	for _, n := range sortedKeys(snap) {
		name := promName(n)
		fmt.Fprintf(w, "# TYPE %s counter\n", name)
		fmt.Fprintf(w, "%s %d\n", name, snap[n])
	}
	gsnap := r.GaugeSnapshot()
	for _, n := range sortedKeys(gsnap) {
		name := promName(n)
		fmt.Fprintf(w, "# TYPE %s gauge\n", name)
		fmt.Fprintf(w, "%s %g\n", name, gsnap[n])
	}
	hists := r.histogramsCopy()
	for _, n := range sortedKeys(hists) {
		h := hists[n]
		name := promName(n)
		fmt.Fprintf(w, "# TYPE %s summary\n", name)
		for _, q := range []float64{0.5, 0.9, 0.99} {
			fmt.Fprintf(w, "%s{quantile=%q} %g\n", name, fmt.Sprintf("%g", q), h.Quantile(q))
		}
		fmt.Fprintf(w, "%s_sum %g\n", name, h.Mean()*float64(h.Count()))
		fmt.Fprintf(w, "%s_count %d\n", name, h.Count())
	}
}

// promName maps a registry instrument name to a valid Prometheus metric name.
func promName(n string) string {
	var b strings.Builder
	b.WriteString("mtcache_")
	for _, r := range n {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}
