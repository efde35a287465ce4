// Package metrics provides the counters, gauges, histograms and events shared
// by the replication pipeline, the capacity simulator and the benchmark
// harness.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// Counter is a thread-safe monotonic counter.
type Counter struct {
	mu sync.Mutex
	n  int64
}

// Add increments the counter.
func (c *Counter) Add(delta int64) {
	c.mu.Lock()
	c.n += delta
	c.mu.Unlock()
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// Histogram records observations and reports mean and percentiles.
// It keeps raw samples (bounded by maxSamples with reservoir-free
// downsampling: once full, every other sample is dropped and the stride
// doubles — adequate for benchmark-scale data volumes).
type Histogram struct {
	mu         sync.Mutex
	samples    []float64
	stride     int
	seen       int64
	sum        float64
	count      int64
	min, max   float64
	maxSamples int
}

// NewHistogram returns a histogram retaining up to maxSamples samples
// (default 4096 when maxSamples <= 0).
func NewHistogram(maxSamples int) *Histogram {
	if maxSamples <= 0 {
		maxSamples = 4096
	}
	return &Histogram{stride: 1, maxSamples: maxSamples, min: math.MaxFloat64, max: -math.MaxFloat64}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.sum += v
	h.count++
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.seen++
	if int(h.seen)%h.stride != 0 {
		return
	}
	if len(h.samples) >= h.maxSamples {
		// Drop every other retained sample and double the stride.
		kept := h.samples[:0]
		for i := 0; i < len(h.samples); i += 2 {
			kept = append(kept, h.samples[i])
		}
		h.samples = kept
		h.stride *= 2
	}
	h.samples = append(h.samples, v)
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Merge folds every observation recorded by o into h: count, sum, min and
// max are combined exactly, and retained samples are concatenated (then
// re-downsampled if the result exceeds h's cap) so nearest-rank quantiles of
// the merge match quantiles over the union of the two retained sample sets.
// o is left unchanged. The two locks are never held together, so concurrent
// Merge calls in either direction cannot deadlock.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o == h {
		return
	}
	o.mu.Lock()
	samples := append([]float64(nil), o.samples...)
	sum, count, seen := o.sum, o.count, o.seen
	lo, hi := o.min, o.max
	o.mu.Unlock()
	if count == 0 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.maxSamples <= 0 {
		h.maxSamples = 4096
	}
	if h.stride <= 0 {
		h.stride = 1
	}
	if h.count == 0 {
		h.min, h.max = math.MaxFloat64, -math.MaxFloat64
	}
	h.sum += sum
	h.count += count
	h.seen += seen
	if lo < h.min {
		h.min = lo
	}
	if hi > h.max {
		h.max = hi
	}
	h.samples = append(h.samples, samples...)
	for len(h.samples) > h.maxSamples {
		kept := h.samples[:0]
		for i := 0; i < len(h.samples); i += 2 {
			kept = append(kept, h.samples[i])
		}
		h.samples = kept
		h.stride *= 2
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Mean returns the average observation (0 when empty).
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Quantile returns the q-quantile from retained samples using the
// nearest-rank definition: the smallest retained sample such that at least
// q·n samples are ≤ it. q is clamped to [0, 1]; truncating int(q*(n-1))
// would under-report high percentiles on small sample sets (e.g. p99 of 10
// samples must be the maximum, not the 9th value).
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	s := append([]float64(nil), h.samples...)
	sort.Float64s(s)
	// The epsilon guards the nearest-rank computation against binary float
	// round-up: q values like 9/14 times certain n land a hair above the
	// exact integer product, and a bare Ceil would then over-report the rank
	// by one. Any epsilon far above the float error (~1e-13 at these
	// magnitudes) and far below the smallest meaningful rank fraction works.
	idx := int(math.Ceil(q*float64(len(s))-1e-9)) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// Min returns the smallest observation (0 when empty).
func (h *Histogram) Min() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.max
}

// String summarizes the histogram.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%.4f p50=%.4f p90=%.4f max=%.4f",
		h.Count(), h.Mean(), h.Quantile(0.5), h.Quantile(0.9), h.Max())
}

// Registry is a named-instrument registry: counters, gauges and histograms,
// created on first use, and the ring of its most recent events. The wire
// layer, engine, optimizer and replication pipeline use it to publish
// observability data without threading instrument structs through every
// constructor.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram

	events []Event // ring of the last eventRing events, written at next
	next   int
	seq    int64 // events recorded since the last Reset
}

// eventRing is how many events a registry keeps.
const eventRing = 1024

// Event is one discrete occurrence worth a DBA's attention: a repl
// resubscribe, a group-commit wedge, a checkpoint, a GC run, a plan
// eviction, a deadlock abort, retry exhaustion. Its kind is the counter it
// bumped; its fields say which one.
type Event struct {
	Seq    int64     `json:"seq"`
	Time   time.Time `json:"time"`
	Kind   string    `json:"kind"`
	Fields []Field   `json:"fields,omitempty"`
}

// Field is one key/value pair attached to an event. A slice (not a map)
// keeps emission allocation-light and the rendering order stable.
type Field struct {
	K string `json:"k"`
	V string `json:"v"`
}

// Detail renders the fields as "k=v k=v" for one-line display
// (sys.events, the shell, text debug endpoints).
func (e Event) Detail() string {
	var b strings.Builder
	for i, f := range e.Fields {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(f.K)
		b.WriteByte('=')
		b.WriteString(f.V)
	}
	return b.String()
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Default is the process-wide registry. Well-known names:
//
//	wire.retries            requests reissued after a transport failure
//	wire.reconnects         re-dials after a broken connection
//	wire.dial_failures      failed connection attempts
//	wire.timeouts           requests that exceeded their deadline
//	wire.backend_down       requests that exhausted every attempt
//	wire.pull_failures      pull rounds that failed for a subscription
//	wire.pull_redelivered   pulled batches skipped as already applied
//	wire.inflight           gauge: client requests awaiting a response
//	wire.server_inflight    gauge: requests being handled by the server
//	wire.pool_open          gauge: open pooled connections
//	wire.pool_wait_seconds  histogram: time to produce a pooled connection
//	engine.degraded_stale   queries answered from local stale data after a
//	                        backend failure
var Default = NewRegistry()

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counterLocked(name)
}

func (r *Registry) counterLocked(name string) *Counter {
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Event adds 1 to counter name and keeps the occurrence, with its fields, in
// the registry's ring of recent events. kv is alternating key, value
// strings; a trailing odd key is kept with an empty value rather than
// dropped.
func (r *Registry) Event(name string, kv ...string) {
	e := Event{Time: time.Now(), Kind: name}
	if len(kv) > 0 {
		e.Fields = make([]Field, 0, (len(kv)+1)/2)
		for i := 0; i < len(kv); i += 2 {
			f := Field{K: kv[i]}
			if i+1 < len(kv) {
				f.V = kv[i+1]
			}
			e.Fields = append(e.Fields, f)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counterLocked(name).Add(1)
	r.seq++
	e.Seq = r.seq
	if len(r.events) < eventRing {
		r.events = append(r.events, e)
	} else {
		r.events[r.next] = e
	}
	r.next = (r.next + 1) % eventRing
}

// Events returns up to n of the kept events, newest first (all of them when
// n <= 0).
func (r *Registry) Events(n int) []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	total := len(r.events)
	if n <= 0 || n > total {
		n = total
	}
	out := make([]Event, n)
	for i := range out {
		// next-1 is the most recently written slot.
		out[i] = r.events[(r.next-1-i+total)%total]
	}
	return out
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram (default sample retention),
// creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = NewHistogram(0)
		r.histograms[name] = h
	}
	return h
}

// Reset drops every registered instrument and every kept event. Tests that
// assert on Default use it so state does not leak between test cases.
// Instrument pointers obtained before the reset keep working but are no
// longer published.
func (r *Registry) Reset() {
	r.mu.Lock()
	r.counters = make(map[string]*Counter)
	r.gauges = make(map[string]*Gauge)
	r.histograms = make(map[string]*Histogram)
	r.events, r.next, r.seq = nil, 0, 0
	r.mu.Unlock()
}

// Snapshot returns the current value of every counter.
func (r *Registry) Snapshot() map[string]int64 {
	r.mu.Lock()
	names := make([]string, 0, len(r.counters))
	counters := make([]*Counter, 0, len(r.counters))
	for n, c := range r.counters {
		names = append(names, n)
		counters = append(counters, c)
	}
	r.mu.Unlock()
	out := make(map[string]int64, len(names))
	for i, n := range names {
		out[n] = counters[i].Value()
	}
	return out
}

// GaugeSnapshot returns the current value of every gauge.
func (r *Registry) GaugeSnapshot() map[string]float64 {
	r.mu.Lock()
	names := make([]string, 0, len(r.gauges))
	gauges := make([]*Gauge, 0, len(r.gauges))
	for n, g := range r.gauges {
		names = append(names, n)
		gauges = append(gauges, g)
	}
	r.mu.Unlock()
	out := make(map[string]float64, len(names))
	for i, n := range names {
		out[n] = gauges[i].Value()
	}
	return out
}

// histogramsCopy snapshots the histogram map under the lock.
func (r *Registry) histogramsCopy() map[string]*Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]*Histogram, len(r.histograms))
	for n, h := range r.histograms {
		out[n] = h
	}
	return out
}

// String renders the registry as sorted "name=value" lines: counters first,
// then gauges, then histogram summaries.
func (r *Registry) String() string {
	var b []byte
	snap := r.Snapshot()
	for _, n := range sortedKeys(snap) {
		b = append(b, fmt.Sprintf("%s=%d\n", n, snap[n])...)
	}
	gsnap := r.GaugeSnapshot()
	for _, n := range sortedKeys(gsnap) {
		b = append(b, fmt.Sprintf("%s=%g\n", n, gsnap[n])...)
	}
	hists := r.histogramsCopy()
	for _, n := range sortedKeys(hists) {
		b = append(b, fmt.Sprintf("%s: %s\n", n, hists[n].String())...)
	}
	return string(b)
}

func sortedKeys[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Gauge is a thread-safe instantaneous value.
type Gauge struct {
	mu sync.Mutex
	v  float64
}

// Set stores a value.
func (g *Gauge) Set(v float64) {
	g.mu.Lock()
	g.v = v
	g.mu.Unlock()
}

// Add shifts the value by delta (negative deltas decrement). In-flight
// gauges pair Add(1)/Add(-1) around each tracked operation.
func (g *Gauge) Add(delta float64) {
	g.mu.Lock()
	g.v += delta
	g.mu.Unlock()
}

// Value reads the value.
func (g *Gauge) Value() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}
