// Package trace provides per-query tracing: a span tree with wall-clock
// timings that follows one statement through parse, optimization and
// execution — including remote round-trips. Spans created on the backend
// while serving a cache's DataTransfer are exported in wire-friendly form
// and grafted back into the cache-side tree, so one trace shows the whole
// distributed execution.
//
// All Span methods are nil-safe no-ops, so instrumented code paths never
// need to check whether tracing is active.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// idCounter disambiguates IDs generated in the same nanosecond.
var idCounter atomic.Uint64

// NewID returns a process-unique trace ID.
func NewID() string {
	return fmt.Sprintf("%012x-%04x", time.Now().UnixNano()&0xffffffffffff, idCounter.Add(1)&0xffff)
}

// Attr is one key=value annotation on a span.
type Attr struct {
	K, V string
}

// Span is one timed stage of a trace. Spans form a tree; children are
// appended concurrently-safely.
type Span struct {
	mu       sync.Mutex
	name     string
	traceID  string
	start    time.Time
	dur      time.Duration
	ended    bool
	attrs    []Attr
	children []*Span
}

// Trace is one query's complete span tree.
type Trace struct {
	ID   string
	Root *Span
}

// New starts a trace. An empty id generates a fresh one; passing an id in
// (from a wire frame) lets backend-side spans join a cache-side trace.
func New(id, rootName string) *Trace {
	if id == "" {
		id = NewID()
	}
	return &Trace{ID: id, Root: &Span{name: rootName, traceID: id, start: time.Now()}}
}

// Finish ends the root span.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	t.Root.End()
}

// Name returns the span name ("" for nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// TraceID returns the owning trace's ID ("" for nil).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.traceID
}

// Duration returns the span's recorded duration (the running duration if
// the span has not ended yet).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ended {
		return time.Since(s.start)
	}
	return s.dur
}

// Child starts a sub-span. Safe on a nil receiver (returns nil).
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, traceID: s.traceID, start: time.Now()}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// End records the span's duration. Later Ends are ignored.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.dur = time.Since(s.start)
		s.ended = true
	}
	s.mu.Unlock()
}

// Attr annotates the span and returns it for chaining.
func (s *Span) Attr(k, v string) *Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{K: k, V: v})
	s.mu.Unlock()
	return s
}

// AttrValue returns the value of the first attribute named k ("" if none).
func (s *Span) AttrValue(k string) string {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, a := range s.attrs {
		if a.K == k {
			return a.V
		}
	}
	return ""
}

// Children returns a snapshot of the span's children.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// WireSpan is the exported form of a span — plain fields, no lock, no parent
// pointer — in which backend-side spans travel to the cache inside a wire
// response (internal/wire encodes it; the tree is cut at 32 levels there).
type WireSpan struct {
	Name     string
	StartUTC int64 // UnixNano
	DurNanos int64
	Attrs    []Attr
	Children []*WireSpan
}

// Export converts a span tree to its wire form (nil in, nil out).
func Export(s *Span) *WireSpan {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	w := &WireSpan{
		Name:     s.name,
		StartUTC: s.start.UnixNano(),
		DurNanos: int64(s.dur),
		Attrs:    append([]Attr(nil), s.attrs...),
	}
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		w.Children = append(w.Children, Export(c))
	}
	return w
}

// Graft attaches an exported (remote) span tree under s. The remote side's
// clock stamps are kept as-is: durations are what matter for stitching.
func (s *Span) Graft(w *WireSpan) {
	if s == nil || w == nil {
		return
	}
	c := importSpan(w, s.traceID)
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
}

func importSpan(w *WireSpan, traceID string) *Span {
	s := &Span{
		name:    w.Name,
		traceID: traceID,
		start:   time.Unix(0, w.StartUTC),
		dur:     time.Duration(w.DurNanos),
		ended:   true,
		attrs:   append([]Attr(nil), w.Attrs...),
	}
	for _, c := range w.Children {
		s.children = append(s.children, importSpan(c, traceID))
	}
	return s
}

// Render formats a trace as an indented text tree with per-span timings.
func Render(t *Trace) string {
	if t == nil || t.Root == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s total=%s\n", t.ID, fmtDur(t.Root.Duration()))
	renderSpan(&b, t.Root, 0)
	return b.String()
}

func renderSpan(b *strings.Builder, s *Span, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	fmt.Fprintf(b, "%s %s", s.Name(), fmtDur(s.Duration()))
	s.mu.Lock()
	attrs := append([]Attr(nil), s.attrs...)
	s.mu.Unlock()
	for _, a := range attrs {
		fmt.Fprintf(b, " %s=%q", a.K, a.V)
	}
	b.WriteString("\n")
	for _, c := range s.Children() {
		renderSpan(b, c, depth+1)
	}
}

func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.3fms", float64(d)/float64(time.Millisecond))
}

// Collector keeps the most recent finished traces in a bounded ring so a
// debug endpoint (or shell command) can show what just executed.
type Collector struct {
	mu   sync.Mutex
	ring []*Trace
	next int
	cap  int
}

// NewCollector creates a collector retaining up to n traces (default 16).
func NewCollector(n int) *Collector {
	if n <= 0 {
		n = 16
	}
	return &Collector{ring: make([]*Trace, 0, n), cap: n}
}

// Traces is the process-wide collector fed by the engine.
var Traces = NewCollector(16)

// Add records a finished trace.
func (c *Collector) Add(t *Trace) {
	if t == nil {
		return
	}
	c.mu.Lock()
	if len(c.ring) < c.cap {
		c.ring = append(c.ring, t)
	} else {
		c.ring[c.next] = t
	}
	c.next = (c.next + 1) % c.cap
	c.mu.Unlock()
}

// Last returns the most recently added trace (nil when empty).
func (c *Collector) Last() *Trace {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.ring) == 0 {
		return nil
	}
	idx := c.next - 1
	if idx < 0 {
		idx = len(c.ring) - 1
	}
	return c.ring[idx]
}

// Recent returns up to n recent traces, newest first.
func (c *Collector) Recent(n int) []*Trace {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Trace, 0, len(c.ring))
	idx := c.next - 1
	for range c.ring {
		if idx < 0 {
			idx = len(c.ring) - 1
		}
		out = append(out, c.ring[idx])
		idx--
		if n > 0 && len(out) >= n {
			break
		}
	}
	return out
}

// Reset drops every retained trace (tests).
func (c *Collector) Reset() {
	c.mu.Lock()
	c.ring = c.ring[:0]
	c.next = 0
	c.mu.Unlock()
}

// FindSpan depth-first-searches the trace for a span by name (nil if not
// found). Used by tests to assert stitching.
func (t *Trace) FindSpan(name string) *Span {
	if t == nil {
		return nil
	}
	return findSpan(t.Root, name)
}

func findSpan(s *Span, name string) *Span {
	if s == nil {
		return nil
	}
	if s.Name() == name {
		return s
	}
	for _, c := range s.Children() {
		if m := findSpan(c, name); m != nil {
			return m
		}
	}
	return nil
}

// SpanNames returns every span name in the trace, sorted (tests/debug).
func (t *Trace) SpanNames() []string {
	var names []string
	var walk func(*Span)
	walk = func(s *Span) {
		if s == nil {
			return
		}
		names = append(names, s.Name())
		for _, c := range s.Children() {
			walk(c)
		}
	}
	if t != nil {
		walk(t.Root)
	}
	sort.Strings(names)
	return names
}
