// Package trace holds the one record the engine keeps of a statement's
// execution — identity, where it was answered, under which plan, one stage
// clock, the work done, the staleness served, the error — and renders it as a
// span tree when somebody asks to see it. The engine measures a statement
// once, into its Record: the stage histograms and the trace ring it publishes
// the Record to, and the query store it records it in, read the same fields.
//
// The request path builds no tree. Only the operators with structure of their
// own to show (a remote round trip, the branch a ChoosePlan took) add spans while a statement runs, and only to a statement
// with a trace ID. Those spans, the rendered tree and the tree in a wire
// response are one type, WireSpan.
package trace

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// idCounter disambiguates IDs generated in the same nanosecond.
var idCounter atomic.Uint64

// newID returns a process-unique trace ID for a statement that began at at:
// 48 bits of the clock, 16 of the counter, as "%012x-%04x".
func newID(at time.Time) string {
	var raw [8]byte
	binary.BigEndian.PutUint64(raw[:], uint64(at.UnixNano())<<16|idCounter.Add(1)&0xffff)
	var b [17]byte
	hex.Encode(b[:12], raw[:6])
	b[12] = '-'
	hex.Encode(b[13:], raw[6:])
	return string(b[:])
}

// Tier names where a statement was answered.
type Tier uint8

const (
	TierNone          Tier = iota // nothing answered: the statement failed first, or is DDL
	TierIMCache                   // the result cache: nothing planned, nothing run
	TierLocal                     // a plan with no remote part
	TierDynamicLocal              // a ChoosePlan whose guard chose the cached view
	TierDynamicRemote             // a ChoosePlan whose guard chose the backend
	TierRemote                    // the whole query shipped to the backend
	TierMixed                     // local operators over remote inputs
	TierDegraded                  // the backend link failed; answered from cached views alone
	TierForwarded                 // DML or a procedure call a cache passed on as text
)

func (t Tier) String() string {
	return [...]string{"", "imcache", "local", "dynamic-local", "dynamic-remote", "remote", "mixed", "degraded-local", "forwarded"}[t]
}

// PlanCache says what the plan cache did for a statement.
type PlanCache uint8

const (
	PlanNotConsulted PlanCache = iota // result-cache hit, not a SELECT
	PlanHit
	PlanMiss
)

// Stage is one interval of the stage clock.
type Stage uint8

const (
	StageGate   Stage = iota // waiting for the session watermark to be applied
	StageParse               // normalizing the text, and parsing it when the shape cache cannot serve it
	StageLookup              // building the result-cache key and looking it up
	StagePlan                // the plan cache, or the optimizer
	StageExec                // running the plan (a degraded statement: the failed run and the local one)
	NumStages
)

// Counters accumulates executor work for cost accounting and tests.
type Counters struct {
	RowsScanned   int64 // rows read from local heaps and indexes
	RowsRemote    int64 // rows received from the backend
	RemoteQueries int64 // DataTransfer activations
	StartupPruned int64 // startup filters whose input was never opened
}

// Add accumulates o into c.
func (c *Counters) Add(o *Counters) {
	c.RowsScanned += o.RowsScanned
	c.RowsRemote += o.RowsRemote
	c.RemoteQueries += o.RemoteQueries
	c.StartupPruned += o.StartupPruned
}

// Record is everything measured about one execution of one statement. The
// goroutine running the statement fills it in — the operator spans under mu —
// and it is read-only once the statement finishes.
type Record struct {
	ID     string // trace ID; "" for a statement inside a procedure body: measured, not kept
	Server string // the database that ran it; the root span is Server + ".exec"
	SQL    string // the text as received ("" when the statement arrived parsed)
	Shape  string // a SELECT's CacheKey(): the result key's shape and its query-store row's

	Variant   string // the query store's label under Shape: the plan's, or the tier's for imcache and degraded-local
	Tier      Tier
	PlanCache PlanCache
	AutoParam bool // the shape cache supplied the parsed statement

	Start  time.Time
	Stages [NumStages]time.Duration
	Total  time.Duration // Start to Finish

	Rows      int64 // rows returned to the client
	Counters  Counters
	Staleness float64 // the cache's staleness, in seconds, when cached views were read; < 0 = unknown or none read
	Err       error

	at  time.Duration // the last stage boundary, as an offset from Start
	ran uint8         // bit s: stage s was closed at least once

	mu    sync.Mutex
	spans *WireSpan // what operators added, once one has: attributes and children of the execute span
}

// Begin starts the record of a statement nobody will look up by ID (a SELECT
// in a procedure body): measured and published like any other, not kept.
func Begin(server string) *Record {
	return &Record{Server: server, Start: time.Now(), Staleness: -1}
}

// BeginStatement starts the record of a client statement. An empty id mints a
// fresh one; an id that arrived in a wire frame joins the caller's trace.
func BeginStatement(server, sqlText, id string) *Record {
	r := Begin(server)
	if id == "" {
		id = newID(r.Start)
	}
	r.ID, r.SQL = id, sqlText
	return r
}

// Mark closes stage s: the time since the previous boundary (the start, or the
// last Mark) is added to it. One clock read per boundary.
func (r *Record) Mark(s Stage) {
	now := time.Since(r.Start)
	r.Stages[s] += now - r.at
	r.at = now
	r.ran |= 1 << s
}

// Ran reports whether stage s was closed at least once.
func (r *Record) Ran(s Stage) bool { return r.ran&(1<<s) != 0 }

// Finish stops the clock and records the outcome.
func (r *Record) Finish(err error) {
	r.Total = time.Since(r.Start)
	r.Err = err
}

// Attr is one key=value annotation on a span.
type Attr struct {
	K, V string
}

// WireSpan is one timed stage of a trace — plain fields, no lock, no parent
// pointer — in a rendered tree, under a record's execute span, or inside a
// wire response (internal/wire encodes it; the tree is cut at 32 levels there).
type WireSpan struct {
	Name     string
	StartUTC int64 // UnixNano
	DurNanos int64
	Attrs    []Attr
	Children []*WireSpan
}

// AttrValue returns the value of the first attribute named k ("" if none).
func (w *WireSpan) AttrValue(k string) string {
	if w != nil {
		for _, a := range w.Attrs {
			if a.K == k {
				return a.V
			}
		}
	}
	return ""
}

// Find depth-first-searches the tree for a span by name (nil if not found).
func (w *WireSpan) Find(name string) *WireSpan {
	if w == nil || w.Name == name {
		return w
	}
	for _, c := range w.Children {
		if m := c.Find(name); m != nil {
			return m
		}
	}
	return nil
}

// now is the record's monotonic clock as a wall-clock stamp.
func (r *Record) now() int64 { return r.Start.UnixNano() + int64(time.Since(r.Start)) }

// node resolves the span an operator names: nil is the execute span. Caller
// holds r.mu.
func (r *Record) node(sp *WireSpan) *WireSpan {
	if sp != nil {
		return sp
	}
	if r.spans == nil {
		r.spans = &WireSpan{}
	}
	return r.spans
}

// traced: only a statement that can be looked up afterwards keeps spans.
func (r *Record) traced() bool { return r != nil && r.ID != "" }

// StartSpan opens a span under parent (nil: the execute span). It returns nil,
// which Annotate and EndSpan accept, when the record is nil or untraced.
func (r *Record) StartSpan(parent *WireSpan, name string, attrs ...Attr) *WireSpan {
	if !r.traced() {
		return nil
	}
	sp := &WireSpan{Name: name, StartUTC: r.now(), Attrs: attrs}
	r.mu.Lock()
	parent = r.node(parent)
	parent.Children = append(parent.Children, sp)
	r.mu.Unlock()
	return sp
}

// Annotate adds an attribute to sp (nil: the execute span).
func (r *Record) Annotate(sp *WireSpan, k, v string) {
	if !r.traced() {
		return
	}
	r.mu.Lock()
	sp = r.node(sp)
	sp.Attrs = append(sp.Attrs, Attr{K: k, V: v})
	r.mu.Unlock()
}

// EndSpan closes a span. remote, when non-nil, is the tree the other server
// built for the call the span timed; it becomes the span's child as it is
// (its stamps are the remote clock's: durations are what matter).
func (r *Record) EndSpan(sp, remote *WireSpan) {
	if sp == nil {
		return
	}
	end := r.now()
	r.mu.Lock()
	sp.DurNanos = end - sp.StartUTC
	if remote != nil {
		sp.Children = append(sp.Children, remote)
	}
	r.mu.Unlock()
}

// Tree renders the record: the root <Server>.exec [sql, autoparam], a child
// per stage that ran — gate, parse, imcache_hit, optimize [plan_cache],
// execute — laid end to end from the start, and under execute whatever the
// operators added. For a finished statement: operators add nothing after it.
func (r *Record) Tree() *WireSpan {
	if r == nil {
		return nil
	}
	root := &WireSpan{Name: r.Server + ".exec", StartUTC: r.Start.UnixNano(), DurNanos: int64(r.Total),
		Attrs: []Attr{{K: "sql", V: r.SQL}}}
	if r.AutoParam {
		root.Attrs = append(root.Attrs, Attr{K: "autoparam", V: "1"})
	}
	at := root.StartUTC
	for s, name := range [NumStages]string{"gate", "parse", "imcache_hit", "optimize", "execute"} {
		stage := Stage(s)
		if !r.Ran(stage) {
			continue
		}
		sp := &WireSpan{Name: name, StartUTC: at, DurNanos: int64(r.Stages[stage])}
		at += sp.DurNanos
		switch {
		case stage == StageParse && r.AutoParam, stage == StageLookup && r.Tier != TierIMCache:
			continue // time the statement spent, but not a span: nothing was parsed, nothing was hit
		case stage == StagePlan && r.PlanCache != PlanNotConsulted:
			sp.Attrs = []Attr{{K: "plan_cache", V: [...]string{PlanHit: "hit", PlanMiss: "miss"}[r.PlanCache]}}
		case stage == StageExec && r.spans != nil:
			sp.Attrs, sp.Children = r.spans.Attrs, r.spans.Children
		}
		root.Children = append(root.Children, sp)
	}
	return root
}

// FindSpan searches the rendered tree for a span by name (tests).
func (r *Record) FindSpan(name string) *WireSpan { return r.Tree().Find(name) }

// Render formats a record (nil: Collector.Last found none) as an indented text
// tree with per-span timings.
func Render(r *Record) string {
	if r == nil {
		return "(no traces recorded)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s total=%s\n", r.ID, fmtDur(r.Total))
	renderSpan(&b, r.Tree(), 0)
	return b.String()
}

func renderSpan(b *strings.Builder, s *WireSpan, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	fmt.Fprintf(b, "%s %s", s.Name, fmtDur(time.Duration(s.DurNanos)))
	for _, a := range s.Attrs {
		fmt.Fprintf(b, " %s=%q", a.K, a.V)
	}
	b.WriteString("\n")
	for _, c := range s.Children {
		renderSpan(b, c, depth+1)
	}
}

func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.3fms", float64(d)/float64(time.Millisecond))
}

// Collector keeps the most recent published records, oldest first, so a debug
// endpoint (or shell command) can show what just executed.
type Collector struct {
	mu   sync.Mutex
	ring []*Record // never grows past the capacity it was made with
}

// NewCollector creates a collector retaining up to n records (default 16).
func NewCollector(n int) *Collector {
	if n <= 0 {
		n = 16
	}
	return &Collector{ring: make([]*Record, 0, n)}
}

// Traces is the process-wide collector fed by the engine.
var Traces = NewCollector(16)

// Add keeps a finished record, dropping the oldest when full.
func (c *Collector) Add(r *Record) {
	c.mu.Lock()
	if len(c.ring) == cap(c.ring) {
		c.ring = c.ring[:copy(c.ring, c.ring[1:])]
	}
	c.ring = append(c.ring, r)
	c.mu.Unlock()
}

// Last returns the most recently added record (nil when empty).
func (c *Collector) Last() *Record {
	if last := c.Recent(1); len(last) == 1 {
		return last[0]
	}
	return nil
}

// Recent returns up to n recent records (all of them when n <= 0), newest
// first.
func (c *Collector) Recent(n int) []*Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n <= 0 || n > len(c.ring) {
		n = len(c.ring)
	}
	out := make([]*Record, n)
	for i := range out {
		out[i] = c.ring[len(c.ring)-1-i]
	}
	return out
}

// Reset drops every retained record (tests).
func (c *Collector) Reset() {
	c.mu.Lock()
	clear(c.ring)
	c.ring = c.ring[:0]
	c.mu.Unlock()
}
