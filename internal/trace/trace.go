// Package trace holds the one record the engine keeps of a statement's
// execution — identity, where it was answered, under which plan, one stage
// clock, the work done, the staleness served, the error — and renders it as a
// span tree when somebody asks to see it. The engine measures a statement
// once, into its Record: the stage histograms, the query store and the
// server's trace ring read the same fields.
//
// A record costs nothing unless someone keeps it. Records come from a pool and
// go back to it at the end of the call that began them; the ring keeps a copy,
// and a reader gets a copy of that. The trace ID is a number, rendered as text
// only when somebody reads it.
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

// idCounter disambiguates IDs minted in the same nanosecond.
var idCounter atomic.Uint64

// mintID returns a process-unique trace ID for a statement that began at at:
// 48 bits of the clock over 16 of the counter. It is never 0, which means
// untraced.
func mintID(at time.Time) uint64 {
	id := uint64(at.UnixNano())<<16 | idCounter.Add(1)&0xffff
	if id == 0 { // the clock's low 48 bits and the counter's low 16 all wrapped at once
		id = idCounter.Add(1) & 0xffff
	}
	return id
}

// idLen is the length of a rendered trace ID: "%012x-%04x".
const idLen = 17

// FormatID renders a trace ID as the clock's 12 hex digits, a dash and the
// counter's 4 ("" for 0: untraced).
func FormatID(id uint64) string {
	if id == 0 {
		return ""
	}
	var raw [8]byte
	binary.BigEndian.PutUint64(raw[:], id)
	var b [idLen]byte
	hex.Encode(b[:12], raw[:6])
	b[12] = '-'
	hex.Encode(b[13:], raw[6:])
	return string(b[:])
}

// ParseID is FormatID's inverse: "" is 0, and any other text FormatID could
// not have produced is refused with an error naming it.
func ParseID(s string) (uint64, error) {
	if s == "" {
		return 0, nil
	}
	if len(s) == idLen && s[12] == '-' {
		var raw [8]byte
		_, err := hex.Decode(raw[:6], []byte(s[:12]))
		if _, err2 := hex.Decode(raw[6:], []byte(s[13:])); err == nil && err2 == nil {
			if id := binary.BigEndian.Uint64(raw[:]); id != 0 {
				return id, nil
			}
		}
	}
	return 0, fmt.Errorf("trace: %q is not a trace ID", s)
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
// goroutine running the statement fills it in, and it is read-only once the
// statement finishes. It is a plain value: the ring keeps a copy of it.
//
// A record comes from a pool (Begin, BeginStatement) and goes back to it
// (Release) at the end of the call that began it; nothing may read it after
// that. Its spans are never reused: a copy, and a tree built from it, keep
// them.
type Record struct {
	ID     uint64 // trace ID, rendered by FormatID; 0 for a statement inside a procedure body: measured, not kept
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

	spans *WireSpan // what operators added, once one has: attributes and children of the execute span
}

// records holds released records for the next Begin.
var records = sync.Pool{New: func() any { return new(Record) }}

// Begin starts the record of a statement nobody will look up by ID (a SELECT
// in a procedure body): measured and published like any other, not kept.
func Begin(server string) *Record {
	r := records.Get().(*Record)
	r.Server, r.Start, r.Staleness = server, time.Now(), -1
	return r
}

// BeginStatement starts the record of a client statement. An id of 0 mints a
// fresh one; an id that arrived in a wire frame joins the caller's trace.
func BeginStatement(server, sqlText string, id uint64) *Record {
	r := Begin(server)
	if id == 0 {
		id = mintID(r.Start)
	}
	r.ID, r.SQL = id, sqlText
	return r
}

// Release hands r back to the pool, zeroed; its spans are dropped, not
// reused. Only the call that began r releases it, once, when it and its
// callers are done reading it.
func (r *Record) Release() {
	*r = Record{}
	records.Put(r)
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

// node resolves the span an operator names: nil is the execute span.
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
func (r *Record) traced() bool { return r != nil && r.ID != 0 }

// StartSpan opens a span under parent (nil: the execute span). It returns nil,
// which Annotate and EndSpan accept, when the record is nil or untraced.
func (r *Record) StartSpan(parent *WireSpan, name string, attrs ...Attr) *WireSpan {
	if !r.traced() {
		return nil
	}
	sp := &WireSpan{Name: name, StartUTC: r.now(), Attrs: attrs}
	parent = r.node(parent)
	parent.Children = append(parent.Children, sp)
	return sp
}

// Annotate adds an attribute to sp (nil: the execute span).
func (r *Record) Annotate(sp *WireSpan, k, v string) {
	if !r.traced() {
		return
	}
	sp = r.node(sp)
	sp.Attrs = append(sp.Attrs, Attr{K: k, V: v})
}

// EndSpan closes a span. remote, when non-nil, is the tree the other server
// built for the call the span timed; it becomes the span's child as it is
// (its stamps are the remote clock's: durations are what matter).
func (r *Record) EndSpan(sp, remote *WireSpan) {
	if sp == nil {
		return
	}
	sp.DurNanos = r.now() - sp.StartUTC
	if remote != nil {
		sp.Children = append(sp.Children, remote)
	}
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
// tree with per-span timings, under its rendered trace ID.
func Render(r *Record) string {
	if r == nil {
		return "(no traces recorded)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s total=%s\n", FormatID(r.ID), fmtDur(r.Total))
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

// Collector is a server's trace ring: it keeps copies of the most recent
// published records, so a debug endpoint (or shell command) can show what
// just executed. Its slots are values — a record kept costs no allocation —
// and a reader gets copies of them, which later publishers never touch.
type Collector struct {
	mu   sync.Mutex
	ring []Record // fixed length: the capacity
	n    int      // slots in use
	next int      // the slot the next Add overwrites
}

// NewCollector creates a collector retaining up to n records (default 16).
func NewCollector(n int) *Collector {
	if n <= 0 {
		n = 16
	}
	return &Collector{ring: make([]Record, n)}
}

// Add keeps a copy of a finished record, overwriting the oldest when full.
func (c *Collector) Add(r *Record) {
	c.mu.Lock()
	c.ring[c.next] = *r
	c.next = (c.next + 1) % len(c.ring)
	c.n = min(c.n+1, len(c.ring))
	c.mu.Unlock()
}

// Last returns a copy of the most recently added record (nil when empty).
func (c *Collector) Last() *Record {
	if last := c.Recent(1); len(last) == 1 {
		return &last[0]
	}
	return nil
}

// Recent returns copies of up to n recent records (all of them when n <= 0),
// newest first.
func (c *Collector) Recent(n int) []Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n <= 0 || n > c.n {
		n = c.n
	}
	out := make([]Record, n)
	for i := range out {
		out[i] = c.ring[(c.next-1-i+len(c.ring))%len(c.ring)]
	}
	return out
}

// Reset drops every retained record (tests).
func (c *Collector) Reset() {
	c.mu.Lock()
	clear(c.ring)
	c.n, c.next = 0, 0
	c.mu.Unlock()
}
