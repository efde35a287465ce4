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
// The request path builds no tree. The two things operators add while a
// statement with a trace ID runs — the branch each ChoosePlan took and each
// remote round trip — are plain fields of its record, and adding them
// allocates nothing. Tree renders them as spans on read, in one type,
// WireSpan.
//
// A trace crosses a hop by its ID alone: the server a remote round trip
// reaches keeps its own record under the caller's ID, in its own ring, and
// nothing of it travels back with the answer. A reader who wants the whole
// request joins the two servers' records by ID on read (Stitch), from the
// rows of the other server's sys.traces (Row, FromRow).
package trace

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mtcache/internal/types"
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
// that. A copy shares only the overflow slice of its round trips, which no
// record ever reuses: Release drops it, and a tree built from the record
// shares nothing with it.
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

	// What operators add while a traced statement runs: the branches its
	// ChoosePlans took, in order (bit i set: the i-th was remote), and its
	// remote round trips, the first inlineTrips inline and the rest in more.
	branches  uint64
	nBranches uint8
	trips     [inlineTrips]roundTrip
	more      []roundTrip
	nTrips    int
}

// inlineTrips is how many round trips a record holds without allocating: a
// statement the cache cannot answer makes one.
const inlineTrips = 2

// maxBranches is how many ChoosePlan branches a record keeps; a statement
// that takes more shows its first maxBranches.
const maxBranches = 64

// roundTrip is one remote round trip: the text shipped, when it began and how
// long it took (offsets from the record's Start), and how it failed.
type roundTrip struct {
	sql        string
	start, dur time.Duration
	err        error
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

// Release hands r back to the pool, zeroed; the overflow slice of its round
// trips is dropped, not reused. Only the call that began r releases it, once,
// when it and its callers are done reading it.
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
// pointer — in a rendered tree. The name is older than the tree's last trip
// over the wire; the fleet benchmark names the type, and a change to the
// benchmark renames it.
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

// traced: only a statement that can be looked up afterwards keeps what its
// operators add.
func (r *Record) traced() bool { return r != nil && r.ID != 0 }

// Branch is the side of a ChoosePlan that ran.
type Branch uint8

const (
	BranchLocal  Branch = iota // the guard chose the cached view
	BranchRemote               // the guard chose the backend
)

func (b Branch) String() string { return [...]string{"local", "remote"}[b] }

// Chose records the branch a ChoosePlan took (nothing on a nil or untraced
// record).
func (r *Record) Chose(b Branch) {
	if !r.traced() || r.nBranches == maxBranches {
		return
	}
	r.branches |= uint64(b) << r.nBranches
	r.nBranches++
}

// RemoteStart records the start of a round trip that ships sqlText and
// returns its number for RemoteEnd: -1, which RemoteEnd accepts, on a nil or
// untraced record.
func (r *Record) RemoteStart(sqlText string) int {
	if !r.traced() {
		return -1
	}
	t := roundTrip{sql: sqlText, start: time.Since(r.Start)}
	if r.nTrips < inlineTrips {
		r.trips[r.nTrips] = t
	} else {
		r.more = append(r.more, t)
	}
	r.nTrips++
	return r.nTrips - 1
}

// RemoteEnd records that round trip i ended, failed with err or not.
func (r *Record) RemoteEnd(i int, err error) {
	if i < 0 {
		return
	}
	t := r.trip(i)
	t.dur, t.err = time.Since(r.Start)-t.start, err
}

// trip is the i-th round trip.
func (r *Record) trip(i int) *roundTrip {
	if i < inlineTrips {
		return &r.trips[i]
	}
	return &r.more[i-inlineTrips]
}

// Tree renders the record: the root <Server>.exec [sql, autoparam], a child
// per stage that ran — gate, parse, imcache_hit, optimize [plan_cache],
// execute [chooseplan per branch taken] — laid end to end from the start, and
// under execute a remote [sql, error] span per round trip. For a finished
// statement: operators add nothing after it. The tree shares nothing with the
// record: its reader may change it.
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
			sp.Attrs = []Attr{{K: "plan_cache", V: planCacheNames[r.PlanCache]}}
		case stage == StageExec:
			sp.Attrs, sp.Children = r.branchAttrs(), r.remoteSpans()
		}
		root.Children = append(root.Children, sp)
	}
	return root
}

// branchAttrs renders the branches taken as chooseplan attributes (nil for
// none).
func (r *Record) branchAttrs() []Attr {
	if r.nBranches == 0 {
		return nil
	}
	attrs := make([]Attr, r.nBranches)
	for i := range attrs {
		attrs[i] = Attr{K: "chooseplan", V: Branch(r.branches >> i & 1).String()}
	}
	return attrs
}

// remoteSpans renders the round trips as remote spans (nil for none).
func (r *Record) remoteSpans() []*WireSpan {
	if r.nTrips == 0 {
		return nil
	}
	spans := make([]*WireSpan, r.nTrips)
	for i := range spans {
		t := r.trip(i)
		sp := &WireSpan{Name: "remote", StartUTC: r.Start.UnixNano() + int64(t.start), DurNanos: int64(t.dur),
			Attrs: []Attr{{K: "sql", V: t.sql}}}
		if t.err != nil {
			sp.Attrs = append(sp.Attrs, Attr{K: "error", V: t.err.Error()})
		}
		spans[i] = sp
	}
	return spans
}

// Stitch renders the record with the other half of each remote round trip
// it made: under the k-th remote span, the tree of the k-th record the other
// server keeps under r's ID. fetch returns those records, oldest first; it
// is called once, and only when r has a remote span. A statement runs on one
// goroutine, so its round trips follow one another, and each reaches the
// other server's ring in the order it was made.
//
// A span whose record is not known shows backend="missing" and has no
// child; no span ever shows a record of another round trip. The other
// server's ring drops its oldest records first, so what it still keeps of r
// is the last round trips', and those are paired with the last spans only
// when each of them can be: when it ran the text its span shipped, took no
// longer than its span, and its span's round trip did not fail (a failed
// one may or may not have arrived). Nothing is paired when the fetch failed,
// or when the ring keeps more records than r has spans (a round trip the
// other server ran twice, or a trace ID a caller used for two statements).
func (r *Record) Stitch(fetch func(id uint64) ([]Record, error)) *WireSpan {
	tree := r.Tree()
	var remotes []*WireSpan // one per round trip, under the execute span
	if exec := tree.Find("execute"); exec != nil {
		for _, sp := range exec.Children {
			if sp.Name == "remote" {
				remotes = append(remotes, sp)
			}
		}
	}
	if len(remotes) == 0 {
		return tree
	}
	kept, err := fetch(r.ID)
	skip := len(remotes) - len(kept) // the round trips whose records the ring dropped
	paired := err == nil && skip >= 0
	for i := 0; paired && i < len(kept); i++ {
		sp := remotes[skip+i]
		paired = sp.AttrValue("error") == "" && kept[i].SQL == sp.AttrValue("sql") && int64(kept[i].Total) <= sp.DurNanos
	}
	for k, sp := range remotes {
		if paired && k >= skip {
			sp.Children = append(sp.Children, kept[k-skip].Tree())
		} else {
			sp.Attrs = append(sp.Attrs, Attr{K: "backend", V: "missing"})
		}
	}
	return tree
}

// Render formats a record (nil: Collector.Last found none) as an indented text
// tree with per-span timings, under its rendered trace ID.
func Render(r *Record) string { return RenderTree(r, r.Tree()) }

// RenderTree is Render of r with the tree given: r's own (Tree) or the
// stitched one (Stitch).
func RenderTree(r *Record, tree *WireSpan) string {
	if r == nil {
		return "(no traces recorded)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s total=%s\n", FormatID(r.ID), fmtDur(r.Total))
	renderSpan(&b, tree, 0)
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

// RowColumns is the schema of a record's row (Row): the columns of
// sys.traces, in order. The stage columns are nanoseconds, NULL for a stage
// that did not run.
var RowColumns = []struct {
	Name string
	Kind types.Kind
}{
	{"trace_id", types.KindString}, {"server", types.KindString}, {"sql", types.KindString},
	{"start", types.KindTime}, {"total_ns", types.KindInt},
	{"gate_ns", types.KindInt}, {"parse_ns", types.KindInt}, {"lookup_ns", types.KindInt},
	{"optimize_ns", types.KindInt}, {"execute_ns", types.KindInt},
	{"tier", types.KindString}, {"plan_cache", types.KindString}, {"autoparam", types.KindBool},
}

// firstStageCol is the column of StageGate; the others follow it in order.
const firstStageCol = 5

var planCacheNames = [...]string{PlanNotConsulted: "", PlanHit: "hit", PlanMiss: "miss"}

// Row is r as a row of sys.traces: every field its tree is built from but
// its branches and round trips, which only a cache's statements have.
func (r *Record) Row() types.Row {
	row := types.Row{
		types.NewString(FormatID(r.ID)), types.NewString(r.Server), types.NewString(r.SQL),
		types.NewTime(r.Start), types.NewInt(int64(r.Total)),
	}
	for s := range NumStages {
		v := types.Null
		if r.Ran(s) {
			v = types.NewInt(int64(r.Stages[s]))
		}
		row = append(row, v)
	}
	return append(row, types.NewString(r.Tier.String()), types.NewString(planCacheNames[r.PlanCache]), types.NewBool(r.AutoParam))
}

// FromRow is Row's inverse: the record whose tree is the one the row's server
// rendered for its own. A row that Row could not have produced is refused.
func FromRow(row types.Row) (Record, error) {
	bad := func() (Record, error) { return Record{}, fmt.Errorf("trace: %v is not a row of sys.traces", row) }
	if len(row) != len(RowColumns) {
		return bad()
	}
	for i, c := range RowColumns {
		if row[i].K != c.Kind && !(row[i].IsNull() && i >= firstStageCol && i < firstStageCol+int(NumStages)) {
			return bad()
		}
	}
	id, err := ParseID(row[0].Str())
	if err != nil {
		return Record{}, err
	}
	r := Record{ID: id, Server: row[1].Str(), SQL: row[2].Str(), Start: row[3].Time(), Total: time.Duration(row[4].Int()),
		AutoParam: row[12].Bool(), Staleness: -1}
	for s := range NumStages {
		if v := row[firstStageCol+int(s)]; !v.IsNull() {
			r.Stages[s], r.ran = time.Duration(v.Int()), r.ran|1<<s
		}
	}
	tier, plan := row[10].Str(), row[11].Str()
	for r.Tier < TierForwarded && r.Tier.String() != tier {
		r.Tier++
	}
	for r.PlanCache < PlanMiss && planCacheNames[r.PlanCache] != plan {
		r.PlanCache++
	}
	if r.Tier.String() != tier || planCacheNames[r.PlanCache] != plan {
		return bad()
	}
	return r, nil
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

// ByID returns copies of the kept records with the trace ID id, oldest
// first.
func (c *Collector) ByID(id uint64) []Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []Record
	for i := c.n; i > 0; i-- {
		if r := &c.ring[(c.next-i+len(c.ring))%len(c.ring)]; r.ID == id {
			out = append(out, *r)
		}
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
