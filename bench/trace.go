package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"sort"
	"sync"
	"time"
)

// Span names. A traced round sends every read down exactly one rung of the
// ladder router → wire.front → engine.cache, and every back-hop call either
// over TCP or straight into the backend engine, so each statement still
// executes once and adjacent rungs differ by one layer.
const (
	spanOp         = "op"
	spanRouter     = "router"       // router.Session.Call/Exec
	spanWireFront  = "wire.front"   // wire.Client.QuerySession at the pinned cache's listener
	spanEngine     = "engine.cache" // cache DB.ExecSession in process
	spanBackTCP    = "wire.back"    // the cache's resilient TCP client
	spanBackDirect = "backend.direct"
)

var rungs = []string{spanRouter, spanWireFront, spanEngine}

type spanKind uint8

const (
	opSpan spanKind = iota
	stmtSpan
	backSpan
)

// span is one timed interval. Spans of one operation share Op; Parent is the
// span that caused this one (0 for the operation itself).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Shape  string `json:"shape,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() float64 { return float64(s.End - s.Start) }

// tracer keeps the spans of a traced round in memory. The round has one
// client, so at most one statement is open at a time and a back-hop call
// (which arrives on a server goroutine) belongs to it unambiguously.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	open  int // the open statement span, parent of back-hop spans
	op    int // the open operation's id
	rng   *rand.Rand
}

func newTracer(seed int64) *tracer {
	return &tracer{t0: time.Now(), rng: rand.New(rand.NewSource(seed))}
}

// begin opens a span. kind says where it hangs: an operation is a root, a
// statement hangs off the open operation, a back-hop call off the open
// statement (or, during session set-up, off the operation) and takes its
// shape.
func (t *tracer) begin(kind spanKind, name, shape string) int {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	parent := 0
	switch kind {
	case opSpan:
		t.op = id
	case stmtSpan:
		parent, t.open = t.op, id
	case backSpan:
		if parent = t.open; parent == 0 {
			parent = t.op
		}
		if parent > 0 {
			shape = t.spans[parent-1].Shape
		}
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name, Shape: shape, Start: now})
	return id
}

func (t *tracer) end(id int) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	if t.open == id {
		t.open = 0
	}
	t.mu.Unlock()
}

// pickRung draws the rung of the next statement.
func (t *tracer) pickRung() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return rungs[t.rng.Intn(len(rungs))]
}

// flipBackHop draws the transport of the next back-hop call.
func (t *tracer) flipBackHop() (direct bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rng.Intn(2) == 1
}

// snapshot returns the finished spans recorded from index from on.
func (t *tracer) snapshot(from int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans[from:] {
		if s.End > 0 {
			out = append(out, s)
		}
	}
	return out
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns each span's duration minus the part of its interval that
// its child spans cover (overlapping children are not counted twice).
func selfTimes(spans []span) map[int]float64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = float64(s.End-s.Start) - float64(covered)
	}
	return self
}

// shapeStat is the median of one statement shape on one rung.
type shapeStat struct {
	Median float64 `json:"median_us"`
	N      int     `json:"n"`
}

// shapeStats groups values (in µs) by shape and takes each group's median.
func shapeStats(values map[string][]float64) map[string]shapeStat {
	out := make(map[string]shapeStat, len(values))
	for shape, v := range values {
		out[shape] = shapeStat{Median: median(v), N: len(v)}
	}
	return out
}

// minShapeSamples is the fewest samples a shape needs on a rung before its
// median enters a weighted figure; rarer shapes are left out and the weights
// of the rest renormalised.
const minShapeSamples = 10

// weighted is the frequency-weighted mean of per-shape medians: what the
// median statement costs on a rung, with each shape counted as often as the
// workload issues it. freq need not sum to one.
func weighted(stats map[string]shapeStat, freq map[string]float64) float64 {
	var sum, w float64
	for shape, f := range freq {
		if st, ok := stats[shape]; ok && st.N >= minShapeSamples {
			sum += f * st.Median
			w += f
		}
	}
	if w == 0 {
		return 0
	}
	return sum / w
}

// rungDiff is a layer's self time: the weighted difference of per-shape
// medians between the rung that includes the layer and the rung below it,
// over the shapes both rungs sampled enough.
func rungDiff(upper, lower map[string]shapeStat, freq map[string]float64) float64 {
	common := sampledOnAll(freq, upper, lower)
	return weighted(upper, common) - weighted(lower, common)
}

// rungStats reduces a traced round's spans to per-rung, per-shape medians in
// µs, plus how often each shape occurred among statements ("stmt") and among
// back-hop calls ("back"). Rungs use the span duration, over the statements
// whose back-hop calls (if any) all went over TCP: that is the shipped path,
// and a median over a TCP/direct mixture would sit between two modes.
// "engine.cache.self" is the engine rung's self time (the statement minus the
// back-hop calls inside it, whichever way they went) and "op.self" the
// operation's (minus its statements).
func rungStats(spans []span) (stats map[string]map[string]shapeStat, freq map[string]map[string]float64) {
	self := selfTimes(spans)
	wentDirect := map[int]bool{}
	for _, s := range spans {
		if s.Name == spanBackDirect {
			wentDirect[s.Parent] = true
		}
	}
	values := map[string]map[string][]float64{}
	add := func(rung, shape string, ns float64) {
		if values[rung] == nil {
			values[rung] = map[string][]float64{}
		}
		values[rung][shape] = append(values[rung][shape], ns/1e3)
	}
	freq = map[string]map[string]float64{"stmt": {}, "back": {}}
	for _, s := range spans {
		switch s.Name {
		case spanOp:
			add("op.self", "*", self[s.ID])
		case spanRouter, spanWireFront, spanEngine:
			freq["stmt"][s.Shape]++
			if !wentDirect[s.ID] {
				add(s.Name, s.Shape, s.dur())
			}
			if s.Name == spanEngine {
				add("engine.cache.self", s.Shape, self[s.ID])
			}
		case spanBackTCP, spanBackDirect:
			add(s.Name, s.Shape, s.dur())
			freq["back"][s.Shape]++
		}
	}
	stats = map[string]map[string]shapeStat{}
	for rung, v := range values {
		stats[rung] = shapeStats(v)
	}
	return stats, freq
}

// sampledOnAll keeps the frequencies of the shapes every given rung sampled
// enough, so that figures for different rungs cover the same statements.
func sampledOnAll(freq map[string]float64, rungs ...map[string]shapeStat) map[string]float64 {
	out := map[string]float64{}
	for shape, f := range freq {
		ok := true
		for _, r := range rungs {
			ok = ok && r[shape].N >= minShapeSamples
		}
		if ok {
			out[shape] = f
		}
	}
	return out
}
