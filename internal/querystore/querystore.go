// Package querystore is the workload-introspection layer: a bounded,
// concurrency-safe accumulator of per-query-shape runtime statistics
// (SQL Server's Query Store, in miniature) plus a structured event log.
//
// A "shape" is the normalized query text — the plan-cache key from
// sql.SelectStmt.CacheKey() — so syntactically identical statements with
// different parameter values aggregate into one row. Under each shape,
// stats are kept per plan variant (local / remote / mixed / dynamic /
// degraded-local, suffixed with the cached views the plan used), because
// the same shape legitimately runs under different plans as freshness
// bounds and backend availability change.
//
// Memory is bounded three ways: an LRU over shapes (least recently
// executed shape is evicted at capacity), fixed-retention latency
// histograms per variant, and a last-N error ring per shape. The store
// imports only internal/metrics, internal/trace (the Record it accumulates)
// and the standard library so that every other layer (engine, wire, repl,
// storage, obs) can feed it without an import cycle.
package querystore

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"

	"mtcache/internal/metrics"
	"mtcache/internal/trace"
)

const (
	defaultShapeCap   = 512
	latencySamples    = 256 // per-variant histogram retention
	errorRing         = 4   // last-N errors kept per shape
	defaultSlow       = 100 * time.Millisecond
	defaultRearmEvery = 10 * time.Second
)

// variantStats accumulates executions of one shape under one plan variant.
// All fields are guarded by the owning Store's mutex except lat, which has
// its own lock (it is read lock-free of the store by snapshots).
type variantStats struct {
	execs      int64
	rows       int64
	localExecs int64 // executions with zero backend round trips
	remote     int64 // executions that touched the backend
	hits       int64 // plan-cache hits
	misses     int64
	degraded   int64
	errs       int64
	lat        *metrics.Histogram // seconds
	maxStale   float64
	lastMs     float64
	plan       string    // optimizer EXPLAIN text, captured on first plan
	analyzed   string    // most recent EXPLAIN ANALYZE (slow-query capture)
	literals   string    // bound literal values of the captured execution
	analyzedAt time.Time // zero until the first capture
}

// shapeEntry is one LRU slot: a shape plus its per-variant stats.
type shapeEntry struct {
	shape       string
	variants    map[string]*variantStats
	lastErrs    []string // ring, newest last, capped at errorRing
	lastErrAt   time.Time
	wantCapture bool // armed when a slow execution is observed
	elem        *list.Element
}

// Store is the query store. The zero value is not usable; use NewStore.
type Store struct {
	enabled    atomic.Bool
	slowNanos  atomic.Int64 // slow-query capture threshold
	rearmNanos atomic.Int64 // min interval between captures per shape

	mu     sync.Mutex
	cap    int
	shapes map[string]*shapeEntry
	lru    *list.List // front = most recently executed
}

// NewStore returns an enabled store retaining up to capacity shapes
// (default 512 when capacity <= 0).
func NewStore(capacity int) *Store {
	if capacity <= 0 {
		capacity = defaultShapeCap
	}
	s := &Store{
		cap:    capacity,
		shapes: make(map[string]*shapeEntry),
		lru:    list.New(),
	}
	s.enabled.Store(true)
	s.slowNanos.Store(int64(defaultSlow))
	s.rearmNanos.Store(int64(defaultRearmEvery))
	return s
}

// Default is the process-wide query store fed by the engine.
var Default = NewStore(defaultShapeCap)

// SetEnabled turns accounting on or off. Disabled, Record and WantCapture
// return immediately — the switch is a single atomic load on the hot path.
func (s *Store) SetEnabled(on bool) { s.enabled.Store(on) }

// Enabled reports whether accounting is on.
func (s *Store) Enabled() bool { return s.enabled.Load() }

// SetSlowThreshold sets the latency above which a shape arms slow-query
// capture (its next execution runs instrumented and keeps the EXPLAIN
// ANALYZE tree). d <= 0 disables capture.
func (s *Store) SetSlowThreshold(d time.Duration) { s.slowNanos.Store(int64(d)) }

// SlowThreshold returns the capture threshold (<= 0 means capture is off).
func (s *Store) SlowThreshold() time.Duration { return time.Duration(s.slowNanos.Load()) }

// entryLocked returns the LRU entry for shape, creating (and, at capacity,
// evicting) as needed. Caller holds s.mu.
func (s *Store) entryLocked(shape string) *shapeEntry {
	if ent, ok := s.shapes[shape]; ok {
		s.lru.MoveToFront(ent.elem)
		return ent
	}
	for len(s.shapes) >= s.cap {
		back := s.lru.Back()
		if back == nil {
			break
		}
		victim := back.Value.(*shapeEntry)
		s.lru.Remove(back)
		delete(s.shapes, victim.shape)
		metrics.Default.Counter("querystore.evictions").Add(1)
	}
	ent := &shapeEntry{shape: shape, variants: make(map[string]*variantStats)}
	ent.elem = s.lru.PushFront(ent)
	s.shapes[shape] = ent
	metrics.Default.Gauge("querystore.shapes").Set(float64(len(s.shapes)))
	return ent
}

func (ent *shapeEntry) variant(name string) *variantStats {
	vs, ok := ent.variants[name]
	if !ok {
		// maxStale starts at -1 ("staleness never observed"), matching the
		// Record.Staleness sentinel: a variant that only ever ran with unknown
		// staleness must not report 0 — or worse, a negative sample — as a
		// real bound.
		vs = &variantStats{lat: metrics.NewHistogram(latencySamples), maxStale: -1}
		ent.variants[name] = vs
	}
	return vs
}

// Record accumulates one published statement. It is the single hot-path entry
// point: one mutex acquisition, no allocation for repeat shapes. The latency
// kept is the answering tier's — the lookup for a result-cache hit, the
// execution otherwise — and only a consulted plan cache tallies a hit or miss.
func (s *Store) Record(r *trace.Record) {
	if !s.enabled.Load() || r.Shape == "" {
		return
	}
	dur := r.Stages[trace.StageExec]
	if r.Tier == trace.TierIMCache {
		dur = r.Stages[trace.StageLookup]
	}
	slow := s.slowNanos.Load()
	rearm := time.Duration(s.rearmNanos.Load())
	s.mu.Lock()
	ent := s.entryLocked(r.Shape)
	vs := ent.variant(r.Variant)
	vs.execs++
	vs.rows += r.Rows
	if r.Counters.RemoteQueries > 0 {
		vs.remote++
	} else {
		vs.localExecs++
	}
	switch r.PlanCache {
	case trace.PlanHit:
		vs.hits++
	case trace.PlanMiss:
		vs.misses++
	}
	if r.Tier == trace.TierDegraded {
		vs.degraded++
	}
	// Negative staleness is the "unknown" sentinel (sys.cached_views reports
	// -1 before the first pull); only real observations enter the maximum.
	if r.Staleness >= 0 && r.Staleness > vs.maxStale {
		vs.maxStale = r.Staleness
	}
	vs.lastMs = float64(dur) / float64(time.Millisecond)
	if r.Err != nil {
		vs.errs++
		if len(ent.lastErrs) >= errorRing {
			copy(ent.lastErrs, ent.lastErrs[1:])
			ent.lastErrs = ent.lastErrs[:errorRing-1]
		}
		ent.lastErrs = append(ent.lastErrs, r.Err.Error())
		ent.lastErrAt = time.Now()
	}
	// Arm slow-query capture: the *next* execution of this shape runs
	// instrumented, and at most once per re-arm interval so a persistently
	// slow shape does not pay instrumentation on every run.
	if slow > 0 && dur >= time.Duration(slow) && !ent.wantCapture {
		if vs.analyzedAt.IsZero() || time.Since(vs.analyzedAt) >= rearm {
			ent.wantCapture = true
		}
	}
	s.mu.Unlock()
	// Histogram has its own lock; keep it out of the store critical section.
	vs.lat.ObserveDuration(dur)
}

// NotePlan records the optimizer's EXPLAIN text for a shape × variant.
// Called on plan-cache misses only, so the cost of rendering the plan is
// paid once per cached plan, not per execution.
func (s *Store) NotePlan(shape, variant, plan string) {
	if !s.enabled.Load() || shape == "" {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	vs := s.entryLocked(shape).variant(variant)
	if vs.plan == "" {
		vs.plan = plan
	}
}

// WantCapture reports whether the next execution of shape should run
// instrumented, clearing the flag (at most one caller wins).
func (s *Store) WantCapture(shape string) bool {
	if !s.enabled.Load() || shape == "" {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ent, ok := s.shapes[shape]
	if !ok || !ent.wantCapture {
		return false
	}
	ent.wantCapture = false
	return true
}

// StoreAnalyzed saves the EXPLAIN ANALYZE tree captured for a slow shape.
// literals records the auto-parameterized literal values bound to the
// captured execution ("" when the query was not auto-parameterized), so a
// slow normalized shape can be replayed with the exact values that were
// slow.
func (s *Store) StoreAnalyzed(shape, variant, text, literals string) {
	if shape == "" || text == "" {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ent, ok := s.shapes[shape]
	if !ok {
		return
	}
	vs := ent.variant(variant)
	vs.analyzed = text
	vs.literals = literals
	vs.analyzedAt = time.Now()
	metrics.Default.Counter("querystore.slow_captures").Add(1)
}

// Len returns the number of retained shapes.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.shapes)
}

// Reset drops all accumulated stats (the enabled switch and thresholds
// are untouched).
func (s *Store) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.shapes = make(map[string]*shapeEntry)
	s.lru.Init()
	metrics.Default.Gauge("querystore.shapes").Set(0)
}

// VariantSnapshot is the exported per-variant view.
type VariantSnapshot struct {
	Variant    string  `json:"variant"`
	Execs      int64   `json:"execs"`
	Rows       int64   `json:"rows"`
	LocalExecs int64   `json:"local_execs"`
	Remote     int64   `json:"remote_execs"`
	Hits       int64   `json:"plan_cache_hits"`
	Misses     int64   `json:"plan_cache_misses"`
	Degraded   int64   `json:"degraded"`
	Errs       int64   `json:"errors"`
	TotalMs    float64 `json:"total_ms"`
	MeanMs     float64 `json:"mean_ms"`
	P50Ms      float64 `json:"p50_ms"`
	P95Ms      float64 `json:"p95_ms"`
	P99Ms      float64 `json:"p99_ms"`
	LastMs     float64 `json:"last_ms"`
	MaxStale   float64 `json:"max_staleness_seconds"`
	Plan       string  `json:"plan,omitempty"`
	Analyzed   string  `json:"analyzed,omitempty"`
	Literals   string  `json:"literals,omitempty"`
}

// ShapeSnapshot is the exported per-shape view: variant stats plus a
// rollup across variants (latency histograms merged, counts summed).
type ShapeSnapshot struct {
	Shape     string            `json:"shape"`
	Rollup    VariantSnapshot   `json:"rollup"`
	Variants  []VariantSnapshot `json:"variants"`
	LastError string            `json:"last_error,omitempty"`
	LastErrAt time.Time         `json:"last_error_at,omitempty"`
}

const secToMs = 1000.0

func (vs *variantStats) snapshot(name string) VariantSnapshot {
	h := vs.lat
	return VariantSnapshot{
		Variant:    name,
		Execs:      vs.execs,
		Rows:       vs.rows,
		LocalExecs: vs.localExecs,
		Remote:     vs.remote,
		Hits:       vs.hits,
		Misses:     vs.misses,
		Degraded:   vs.degraded,
		Errs:       vs.errs,
		TotalMs:    h.Mean() * float64(h.Count()) * secToMs,
		MeanMs:     h.Mean() * secToMs,
		P50Ms:      h.Quantile(0.50) * secToMs,
		P95Ms:      h.Quantile(0.95) * secToMs,
		P99Ms:      h.Quantile(0.99) * secToMs,
		LastMs:     vs.lastMs,
		MaxStale:   vs.maxStale,
		Plan:       vs.plan,
		Analyzed:   vs.analyzed,
		Literals:   vs.literals,
	}
}

// Snapshot returns a copy of every retained shape, most recently executed
// first. The store lock is held only long enough to list entries and sum
// counters; histogram reads take the per-histogram locks.
func (s *Store) Snapshot() []ShapeSnapshot {
	s.mu.Lock()
	ents := make([]*shapeEntry, 0, s.lru.Len())
	for e := s.lru.Front(); e != nil; e = e.Next() {
		ents = append(ents, e.Value.(*shapeEntry))
	}
	// Per-shape materialization happens under the lock too: variantStats
	// scalar fields are mu-guarded. Histogram quantiles are self-locked and
	// cheap at this retention (≤ 256 samples).
	out := make([]ShapeSnapshot, 0, len(ents))
	for _, ent := range ents {
		ss := ShapeSnapshot{Shape: ent.shape}
		if n := len(ent.lastErrs); n > 0 {
			ss.LastError = ent.lastErrs[n-1]
			ss.LastErrAt = ent.lastErrAt
		}
		rollLat := metrics.NewHistogram(latencySamples * 2)
		var roll VariantSnapshot
		roll.Variant = "all"
		roll.MaxStale = -1 // unknown until a variant contributes a real sample
		for name, vs := range ent.variants {
			snap := vs.snapshot(name)
			ss.Variants = append(ss.Variants, snap)
			roll.Execs += snap.Execs
			roll.Rows += snap.Rows
			roll.LocalExecs += snap.LocalExecs
			roll.Remote += snap.Remote
			roll.Hits += snap.Hits
			roll.Misses += snap.Misses
			roll.Degraded += snap.Degraded
			roll.Errs += snap.Errs
			roll.TotalMs += snap.TotalMs
			if snap.MaxStale > roll.MaxStale {
				roll.MaxStale = snap.MaxStale
			}
			roll.LastMs = snap.LastMs
			rollLat.Merge(vs.lat)
		}
		sortVariants(ss.Variants)
		if n := rollLat.Count(); n > 0 {
			roll.MeanMs = rollLat.Mean() * secToMs
			roll.P50Ms = rollLat.Quantile(0.50) * secToMs
			roll.P95Ms = rollLat.Quantile(0.95) * secToMs
			roll.P99Ms = rollLat.Quantile(0.99) * secToMs
		}
		ss.Rollup = roll
		out = append(out, ss)
	}
	s.mu.Unlock()
	return out
}

// sortVariants orders variant snapshots by descending execution count,
// ties broken by name for stable output.
func sortVariants(v []VariantSnapshot) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0; j-- {
			if v[j].Execs > v[j-1].Execs ||
				(v[j].Execs == v[j-1].Execs && v[j].Variant < v[j-1].Variant) {
				v[j], v[j-1] = v[j-1], v[j]
			} else {
				break
			}
		}
	}
}
