package engine

import (
	"cmp"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mtcache/internal/imcache"
	"mtcache/internal/metrics"
	"mtcache/internal/opt"
	"mtcache/internal/sql"
	"mtcache/internal/trace"
)

// The query store (SQL Server's, in miniature) is not a table of its own: a
// SELECT's runtime statistics live on its plan-cache entry, split by plan
// variant — where the plan ran (local / remote / mixed / dynamic, imcache for
// a result-cache answer, degraded-local), suffixed with the cached views it
// read — because one shape legitimately runs under different plans as
// freshness bounds and backend availability change. So the statistics are
// this Database's, their shape is the entry's statement's CacheKey(), and they
// are bounded by the plan cache: they go when the entry is evicted or flushed
// (InvalidatePlans says why). Each entry has its own lock; recording a
// statement takes no lock another shape takes.

const (
	latencySamples = 256 // per-variant histogram retention
	errorRing      = 4   // last-N errors kept per shape
	// slowRearm is the least time between two captures of one variant, so a
	// persistently slow shape does not pay instrumentation on every run.
	slowRearm = 10 * time.Second
)

// shapeStats is a SELECT entry's query-store row. Its zero value is empty and
// allocates nothing: the first recorded execution makes its first variant.
type shapeStats struct {
	mu        sync.Mutex
	variants  []*variantStats // in order of first execution
	lastErrs  []string        // ring, newest last, capped at errorRing
	lastErrAt time.Time

	// capture is armed by a slow execution; the next execution that clears it
	// runs instrumented and keeps its EXPLAIN ANALYZE tree.
	capture atomic.Bool
}

// variantStats accumulates executions of one shape under one plan variant.
// All fields are guarded by the shape's mutex except lat, which has its own.
type variantStats struct {
	name       string
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
	analyzed   string    // most recent EXPLAIN ANALYZE (slow-query capture)
	literals   string    // bound literal values of the captured execution
	analyzedAt time.Time // start of the captured statement; zero until the first capture
}

func (s *shapeStats) variant(name string) *variantStats {
	for _, vs := range s.variants {
		if vs.name == name {
			return vs
		}
	}
	// maxStale starts at -1 ("staleness never observed"), matching the
	// Record.Staleness sentinel: a variant that only ever ran with unknown
	// staleness must not report 0 — or worse, a negative sample — as a real
	// bound.
	vs := &variantStats{name: name, lat: metrics.NewHistogram(latencySamples), maxStale: -1}
	s.variants = append(s.variants, vs)
	return vs
}

// record accumulates one statement that a tier answered or failed trying to,
// and arms slow-query capture when its latency reached slow (never when slow
// <= 0). The latency kept is the answering tier's — the lookup for a
// result-cache hit, the execution otherwise — and only a consulted plan cache
// tallies a hit or miss.
func (s *shapeStats) record(r *trace.Record, err error, slow time.Duration) {
	dur := r.Stages[trace.StageExec]
	if r.Tier == trace.TierIMCache {
		dur = r.Stages[trace.StageLookup]
	}
	s.mu.Lock()
	vs := s.variant(r.Variant)
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
	if err != nil {
		vs.errs++
		if len(s.lastErrs) >= errorRing {
			copy(s.lastErrs, s.lastErrs[1:])
			s.lastErrs = s.lastErrs[:errorRing-1]
		}
		s.lastErrs = append(s.lastErrs, err.Error())
		s.lastErrAt = r.Start
	}
	arm := slow > 0 && dur >= slow && (vs.analyzedAt.IsZero() || r.Start.Sub(vs.analyzedAt) >= slowRearm)
	s.mu.Unlock()
	if arm {
		s.capture.Store(true)
	}
	vs.lat.ObserveDuration(dur)
}

// keepAnalyzed saves the EXPLAIN ANALYZE tree of a captured execution that
// began at start. literals are the auto-parameterized literal values bound to
// it ("" when the text had none), so a slow normalized shape can be replayed
// with the exact values that were slow.
func (s *shapeStats) keepAnalyzed(variant, text, literals string, start time.Time) {
	s.mu.Lock()
	vs := s.variant(variant)
	vs.analyzed, vs.literals, vs.analyzedAt = text, literals, start
	s.mu.Unlock()
	metrics.Default.Counter("querystore.slow_captures").Add(1)
}

// SetSlowThreshold sets the latency at which a shape arms slow-query capture:
// its next execution runs instrumented and keeps the EXPLAIN ANALYZE tree
// (sys.query_plans, \slow). d <= 0 turns capture off. The default is 100ms.
func (db *Database) SetSlowThreshold(d time.Duration) { db.slowNanos.Store(int64(d)) }

// VariantSnapshot is one variant's statistics, as sys.query_plans and the
// servers' /debug/status report them.
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

// ShapeSnapshot is one shape's statistics: its variants plus a rollup across
// them (latency histograms merged, counts summed), as sys.query_stats reports
// it.
type ShapeSnapshot struct {
	Shape     string            `json:"shape"`
	Rollup    VariantSnapshot   `json:"rollup"`
	Variants  []VariantSnapshot `json:"variants"`
	LastError string            `json:"last_error,omitempty"`
	LastErrAt time.Time         `json:"last_error_at,omitempty"`

	// What the result cache has learned about the shape (imcache.ShapeInfo):
	// its hits, its admissions that died unhit, and whether its executions
	// use the result cache now.
	ResultHits int64 `json:"result_cache_hits"`
	ResultDead int64 `json:"result_cache_dead"`
	ResultOn   bool  `json:"uses_result_cache"`
}

const secToMs = 1000.0

func (vs *variantStats) snapshot() VariantSnapshot {
	h := vs.lat
	return VariantSnapshot{
		Variant:    vs.name,
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
		Analyzed:   vs.analyzed,
		Literals:   vs.literals,
	}
}

// QueryStore returns this database's query-store rows, one per SELECT entry
// of its plan cache that has recorded an execution, most recently used first,
// each with what the result cache has learned about its shape.
// The plan-cache lock is held only to list the entries; each entry's
// statistics are read under its own lock. A variant's plan is the entry's
// plan when it is the variant that plan names: the plan every execution of the
// entry shares, which is the one EXPLAIN shows for the shape.
func (db *Database) QueryStore() []ShapeSnapshot {
	var ents []*planEntry
	db.plansMu.Lock()
	db.plans.each(func(e *planEntry) {
		if _, ok := e.stmt.(*sql.SelectStmt); ok {
			ents = append(ents, e)
		}
	})
	db.plansMu.Unlock()
	var learned map[string]imcache.ShapeInfo
	on := db.imc != nil && db.imcOn.Load()
	if on {
		learned = db.imc.Shapes()
	}
	out := make([]ShapeSnapshot, 0, len(ents))
	for _, e := range ents {
		cp := e.plan.Load()
		if ss, ok := e.stats.snapshot(e.stmt.(*sql.SelectStmt).CacheKey(), cp); ok {
			info := learned[ss.Shape]
			ss.ResultHits, ss.ResultDead = info.Hits, info.Dead
			ss.ResultOn = on && !info.Off && (cp == nil || cp.lineage != nil)
			out = append(out, ss)
		}
	}
	return out
}

// snapshot is the shape's row, false while it has recorded nothing.
func (s *shapeStats) snapshot(shape string, cp *cachedPlan) (ShapeSnapshot, bool) {
	s.mu.Lock()
	if len(s.variants) == 0 {
		s.mu.Unlock()
		return ShapeSnapshot{}, false
	}
	ss := ShapeSnapshot{Shape: shape}
	if n := len(s.lastErrs); n > 0 {
		ss.LastError = s.lastErrs[n-1]
		ss.LastErrAt = s.lastErrAt
	}
	rollLat := metrics.NewHistogram(latencySamples * 2)
	roll := VariantSnapshot{Variant: "all", MaxStale: -1} // unknown until a variant contributes a real sample
	for _, vs := range s.variants {
		snap := vs.snapshot()
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
	s.mu.Unlock()
	for i := range ss.Variants {
		if cp != nil && ss.Variants[i].Variant == cp.Variant {
			ss.Variants[i].Plan = opt.Explain(cp.Plan)
		}
	}
	// Most executed first, ties by name for a stable order.
	slices.SortFunc(ss.Variants, func(a, b VariantSnapshot) int {
		if a.Execs != b.Execs {
			return cmp.Compare(b.Execs, a.Execs)
		}
		return strings.Compare(a.Variant, b.Variant)
	})
	if rollLat.Count() > 0 {
		roll.MeanMs = rollLat.Mean() * secToMs
		roll.P50Ms = rollLat.Quantile(0.50) * secToMs
		roll.P95Ms = rollLat.Quantile(0.95) * secToMs
		roll.P99Ms = rollLat.Quantile(0.99) * secToMs
	}
	ss.Rollup = roll
	return ss, true
}
