// Package imcache implements the intermediate-result cache: hot
// query-produced results (join/agg outputs) are fingerprinted by their
// normalized shape plus bound parameter values, admitted after repeated
// executions cross a benefit threshold, kept under a benefit-weighted
// byte budget, and invalidated coarsely by table lineage whenever the
// replication apply path (or local DML) touches a source table.
//
// Invalidation is a freshness transition, not an immediate drop: a
// touched entry becomes *stale* at the invalidation instant, which makes
// it invisible to ordinary queries (they demand staleness 0) but still
// usable under a WITH FRESHNESS bound that covers its age. Entries stale
// for longer than Options.MaxStaleAge are discarded outright.
//
// There is one reuse tier: an admitted entry serves exact-match lookups
// (same shape, same parameter values) straight from the engine before
// planning. The optimizer never sees the cache, so nothing that happens
// here — admit, stale, refresh, evict — can invalidate a cached plan.
//
// A result computed before an invalidation must not be admitted after it:
// the caller takes Stamp before it opens its read snapshot and hands it
// back in Observation.Stamp; Observe drops an observation whose stamp
// predates the last invalidation of any lineage table.
package imcache

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"mtcache/internal/exec"
	"mtcache/internal/metrics"
	"mtcache/internal/types"
)

// Options bounds the cache. Zero values select the defaults.
type Options struct {
	MaxBytes      int64         // total result-byte budget (default 64 MiB)
	MaxEntryBytes int64         // largest admissible single result (default MaxBytes/8)
	AdmitAfter    int           // executions of a key before admission (default 2)
	MaxTracked    int           // candidate keys tracked for admission (default 512)
	MaxStaleAge   time.Duration // stale entries older than this are dropped (default 5m)
}

func (o Options) withDefaults() Options {
	if o.MaxBytes <= 0 {
		o.MaxBytes = 64 << 20
	}
	if o.MaxEntryBytes <= 0 {
		o.MaxEntryBytes = o.MaxBytes / 8
	}
	if o.AdmitAfter <= 0 {
		o.AdmitAfter = 2
	}
	if o.MaxTracked <= 0 {
		o.MaxTracked = 512
	}
	if o.MaxStaleAge <= 0 {
		o.MaxStaleAge = 5 * time.Minute
	}
	return o
}

// Observation describes one completed execution of a cacheable statement.
type Observation struct {
	Key     string         // result key: normalized shape + bound literal values
	Shape   string         // normalized statement shape (querystore key)
	Args    string         // rendered literal values, for sys.* display only
	Cols    []exec.ColInfo // result schema
	Rows    []types.Row    // materialized result; must not be mutated after the call
	Lineage []string       // lowercased source tables (base tables and cached views)
	LSN     uint64         // MVCC snapshot LSN the result was computed at
	CostNs  int64          // wall time spent computing the result
	Stamp   uint64         // Cache.Stamp taken before the read snapshot opened
}

// Entry is one admitted intermediate result.
type Entry struct {
	Key        string
	Shape      string
	Args       string
	Cols       []exec.ColInfo
	Rows       []types.Row
	Bytes      int64
	Lineage    []string
	LSN        uint64
	ComputedAt time.Time
	CostNs     int64

	hits     int64
	savedNs  int64
	lastUsed time.Time
	staleAt  time.Time // zero = fresh; else the invalidation instant
}

// staleness returns how long the entry has been stale (0 when fresh).
func (e *Entry) staleness(now time.Time) time.Duration {
	if e.staleAt.IsZero() {
		return 0
	}
	d := now.Sub(e.staleAt)
	if d < 0 {
		return 0
	}
	return d
}

// weight is the benefit density used by eviction: cheaper-to-lose entries
// (low recompute cost, few hits, many bytes) have low weight. Stale
// entries always order before fresh ones.
func (e *Entry) weight() float64 {
	b := e.Bytes
	if b <= 0 {
		b = 1
	}
	return float64(e.CostNs) * float64(1+e.hits) / float64(b)
}

// Hit is the payload returned by Lookup. Rows aliases the cached result
// and must be treated as immutable.
type Hit struct {
	Cols      []exec.ColInfo
	Rows      []types.Row
	LSN       uint64
	Staleness time.Duration
}

// candidate tracks a not-yet-admitted key's execution history.
type candidate struct {
	count   int
	totalNs int64
	seen    int64 // admission-order tick, for bounding the tracker
	tooBig  bool  // result exceeded MaxEntryBytes; never admit
}

// Cache is the intermediate-result cache. All methods are safe for
// concurrent use.
type Cache struct {
	mu      sync.Mutex
	opts    Options
	entries map[string]*Entry
	cands   map[string]*candidate
	bytes   int64
	tick    int64

	// seq counts Invalidate calls; lastInval holds, per lowercased table,
	// the seq of its last one. seq is atomic so Stamp takes no lock.
	seq       atomic.Uint64
	lastInval map[string]uint64
}

// New creates a cache with the given bounds.
func New(opts Options) *Cache {
	return &Cache{
		opts:      opts.withDefaults(),
		entries:   make(map[string]*Entry),
		cands:     make(map[string]*candidate),
		lastInval: make(map[string]uint64),
	}
}

// Options returns the effective (defaulted) bounds.
func (c *Cache) Options() Options {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.opts
}

// Stamp returns the current invalidation sequence. A caller that will
// Observe a result takes it before opening the snapshot the result is read
// from: every write that snapshot misses invalidates after the stamp.
func (c *Cache) Stamp() uint64 { return c.seq.Load() }

// Observe records one completed execution. It returns true when the key
// is now (or was just re-) materialized. An observation stamped before the
// last invalidation of one of its lineage tables may hold pre-write rows:
// it is dropped — not admitted, not refreshed, not counted toward
// AdmitAfter.
func (c *Cache) Observe(obs Observation, now time.Time) bool {
	if obs.Key == "" || len(obs.Lineage) == 0 {
		return false
	}
	bytes := estimateBytes(obs.Cols, obs.Rows)
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, t := range obs.Lineage {
		if obs.Stamp < c.lastInval[strings.ToLower(t)] {
			return false
		}
	}

	if e, ok := c.entries[obs.Key]; ok {
		// A recomputation of an admitted entry means the cached copy was
		// stale (or bypassed); refresh it in place with the new snapshot.
		c.bytes += bytes - e.Bytes
		e.Cols, e.Rows, e.Bytes = obs.Cols, obs.Rows, bytes
		e.LSN, e.ComputedAt, e.CostNs = obs.LSN, now, obs.CostNs
		e.lastUsed = now
		e.staleAt = time.Time{}
		c.evictToFitLocked(obs.Key)
		c.publishLocked()
		return c.entries[obs.Key] != nil
	}

	cand := c.cands[obs.Key]
	if cand == nil {
		cand = &candidate{}
		c.cands[obs.Key] = cand
		c.boundCandidatesLocked()
	}
	c.tick++
	cand.count++
	cand.totalNs += obs.CostNs
	cand.seen = c.tick
	if bytes > c.opts.MaxEntryBytes {
		cand.tooBig = true
	}
	if cand.tooBig || cand.count < c.opts.AdmitAfter {
		c.publishLocked()
		return false
	}

	e := &Entry{
		Key:        obs.Key,
		Shape:      obs.Shape,
		Args:       obs.Args,
		Cols:       obs.Cols,
		Rows:       obs.Rows,
		Bytes:      bytes,
		Lineage:    lowerAll(obs.Lineage),
		LSN:        obs.LSN,
		ComputedAt: now,
		CostNs:     cand.totalNs / int64(cand.count),
		lastUsed:   now,
	}
	if e.CostNs <= 0 {
		e.CostNs = 1
	}
	delete(c.cands, obs.Key)
	c.entries[obs.Key] = e
	c.bytes += e.Bytes
	c.evictToFitLocked(obs.Key)
	if c.entries[obs.Key] == nil {
		c.publishLocked()
		return false // could not fit even after evicting everything else
	}
	metrics.Default.Counter("imcache.admits").Add(1)
	c.publishLocked()
	return true
}

// Lookup serves an exact-match hit for key when the entry's staleness is
// within maxStale (pass 0 to demand a fresh entry). An entry found stale
// beyond MaxStaleAge is dropped, never served.
func (c *Cache) Lookup(key string, now time.Time, maxStale time.Duration) (Hit, bool) {
	if key == "" {
		return Hit{}, false
	}
	var hit Hit
	var ok bool
	c.mu.Lock()
	defer c.mu.Unlock()
	e, present := c.entries[key]
	if present && c.overStale(e, now) {
		c.removeLocked(key)
		present = false
	}
	if present {
		// A fresh entry serves any request; a stale one needs a positive
		// freshness budget covering its age (the invalidation instant
		// itself computes staleness 0, so IsZero is the fresh test).
		if st := e.staleness(now); e.staleAt.IsZero() || (maxStale > 0 && st <= maxStale) {
			e.hits++
			e.savedNs += e.CostNs
			e.lastUsed = now
			hit = Hit{Cols: e.Cols, Rows: e.Rows, LSN: e.LSN, Staleness: st}
			ok = true
		}
	}
	if ok {
		metrics.Default.Counter("imcache.hits").Add(1)
	} else {
		metrics.Default.Counter("imcache.misses").Add(1)
	}
	c.publishLocked()
	return hit, ok
}

// Invalidate marks every fresh entry whose lineage includes table as
// stale at instant now, advances the table's invalidation sequence (see
// Stamp), and sweeps out entries stale beyond MaxStaleAge. Callers invoke
// it after the write is visible to new snapshots. It returns the number of
// entries transitioned.
func (c *Cache) Invalidate(table string, now time.Time) int {
	lower := strings.ToLower(table)
	n := 0
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lastInval[lower] = c.seq.Add(1)
	for _, e := range c.entries {
		if !e.staleAt.IsZero() || !lineageHas(e.Lineage, lower) {
			continue
		}
		e.staleAt = now
		n++
	}
	if n > 0 {
		metrics.Default.Counter("imcache.invalidations").Add(int64(n))
	}
	c.dropOverStaleLocked(now)
	c.publishLocked()
	return n
}

// EntryInfo is a point-in-time description of one entry for sys.* output.
type EntryInfo struct {
	Shape            string
	Args             string
	Rows             int
	Bytes            int64
	Hits             int64
	SavedNs          int64
	Lineage          []string
	LSN              uint64
	StalenessSeconds float64
}

// Snapshot lists every entry, hottest first.
func (c *Cache) Snapshot(now time.Time) []EntryInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]EntryInfo, 0, len(c.entries))
	for _, e := range c.entries {
		out = append(out, EntryInfo{
			Shape:            e.Shape,
			Args:             e.Args,
			Rows:             len(e.Rows),
			Bytes:            e.Bytes,
			Hits:             e.hits,
			SavedNs:          e.savedNs,
			Lineage:          append([]string(nil), e.Lineage...),
			LSN:              e.LSN,
			StalenessSeconds: e.staleness(now).Seconds(),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Hits != out[j].Hits {
			return out[i].Hits > out[j].Hits
		}
		return out[i].Shape < out[j].Shape
	})
	return out
}

// Len returns the number of admitted entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Bytes returns the current total result bytes.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Clear drops every entry and candidate.
func (c *Cache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for key := range c.entries {
		c.removeLocked(key)
	}
	c.cands = make(map[string]*candidate)
	c.publishLocked()
}

// removeLocked drops one entry and counts the eviction.
func (c *Cache) removeLocked(key string) {
	e, ok := c.entries[key]
	if !ok {
		return
	}
	delete(c.entries, key)
	c.bytes -= e.Bytes
	metrics.Default.Counter("imcache.evictions").Add(1)
}

// evictToFitLocked evicts lowest-weight entries (stale first) until the
// byte budget holds. keep is never evicted unless it alone exceeds the
// budget, in which case it too is dropped.
func (c *Cache) evictToFitLocked(keep string) {
	for c.bytes > c.opts.MaxBytes {
		var victim *Entry
		for _, e := range c.entries {
			if e.Key == keep {
				continue
			}
			if victim == nil || evictBefore(e, victim) {
				victim = e
			}
		}
		if victim == nil {
			// Only the protected entry remains and it still overflows.
			c.removeLocked(keep)
			return
		}
		c.removeLocked(victim.Key)
	}
}

// evictBefore reports whether a should be evicted before b.
func evictBefore(a, b *Entry) bool {
	as, bs := !a.staleAt.IsZero(), !b.staleAt.IsZero()
	if as != bs {
		return as // stale entries go first
	}
	if aw, bw := a.weight(), b.weight(); aw != bw {
		return aw < bw
	}
	return a.lastUsed.Before(b.lastUsed)
}

// overStale reports whether e has been stale for longer than MaxStaleAge.
func (c *Cache) overStale(e *Entry, now time.Time) bool {
	return e.staleness(now) > c.opts.MaxStaleAge
}

// dropOverStaleLocked removes every entry stale for longer than
// MaxStaleAge. It is O(entries), so only Invalidate — already a full scan —
// runs it; Lookup checks just the entry it touches, and eviction takes
// stale entries first anyway.
func (c *Cache) dropOverStaleLocked(now time.Time) {
	for key, e := range c.entries {
		if c.overStale(e, now) {
			c.removeLocked(key)
		}
	}
}

// boundCandidatesLocked keeps the admission tracker under MaxTracked by
// dropping the least-promising candidate (fewest executions, oldest).
func (c *Cache) boundCandidatesLocked() {
	for len(c.cands) > c.opts.MaxTracked {
		var worstKey string
		var worst *candidate
		for k, cand := range c.cands {
			if worst == nil || cand.count < worst.count ||
				(cand.count == worst.count && cand.seen < worst.seen) {
				worstKey, worst = k, cand
			}
		}
		delete(c.cands, worstKey)
	}
}

// publishLocked refreshes the imcache.bytes gauge.
func (c *Cache) publishLocked() {
	metrics.Default.Gauge("imcache.bytes").Set(float64(c.bytes))
}

// valueBytes is what one value occupies in a row, whatever types.Value's
// layout becomes (a compile-time constant; the package's one use of unsafe).
const valueBytes = int64(unsafe.Sizeof(types.Value{}))

// estimateBytes approximates the retained size of a result: the values
// themselves plus string payloads.
func estimateBytes(cols []exec.ColInfo, rows []types.Row) int64 {
	total := int64(64) // entry header
	for _, col := range cols {
		total += int64(len(col.Table) + len(col.Name) + 16)
	}
	for _, row := range rows {
		total += 24 // slice header
		for i := range row {
			total += valueBytes + int64(len(row[i].S))
		}
	}
	return total
}

func lowerAll(in []string) []string {
	out := make([]string, 0, len(in))
	seen := make(map[string]bool, len(in))
	for _, s := range in {
		l := strings.ToLower(s)
		if !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	sort.Strings(out)
	return out
}

func lineageHas(lineage []string, lower string) bool {
	for _, l := range lineage {
		if l == lower {
			return true
		}
	}
	return false
}
