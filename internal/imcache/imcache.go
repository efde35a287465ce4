// Package imcache implements the intermediate-result cache: hot
// query-produced results (join/agg outputs) are identified by a Key — the
// statement's shape plus a hash of the values it binds — admitted after
// repeated executions cross a benefit threshold, kept under a
// benefit-weighted byte budget, and invalidated coarsely by table lineage
// whenever the replication apply path (or local DML) touches a source table.
//
// An invalidated entry is a refresh slot, never served: a touched entry
// becomes *stale*, which makes every lookup of it miss, whatever freshness
// the statement accepts, while it keeps its place — the next execution of
// its key refreshes it in place, with no AdmitAfter wait — and goes first
// under byte pressure. The cache has no clock: how far a result may trail
// the backend is the server's one replication staleness, not the entry's.
//
// There is one reuse tier: an admitted entry serves exact-match lookups
// straight from the engine before planning. A lookup names the entry by its
// Key and hands over the values themselves; the entry keeps the values it was
// computed under and serves only values == to them, kind included, so two
// value lists that hash alike cost a miss, never a wrong row. The optimizer
// never sees the cache, so nothing that happens here — admit, stale,
// refresh, evict — can invalidate a cached plan.
//
// A result computed before an invalidation must not be admitted after it:
// the caller takes Stamp before it opens its read snapshot and hands it
// back in Observation.Stamp; Observe drops an observation whose stamp
// predates the last invalidation of any lineage table.
package imcache

import (
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"

	"mtcache/internal/exec"
	"mtcache/internal/metrics"
	"mtcache/internal/types"
)

// Options bounds the cache. Zero values select the defaults.
type Options struct {
	MaxBytes      int64 // total result-byte budget (default 64 MiB)
	MaxEntryBytes int64 // largest admissible single result (default MaxBytes/8)
	AdmitAfter    int   // executions of a key before admission (default 2)
	MaxTracked    int   // candidate keys tracked for admission (default 512)
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
	return o
}

// Key names one result: the shape of the statement that computed it (the
// query-store key) and a hash of the values the execution bound to the
// parameters the shape references, in the shape's order.
type Key struct {
	Shape string
	Hash  uint64
}

// KeyOf is vals' key under shape. Each value's kind is folded in beside
// Value.Hash, which hashes the numeric kinds alike: the BOOL TRUE and the INT
// 1 are different results. It allocates nothing.
func KeyOf(shape string, vals []types.Value) Key {
	h := uint64(14695981039346656037) // FNV-1a's offset basis and prime
	for i := range vals {
		h = (h ^ uint64(vals[i].K)) * 1099511628211
		h = (h ^ vals[i].Hash()) * 1099511628211
	}
	return Key{Shape: shape, Hash: h}
}

// Observation describes one completed execution of a cacheable statement.
type Observation struct {
	Key     Key
	Vals    []types.Value  // the values Key hashes; must not be mutated after the call
	Args    string         // rendered literal values, for sys.* display only
	Cols    []exec.ColInfo // result schema
	Rows    []types.Row    // materialized result; must not be mutated after the call
	Lineage []string       // source tables (base tables and cached views); kept, not copied
	LSN     uint64         // MVCC snapshot LSN the result was computed at
	CostNs  int64          // wall time spent computing the result
	Stamp   uint64         // Cache.Stamp taken before the read snapshot opened
}

// Entry is one admitted intermediate result.
type Entry struct {
	Key     Key
	Vals    []types.Value // the only values the entry serves
	Args    string
	Cols    []exec.ColInfo
	Rows    []types.Row
	Bytes   int64
	Lineage []string
	LSN     uint64
	CostNs  int64

	hits     int64
	savedNs  int64
	lastUsed int64 // the cache's tick at the last admit, refresh or hit
	stale    bool  // invalidated: awaiting the refresh its next execution brings
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
	Cols []exec.ColInfo
	Rows []types.Row
	LSN  uint64
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
	entries map[Key]*Entry
	cands   map[Key]*candidate
	bytes   int64
	tick    int64 // orders admissions, refreshes and hits

	// seq counts Invalidate calls; lastInval holds, per lowercased table,
	// the seq of its last one. seq is atomic so Stamp takes no lock.
	seq       atomic.Uint64
	lastInval map[string]uint64
}

// New creates a cache with the given bounds.
func New(opts Options) *Cache {
	return &Cache{
		opts:      opts.withDefaults(),
		entries:   make(map[Key]*Entry),
		cands:     make(map[Key]*candidate),
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
func (c *Cache) Observe(obs Observation) bool {
	if obs.Key.Shape == "" || len(obs.Lineage) == 0 {
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
		// stale (or bypassed, or held other values under the same key);
		// refresh it in place with the new snapshot.
		c.tick++
		c.bytes += bytes - e.Bytes
		e.Vals, e.Args = obs.Vals, obs.Args
		e.Cols, e.Rows, e.Bytes = obs.Cols, obs.Rows, bytes
		e.LSN, e.CostNs = obs.LSN, obs.CostNs
		e.lastUsed, e.stale = c.tick, false
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
		Key:      obs.Key,
		Vals:     obs.Vals,
		Args:     obs.Args,
		Cols:     obs.Cols,
		Rows:     obs.Rows,
		Bytes:    bytes,
		Lineage:  obs.Lineage,
		LSN:      obs.LSN,
		CostNs:   cand.totalNs / int64(cand.count),
		lastUsed: c.tick,
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

// Lookup serves an exact-match hit for key when the entry is fresh and holds
// vals; a stale entry is never served. Lookup keeps no reference to vals.
func (c *Cache) Lookup(key Key, vals []types.Value) (Hit, bool) {
	if key.Shape == "" {
		return Hit{}, false
	}
	var hit Hit
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	ok = ok && !e.stale && slices.Equal(e.Vals, vals) // ==, kind for kind
	if ok {
		c.tick++
		e.hits++
		e.savedNs += e.CostNs
		e.lastUsed = c.tick
		hit = Hit{Cols: e.Cols, Rows: e.Rows, LSN: e.LSN}
		metrics.Default.Counter("imcache.hits").Add(1)
	} else {
		metrics.Default.Counter("imcache.misses").Add(1)
	}
	return hit, ok
}

// Invalidate marks every fresh entry whose lineage includes table as stale
// and advances the table's invalidation sequence (see Stamp). Callers invoke
// it after the write is visible to new snapshots. It returns the number of
// entries transitioned.
func (c *Cache) Invalidate(table string) int {
	lower := strings.ToLower(table)
	n := 0
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lastInval[lower] = c.seq.Add(1)
	for _, e := range c.entries {
		if e.stale || !lineageHas(e.Lineage, lower) {
			continue
		}
		e.stale = true
		n++
	}
	if n > 0 {
		metrics.Default.Counter("imcache.invalidations").Add(int64(n))
	}
	return n
}

// EntryInfo is a point-in-time description of one entry for sys.* output.
type EntryInfo struct {
	Shape   string
	Args    string
	Rows    int
	Bytes   int64
	Hits    int64
	SavedNs int64
	Lineage []string
	LSN     uint64
	Stale   bool // invalidated: awaiting refresh, never served
}

// Snapshot lists every entry, hottest first.
func (c *Cache) Snapshot() []EntryInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]EntryInfo, 0, len(c.entries))
	for _, e := range c.entries {
		lineage := append([]string(nil), e.Lineage...)
		sort.Strings(lineage)
		out = append(out, EntryInfo{
			Shape:   e.Key.Shape,
			Args:    e.Args,
			Rows:    len(e.Rows),
			Bytes:   e.Bytes,
			Hits:    e.hits,
			SavedNs: e.savedNs,
			Lineage: lineage,
			LSN:     e.LSN,
			Stale:   e.stale,
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
	c.cands = make(map[Key]*candidate)
	c.publishLocked()
}

// removeLocked drops one entry and counts the eviction.
func (c *Cache) removeLocked(key Key) {
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
func (c *Cache) evictToFitLocked(keep Key) {
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
	if a.stale != b.stale {
		return a.stale // entries awaiting refresh go first
	}
	if aw, bw := a.weight(), b.weight(); aw != bw {
		return aw < bw
	}
	return a.lastUsed < b.lastUsed
}

// boundCandidatesLocked keeps the admission tracker under MaxTracked by
// dropping the least-promising candidate (fewest executions, oldest).
func (c *Cache) boundCandidatesLocked() {
	for len(c.cands) > c.opts.MaxTracked {
		var worstKey Key
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

func lineageHas(lineage []string, lower string) bool {
	for _, l := range lineage {
		if strings.EqualFold(l, lower) {
			return true
		}
	}
	return false
}
