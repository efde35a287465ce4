// Package imcache implements the intermediate-result cache: hot
// query-produced results (join/agg outputs) are identified by a Key — the
// statement's shape plus a hash of the values it binds — admitted after
// repeated executions cross a benefit threshold, kept under a
// benefit-weighted byte budget, and invalidated coarsely by table lineage
// whenever the replication apply path touches a source table. Only a cache
// server keeps one.
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
// An admission or a refresh copies the rows into arrays of exactly their size,
// their strings into one of their own: the caller's rows, their values and
// the bytes of their strings live in storage it recycles once it has
// answered (engine.Result), and an entry never keeps a recycled array.
//
// Each shape learns whether the tier pays for it (Roy et al., "Don't Trash
// your Intermediate Results, Cache 'em"). An admission costs a copy, and a
// hit saves an execution, which costs several copies; an admission that is
// invalidated, evicted or replaced before its first hit saved nothing. So a
// shape keeps using the tier only while its hits number at least one per
// deadPerHit of such dead admissions, judged every judgeAfter of them. A
// shape that does not pay stops tracking candidates, admitting and looking
// up; after probeAfter executions (Lookup calls) it gets a probe window in
// which it uses the tier again and is judged afresh. Clear forgets what every
// shape has learned.
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

// Key names one result: the shape of the statement that computed it (its
// CacheKey, the shape its query-store row shows) and a hash of the values the execution bound to the
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
// The values its Key hashes travel beside it (Observe's vals), not in it: a
// slice in a struct the cache may keep would make every caller's buffer
// escape, where only an admission or a refresh keeps a copy.
type Observation struct {
	Key     Key
	Cols    []exec.ColInfo // result schema
	Rows    []types.Row    // materialized result; read during the call only (an entry keeps a copy)
	Lineage []string       // source tables (base tables and cached views); kept, not copied
	LSN     uint64         // MVCC snapshot LSN the result was computed at
	CostNs  int64          // wall time spent computing the result
	Stamp   uint64         // Cache.Stamp taken before the read snapshot opened
}

// Entry is one admitted intermediate result.
type Entry struct {
	Key     Key
	Vals    []types.Value // the only values the entry serves; replaced, never written
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
	paid     bool  // hit since its last admit or refresh
	shape    *shape
}

// A shape is judged at every judgeAfter-th dead admission of its window: it
// keeps using the tier when the window's hits number at least one per
// deadPerHit of its dead admissions. A dead admission cost one copy of a
// result; a hit saved a whole execution of it — plan lookup, read snapshot,
// operators — which costs several copies. A window that pays is halved, not
// emptied, so that one invalidation that ends many admissions at once is
// weighed against the hits before it. A shape that does not pay sits out
// probeAfter executions before its probe window.
const (
	judgeAfter = 16
	deadPerHit = 4
	probeAfter = 1024
)

// shape is what the cache has learned about one statement shape.
type shape struct {
	hits, dead       int64 // since Clear: lookups served, admissions that died unhit
	winHits, winDead int64 // the same in the current window
	off              int   // executions left until the probe window; 0 while the shape uses the tier
}

// died counts an admission that ended unhit and judges the shape when the
// window is due.
func (s *shape) died() {
	s.dead++
	if s.off > 0 {
		return // an admission made before the shape stopped; it belongs to no window
	}
	if s.winDead++; s.winDead < judgeAfter {
		return
	}
	if s.winDead > deadPerHit*s.winHits {
		s.off, s.winHits, s.winDead = probeAfter, 0, 0
		return
	}
	s.winHits, s.winDead = s.winHits/2, s.winDead/2
}

// end ends e's current admission: a dead one when no hit came. An entry
// already stale ended it when it was invalidated.
func (e *Entry) end() {
	if !e.stale && !e.paid {
		e.shape.died()
	}
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
	shapes  map[string]*shape // learned, by Key.Shape; a shape not in it uses the tier
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
		shapes:    make(map[string]*shape),
		lastInval: make(map[string]uint64),
	}
}

// Stamp returns the current invalidation sequence. A caller that will
// Observe a result takes it before opening the snapshot the result is read
// from: every write that snapshot misses invalidates after the stamp.
func (c *Cache) Stamp() uint64 { return c.seq.Load() }

// Observe records one completed execution, computed under vals, the values
// obs.Key hashes. It returns true when the key is now (or was just re-)
// materialized. Only an admission or a refresh keeps the rows, and it keeps
// a copy (see the package doc), so obs.Rows are the caller's again once
// Observe returns. Only an admission, or a refresh to other values, keeps
// the values, and it keeps a copy of its own, strings included: the caller
// may overwrite vals and the bytes of its strings once Observe returns. An
// observation stamped before the last invalidation of one of its lineage
// tables may hold pre-write rows: it is dropped — not admitted, not
// refreshed, not counted toward AdmitAfter — and so is one of a shape that
// does not use the tier now.
func (c *Cache) Observe(obs Observation, vals []types.Value) bool {
	if obs.Key.Shape == "" || len(obs.Lineage) == 0 {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	sh := c.shapes[obs.Key.Shape]
	if sh != nil && sh.off > 0 {
		return false
	}
	for _, t := range obs.Lineage {
		if obs.Stamp < c.lastInval[strings.ToLower(t)] {
			return false
		}
	}
	bytes := estimateBytes(obs.Cols, obs.Rows)

	if e, ok := c.entries[obs.Key]; ok {
		// A recomputation of an admitted entry means the cached copy was
		// stale (or bypassed, or held other values under the same key);
		// refresh it in place with the new snapshot.
		e.end()
		c.tick++
		c.bytes += bytes - e.Bytes
		if !slices.EqualFunc(e.Vals, vals, types.Identical) {
			e.Vals = ownVals(vals)
		}
		e.Cols, e.Rows, e.Bytes = obs.Cols, ownRows(obs.Rows), bytes
		e.LSN, e.CostNs = obs.LSN, obs.CostNs
		e.lastUsed, e.stale, e.paid = c.tick, false, false
		metrics.Default.Counter("imcache.refreshes").Add(1)
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

	if sh == nil {
		sh = &shape{}
		c.shapes[obs.Key.Shape] = sh
	}
	e := &Entry{
		Key:      obs.Key,
		Vals:     ownVals(vals),
		Cols:     obs.Cols,
		Rows:     ownRows(obs.Rows),
		Bytes:    bytes,
		Lineage:  obs.Lineage,
		LSN:      obs.LSN,
		CostNs:   cand.totalNs / int64(cand.count),
		lastUsed: c.tick,
		shape:    sh,
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

// ownRows copies rows into three allocations of exactly their size: one of
// row headers, one of values and one string every string value is cut from.
// Nothing of it is shared with rows, whose storage — values and string bytes
// alike — their Result recycles on release.
func ownRows(rows []types.Row) []types.Row {
	n, size := 0, 0
	for _, r := range rows {
		n += len(r)
		for i := range r {
			size += len(r[i].Str())
		}
	}
	var sb strings.Builder
	sb.Grow(size) // room for every string: its bytes never move once written
	vals, out := make([]types.Value, n), make([]types.Row, len(rows))
	for i, r := range rows {
		k := copy(vals, r)
		out[i], vals = vals[:k:k], vals[k:]
		for j, v := range out[i] {
			if s := v.Str(); s != "" {
				sb.WriteString(s)
				out[i][j] = types.NewString(sb.String()[sb.Len()-len(s):])
			}
		}
	}
	return out
}

// ownVals copies vals and every string in them.
func ownVals(vals []types.Value) []types.Value {
	kept := make([]types.Value, len(vals))
	for i, v := range vals {
		if v.K == types.KindString {
			v = types.NewString(strings.Clone(v.Str()))
		}
		kept[i] = v
	}
	return kept
}

// Lookup serves an exact-match hit for key when the entry is fresh and holds
// vals; a stale entry is never served. Lookup keeps no reference to vals. A
// lookup of a shape that does not use the tier now misses without looking
// and counts toward the shape's probe window.
func (c *Cache) Lookup(key Key, vals []types.Value) (Hit, bool) {
	if key.Shape == "" {
		return Hit{}, false
	}
	var hit Hit
	c.mu.Lock()
	defer c.mu.Unlock()
	if s := c.shapes[key.Shape]; s != nil && s.off > 0 {
		s.off-- // at 0 the next execution opens the probe window
		return hit, false
	}
	e, ok := c.entries[key]
	ok = ok && !e.stale && slices.EqualFunc(e.Vals, vals, types.Identical) // kind for kind
	if ok {
		c.tick++
		e.hits++
		e.savedNs += e.CostNs
		e.lastUsed, e.paid = c.tick, true
		e.shape.hits++
		e.shape.winHits++
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
		e.end()
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
	Vals    []types.Value // the key's values, in the shape's parameter order
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
			Vals:    e.Vals,
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

// ShapeInfo is what the cache has learned about one shape since Clear.
type ShapeInfo struct {
	Hits int64 // lookups served
	Dead int64 // admissions invalidated, evicted or replaced before their first hit
	Off  bool  // the shape does not use the tier now
}

// Shapes lists, by shape, what the cache has learned about every shape it
// has admitted a result of since Clear; a shape it does not list uses the
// tier.
func (c *Cache) Shapes() map[string]ShapeInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]ShapeInfo, len(c.shapes))
	for name, s := range c.shapes {
		out[name] = ShapeInfo{Hits: s.hits, Dead: s.dead, Off: s.off > 0}
	}
	return out
}

// Clear drops every entry and candidate and forgets what the shapes have
// learned.
func (c *Cache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for key := range c.entries {
		c.removeLocked(key)
	}
	c.cands = make(map[Key]*candidate)
	c.shapes = make(map[string]*shape)
	c.publishLocked()
}

// removeLocked drops one entry and counts the eviction.
func (c *Cache) removeLocked(key Key) {
	e, ok := c.entries[key]
	if !ok {
		return
	}
	e.end()
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
			total += valueBytes + int64(len(row[i].Str()))
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
