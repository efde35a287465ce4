package storage

import (
	"fmt"
	"sync/atomic"

	"mtcache/internal/catalog"
	"mtcache/internal/types"
)

// RowID addresses a row slot within one table's heap.
type RowID int64

// version is one committed (or in-flight) image of a row. begin/end are
// commit timestamps; an uncommitted marker is the negated id of the writing
// transaction, and end == 0 means "still live". Chains are ordered newest
// first via next.
type version struct {
	row   types.Row
	begin atomic.Int64
	end   atomic.Int64
	next  atomic.Pointer[version]
}

func newVersion(row types.Row, beginMark int64) *version {
	v := &version{row: row}
	v.begin.Store(beginMark)
	return v
}

// rowSlot is one heap slot: the head of a version chain (nil when the slot is
// free). Readers walk the chain lock-free; the single writer holding the
// table latch pushes new versions at the head.
type rowSlot struct {
	head atomic.Pointer[version]
}

// visibleAt returns the row image visible to a snapshot taken at commit
// timestamp snap, or nil if the row does not exist at that snapshot.
func (s *rowSlot) visibleAt(snap int64) types.Row {
	for v := s.head.Load(); v != nil; v = v.next.Load() {
		b := v.begin.Load()
		if b <= 0 || b > snap {
			continue // uncommitted, or committed after the snapshot
		}
		// First version committed at or before snap. Chains are newest-first,
		// so this is THE version as of snap: live unless ended by then.
		if e := v.end.Load(); e > 0 && e <= snap {
			return nil
		}
		return v.row
	}
	return nil
}

// latestFor returns the version visible to write transaction txnID: the
// newest committed version, or the transaction's own uncommitted one. The
// caller holds the table latch, so no other uncommitted versions can exist.
func (s *rowSlot) latestFor(txnID int64) *version {
	for v := s.head.Load(); v != nil; v = v.next.Load() {
		b := v.begin.Load()
		if b <= 0 && b != -txnID {
			continue
		}
		e := v.end.Load()
		if e > 0 || e == -txnID {
			return nil // deleted (committed, or by this transaction)
		}
		return v
	}
	return nil
}

// TableData is the physical storage for one table (or materialized view): a
// slotted heap of version chains plus its indexes. All mutation goes through
// a Txn so every committed change lands in the WAL; readers access it through
// a TableView, which carries the snapshot (or writer) visibility rule.
type TableData struct {
	meta    *catalog.Table
	slots   atomic.Pointer[[]*rowSlot]
	indexes atomic.Pointer[map[string]*indexData]

	// deadHint counts versions whose end has been stamped since the last GC
	// scan — an upper bound on reclaimable garbage. GC skips tables whose
	// hint is zero, so insert-only tables never pay the full-heap scan.
	deadHint atomic.Int64

	// Latch-guarded state (see Store's lock manager): the heap free list and
	// the current latch owner. owner/waiters bookkeeping lives in Store.
	free  []RowID
	owner int64 // transaction currently holding the write latch; 0 = free
}

type indexData struct {
	meta *catalog.Index
	tree *BTree
}

func newTableData(meta *catalog.Table) *TableData {
	td := &TableData{meta: meta}
	empty := []*rowSlot{}
	td.slots.Store(&empty)
	m := make(map[string]*indexData)
	if len(meta.PrimaryKey) > 0 {
		m["__pk"] = &indexData{
			meta: &catalog.Index{Name: "__pk", Table: meta.Name, Columns: meta.PrimaryKey, Unique: true},
			tree: NewBTree(),
		}
	}
	for _, idx := range meta.Indexes {
		m[keyName(idx.Name)] = buildIndex(td, idx)
	}
	td.indexes.Store(&m)
	return td
}

// buildIndex backfills an index with entries for every version in every
// chain, so snapshots older than the index build still resolve through it.
func buildIndex(td *TableData, idx *catalog.Index) *indexData {
	id := &indexData{meta: idx, tree: NewBTree()}
	for rid, slot := range *td.slots.Load() {
		for v := slot.head.Load(); v != nil; v = v.next.Load() {
			id.tree.Insert(Item{Key: indexKey(v.row, idx.Columns), RID: RowID(rid)})
		}
	}
	return id
}

// addIndexLocked publishes a new index map including idx. The caller holds
// the table latch (DDL acquires it like a writer).
func (td *TableData) addIndexLocked(idx *catalog.Index) {
	old := *td.indexes.Load()
	m := make(map[string]*indexData, len(old)+1)
	for k, v := range old {
		m[k] = v
	}
	m[keyName(idx.Name)] = buildIndex(td, idx)
	td.indexes.Store(&m)
}

func keyName(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}

func indexKey(row types.Row, cols []int) types.Row {
	k := make(types.Row, len(cols))
	for i, c := range cols {
		k[i] = row[c]
	}
	return k
}

// Meta returns the catalog definition this data belongs to.
func (td *TableData) Meta() *catalog.Table { return td.meta }

func (td *TableData) slotAt(rid RowID) *rowSlot {
	slots := *td.slots.Load()
	if rid < 0 || int(rid) >= len(slots) {
		return nil
	}
	return slots[rid]
}

// allocSlot reuses a GC-freed slot or appends a fresh one. Caller holds the
// table latch. The append publishes a new header atomically; readers holding
// the old header never index past their snapshot's length.
func (td *TableData) allocSlot() RowID {
	if n := len(td.free); n > 0 {
		rid := td.free[n-1]
		td.free = td.free[:n-1]
		return rid
	}
	slots := *td.slots.Load()
	grown := append(slots, &rowSlot{})
	td.slots.Store(&grown)
	return RowID(len(grown) - 1)
}

// index returns the named index, or the primary-key index for "__pk".
func (td *TableData) index(name string) *indexData {
	return (*td.indexes.Load())[keyName(name)]
}

// uniqueConflict reports whether a currently-live row (as seen by writer
// txnID) already carries key in the unique index id. Index entries can be
// stale — they are only removed by GC — so each candidate's live image is
// re-checked against the key.
func (td *TableData) uniqueConflict(id *indexData, key types.Row, txnID int64) bool {
	for _, rid := range id.tree.Get(key) {
		slot := td.slotAt(rid)
		if slot == nil {
			continue
		}
		if v := slot.latestFor(txnID); v != nil &&
			types.CompareRows(indexKey(v.row, id.meta.Columns), key) == 0 {
			return true
		}
	}
	return false
}

// insertLocked adds a new uncommitted version in a fresh slot. Caller holds
// the table latch.
func (td *TableData) insertLocked(txnID int64, row types.Row) (RowID, *version, error) {
	if len(row) != len(td.meta.Columns) {
		return 0, nil, fmt.Errorf("storage: %s: row has %d values, table has %d columns", td.meta.Name, len(row), len(td.meta.Columns))
	}
	idxs := *td.indexes.Load()
	for _, id := range idxs {
		if !id.meta.Unique {
			continue
		}
		k := indexKey(row, id.meta.Columns)
		if td.uniqueConflict(id, k, txnID) {
			return 0, nil, fmt.Errorf("storage: %s: duplicate key %v for unique index %s", td.meta.Name, k, id.meta.Name)
		}
	}
	rid := td.allocSlot()
	v := newVersion(row, -txnID)
	slot := td.slotAt(rid)
	v.next.Store(slot.head.Load())
	slot.head.Store(v)
	for _, id := range idxs {
		id.tree.Insert(Item{Key: indexKey(row, id.meta.Columns), RID: rid})
	}
	return rid, v, nil
}

// deleteLocked marks the writer-visible version at rid as ended by txnID.
func (td *TableData) deleteLocked(txnID int64, rid RowID) (*version, error) {
	slot := td.slotAt(rid)
	if slot == nil {
		return nil, fmt.Errorf("storage: %s: delete of missing row %d", td.meta.Name, rid)
	}
	v := slot.latestFor(txnID)
	if v == nil {
		return nil, fmt.Errorf("storage: %s: delete of missing row %d", td.meta.Name, rid)
	}
	v.end.Store(-txnID)
	return v, nil
}

// updateLocked pushes a new uncommitted version over the writer-visible one
// at rid, inserting index entries for any changed keys. Old entries stay (GC
// removes them); readers re-check keys against the visible image.
func (td *TableData) updateLocked(txnID int64, rid RowID, newRow types.Row) (*version, *version, error) {
	slot := td.slotAt(rid)
	if slot == nil {
		return nil, nil, fmt.Errorf("storage: %s: update of missing row %d", td.meta.Name, rid)
	}
	old := slot.latestFor(txnID)
	if old == nil {
		return nil, nil, fmt.Errorf("storage: %s: update of missing row %d", td.meta.Name, rid)
	}
	if len(newRow) != len(td.meta.Columns) {
		return nil, nil, fmt.Errorf("storage: %s: row width mismatch", td.meta.Name)
	}
	idxs := *td.indexes.Load()
	for _, id := range idxs {
		if !id.meta.Unique {
			continue
		}
		nk := indexKey(newRow, id.meta.Columns)
		ok := indexKey(old.row, id.meta.Columns)
		if types.CompareRows(nk, ok) == 0 {
			continue
		}
		if td.uniqueConflict(id, nk, txnID) {
			return nil, nil, fmt.Errorf("storage: %s: duplicate key %v for unique index %s", td.meta.Name, nk, id.meta.Name)
		}
	}
	v := newVersion(newRow, -txnID)
	v.next.Store(slot.head.Load())
	old.end.Store(-txnID)
	slot.head.Store(v)
	for _, id := range idxs {
		nk := indexKey(newRow, id.meta.Columns)
		if types.CompareRows(nk, indexKey(old.row, id.meta.Columns)) != 0 {
			id.tree.Insert(Item{Key: nk, RID: rid})
		}
	}
	return v, old, nil
}

// removeEntriesFor deletes index entries carried by row at rid. When onlyIfNot
// is non-nil, entries whose key also appears on that row are kept (undo of an
// update must not strip the old image's entries).
func (td *TableData) removeEntriesFor(row types.Row, rid RowID, onlyIfNot types.Row) {
	for _, id := range *td.indexes.Load() {
		k := indexKey(row, id.meta.Columns)
		if onlyIfNot != nil && types.CompareRows(k, indexKey(onlyIfNot, id.meta.Columns)) == 0 {
			continue
		}
		id.tree.Delete(Item{Key: k, RID: rid})
	}
}

// gcLocked prunes version-chain suffixes no snapshot at or after oldest can
// see, removes index entries that pointed only at pruned images, and frees
// slots whose chains empty out. Caller holds the table latch. Returns the
// number of versions reclaimed.
func (td *TableData) gcLocked(oldest int64) int {
	slots := *td.slots.Load()
	idxs := *td.indexes.Load()
	pruned := 0
	for rid, slot := range slots {
		head := slot.head.Load()
		if head == nil {
			continue
		}
		// Find the first version whose end is committed at or before oldest:
		// it and everything older is invisible to every live (and future)
		// snapshot. Ends decrease down the chain, so this is a suffix.
		var prev *version
		v := head
		for v != nil {
			if e := v.end.Load(); e > 0 && e <= oldest {
				break
			}
			prev, v = v, v.next.Load()
		}
		if v == nil {
			continue
		}
		var dead []*version
		for d := v; d != nil; d = d.next.Load() {
			dead = append(dead, d)
		}
		if prev == nil {
			slot.head.Store(nil)
		} else {
			prev.next.Store(nil)
		}
		// Drop index entries whose key no longer appears on any surviving
		// version of this slot.
		for _, id := range idxs {
			var surviving []types.Row
			for sv := slot.head.Load(); sv != nil; sv = sv.next.Load() {
				surviving = append(surviving, indexKey(sv.row, id.meta.Columns))
			}
			for _, d := range dead {
				k := indexKey(d.row, id.meta.Columns)
				keep := false
				for _, sk := range surviving {
					if types.CompareRows(sk, k) == 0 {
						keep = true
						break
					}
				}
				if !keep {
					id.tree.Delete(Item{Key: k, RID: RowID(rid)})
				}
			}
		}
		if prev == nil {
			td.free = append(td.free, RowID(rid))
		}
		pruned += len(dead)
	}
	return pruned
}

// TableView is a transaction's window onto one table. For read transactions
// it applies snapshot visibility at the transaction's pinned commit
// timestamp — entirely lock-free. For write transactions it shows the newest
// committed state plus the transaction's own uncommitted changes (the table
// latch excludes other writers).
type TableView struct {
	td   *TableData
	txn  *Txn
	snap int64
}

// Meta returns the catalog definition this data belongs to.
func (tv *TableView) Meta() *catalog.Table { return tv.td.meta }

// rowAt applies the view's visibility rule to one slot.
func (tv *TableView) rowAt(slot *rowSlot) types.Row {
	if slot == nil {
		return nil
	}
	if tv.txn.write {
		if v := slot.latestFor(tv.txn.id); v != nil {
			return v.row
		}
		return nil
	}
	return slot.visibleAt(tv.snap)
}

// Get returns the visible row at rid, or nil.
func (tv *TableView) Get(rid RowID) types.Row {
	return tv.rowAt(tv.td.slotAt(rid))
}

// Cap returns the heap slot count (upper bound for cursor iteration).
func (tv *TableView) Cap() int { return len(*tv.td.slots.Load()) }

// At returns the visible row in slot i, or nil. It is the cursor-style
// access used by the executor's Scan operator.
func (tv *TableView) At(i int) types.Row {
	return tv.Get(RowID(i))
}

// Count returns the number of visible rows.
func (tv *TableView) Count() int {
	n := 0
	tv.Scan(func(RowID, types.Row) bool { n++; return true })
	return n
}

// Scan calls fn for every visible row until fn returns false.
func (tv *TableView) Scan(fn func(RowID, types.Row) bool) {
	for rid, slot := range *tv.td.slots.Load() {
		row := tv.rowAt(slot)
		if row == nil {
			continue
		}
		if !fn(RowID(rid), row) {
			return
		}
	}
}

// Rows returns a snapshot copy of all visible rows (used for statistics
// builds and view population).
func (tv *TableView) Rows() []types.Row {
	var out []types.Row
	tv.Scan(func(_ RowID, r types.Row) bool {
		out = append(out, r)
		return true
	})
	return out
}

// IndexMeta returns the catalog definition of a stored index.
func (tv *TableView) IndexMeta(name string) *catalog.Index {
	if id := tv.td.index(name); id != nil {
		return id.meta
	}
	return nil
}

// Index returns a visibility-filtered view over the named index (or the
// primary-key index for "__pk"), pinned to the index state at call time.
func (tv *TableView) Index(name string) *IndexView {
	id := tv.td.index(name)
	if id == nil {
		return nil
	}
	return &IndexView{tv: tv, id: id, root: id.tree.pin()}
}

// PKLookup finds the RowID of the visible row with the given primary-key
// values, or -1 if absent (or the table has no primary key). It reads the
// current index root, so a write transaction sees entries for rows it
// inserted after the view was created.
func (tv *TableView) PKLookup(key types.Row) RowID {
	pk := tv.td.index("__pk")
	if pk == nil {
		return -1
	}
	for _, rid := range pk.tree.Get(key) {
		if row := tv.Get(rid); row != nil && keyEquals(row, pk.meta.Columns, key) {
			return rid
		}
	}
	return -1
}

// IndexView is a snapshot read view over one index: a pinned tree root plus
// the owning TableView's visibility rule. Index entries are never removed at
// delete/update time (only GC prunes them), so every entry is re-checked
// against the visible row image before being surfaced.
type IndexView struct {
	tv   *TableView
	id   *indexData
	root *node
}

// live reports whether the entry resolves to a visible row still carrying
// the entry's key. The key equality check both filters stale entries and
// de-duplicates updated rows that appear under old and new keys.
func (iv *IndexView) live(it Item) bool {
	row := iv.tv.Get(it.RID)
	return row != nil && keyEquals(row, iv.id.meta.Columns, it.Key)
}

// keyEquals reports whether row carries exactly key on the index columns
// cols, without materializing the row's key.
func keyEquals(row types.Row, cols []int, key types.Row) bool {
	if len(cols) != len(key) {
		return false
	}
	for i, c := range cols {
		if types.Compare(row[c], key[i]) != 0 {
			return false
		}
	}
	return true
}

func (iv *IndexView) filtered(fn func(Item) bool) func(Item) bool {
	return func(it Item) bool {
		if !iv.live(it) {
			return true
		}
		return fn(it)
	}
}

// Get returns the RowIDs of visible entries whose key equals key exactly.
func (iv *IndexView) Get(key types.Row) []RowID {
	var out []RowID
	for _, rid := range iv.root.get(key) {
		if iv.live(Item{Key: key, RID: rid}) {
			out = append(out, rid)
		}
	}
	return out
}

// AppendMatches appends to dst, in index order, the visible rows whose index
// key starts with prefix (equality on the leading len(prefix) key columns)
// and returns the extended slice. Beyond dst's growth it allocates nothing:
// it is the per-probe seek of a lookup join, where a closure per call would
// cost more than the seek.
func (iv *IndexView) AppendMatches(dst []types.Row, prefix types.Row) []types.Row {
	dst, _ = iv.appendMatches(iv.root, dst, prefix)
	return dst
}

// appendMatches walks n from the first entry >= prefix; false means the walk
// passed the last entry carrying the prefix.
func (iv *IndexView) appendMatches(n *node, dst []types.Row, prefix types.Row) ([]types.Row, bool) {
	start, _ := n.find(Item{Key: prefix, RID: -1 << 62})
	for i := start; i <= len(n.items); i++ {
		if !n.leaf() {
			var more bool
			if dst, more = iv.appendMatches(n.children[i], dst, prefix); !more {
				return dst, false
			}
		}
		if i == len(n.items) {
			break
		}
		it := n.items[i]
		if len(it.Key) < len(prefix) || types.CompareRows(it.Key[:len(prefix)], prefix) != 0 {
			return dst, false
		}
		if row := iv.tv.Get(it.RID); row != nil && keyEquals(row, iv.id.meta.Columns, it.Key) {
			dst = append(dst, row)
		}
	}
	return dst, true
}

// Walk visits the visible entries whose key, cut to the bound's length, lies
// in [lo, hi] — a nil bound is open — in key order, or in reverse key order
// when desc is set, until fn returns false. Bounds are key prefixes, so a
// multi-column index supports prefix range reads in either direction. Both
// directions read the pinned root and apply the same filter: the entry's row
// must be visible to the view and still carry the entry's key.
func (iv *IndexView) Walk(lo, hi types.Row, desc bool, fn func(Item) bool) {
	visit := iv.filtered(fn)
	if desc {
		iv.root.descend(hi, func(it Item) bool {
			if lo != nil && prefixCmp(it.Key, lo) < 0 {
				return false
			}
			return visit(it)
		})
		return
	}
	bounded := func(it Item) bool {
		if hi != nil && prefixCmp(it.Key, hi) > 0 {
			return false
		}
		return visit(it)
	}
	if lo == nil {
		iv.root.ascend(Item{}, false, bounded)
		return
	}
	iv.root.ascend(Item{Key: lo, RID: -1 << 62}, true, bounded)
}
