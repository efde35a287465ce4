package storage

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"unsafe"

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

// newVersion returns a version of row, begun by beginMark, as an object of
// its own: an update's, or a filled row's. Either dies when an update ends
// it, and a carved one would keep its chunk alive while any other version
// in it lives: under uniform updates over n rows, a 64-version chunk lives
// about 4.7·n updates (DESIGN §9, "What the store carves").
func newVersion(row types.Row, beginMark int64) *version {
	v := &version{row: row}
	v.begin.Store(beginMark)
	return v
}

// chunks carves slots the store keeps — versions, index keys, snapshot marks,
// redo records — a slice at a time from arrays it allocates a chunk at a
// time. The first chunk has firstChunk slots and each next one twice the
// last, up to the caller's limit, so that a table that takes few writes
// holds no full chunk; a request larger than the chunk it would start gets
// an array of its own. A carved slot is never carved again, so a lock-free
// reader that reached one through a published pointer never sees it
// rewritten. A chunk lives while any of its slots is referenced, so what is
// carved must die at about the rate its neighbours do. Its holder guards it
// with the lock that orders its writes.
type chunks[T any] struct {
	rest []T // the current chunk's uncarved slots
	next int // the length of the next chunk
}

// firstChunk is the length of a chunks' first chunk.
const firstChunk = 4

// carve returns n zeroed slots, n long and n in capacity.
func (c *chunks[T]) carve(n, limit int) []T {
	if n > len(c.rest) {
		size := max(c.next, firstChunk)
		c.next = min(2*size, limit)
		if n > size {
			return make([]T, n)
		}
		c.rest = make([]T, size)
	}
	s := c.rest[:n:n]
	c.rest = c.rest[n:]
	return s
}

// rowSlot is one heap slot: the head of a version chain (nil when the slot is
// free). Readers walk the chain lock-free; the single writer holding the
// table latch pushes new versions at the head.
type rowSlot struct {
	head atomic.Pointer[version]
}

// slotChunk is how many slots the heap adds at a time: slots live in
// fixed-size chunks that never move, so a new row takes a slot without an
// allocation of its own, and the chunk directory is republished only when a
// chunk is added.
const slotChunk = 64

// chunk is one block of heap slots; a slot's address never changes.
type chunk = [slotChunk]rowSlot

// slotIn returns slot i of a directory that covers it.
func slotIn(dir []*chunk, i int) *rowSlot {
	return &dir[uint(i)/slotChunk][uint(i)%slotChunk]
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
	meta *catalog.Table
	// The heap: the first nslots slots of the chunks in dir are in use. A
	// reader loads nslots before dir (heap); allocSlot stores a grown
	// directory before the count that needs it, so the directory a reader
	// loads always covers the count it loaded.
	nslots  atomic.Int64
	dir     atomic.Pointer[[]*chunk]
	indexes atomic.Pointer[map[string]*indexData]

	// deadHint counts versions whose end has been stamped since the last GC
	// scan — an upper bound on reclaimable garbage. GC skips tables whose
	// hint is zero, so insert-only tables never pay the full-heap scan.
	deadHint atomic.Int64

	// Latch-guarded state (see Store's lock manager): the heap free list, the
	// chunks an insert carves its version from and an insert or an update
	// its index keys, and the current latch owner. owner/waiters bookkeeping
	// lives in Store.
	free     []RowID
	versions chunks[version]
	keys     chunks[types.Value]
	owner    int64 // transaction currently holding the write latch; 0 = free
}

// versionChunk and keyChunk cap the chunks a table carves its inserted rows'
// versions and its index keys from: 3 KiB and 6 KiB.
const (
	versionChunk = 64
	keyChunk     = 256
)

type indexData struct {
	meta *catalog.Index
	tree *BTree
}

func newTableData(meta *catalog.Table) *TableData {
	td := &TableData{meta: meta}
	td.dir.Store(new([]*chunk))
	m := make(map[string]*indexData)
	if len(meta.PrimaryKey) > 0 {
		m["__pk"] = &indexData{
			meta: &catalog.Index{Name: "__pk", Table: meta.Name, Columns: meta.PrimaryKey, Unique: true},
			tree: NewBTree(len(meta.PrimaryKey)),
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
// The tree is built from the sorted entries in one pass.
func buildIndex(td *TableData, idx *catalog.Index) *indexData {
	id := &indexData{meta: idx, tree: NewBTree(len(idx.Columns))}
	n, dir := td.heap()
	var rows []Item
	for rid := 0; rid < n; rid++ {
		for v := slotIn(dir, rid).head.Load(); v != nil; v = v.next.Load() {
			rows = append(rows, Item{Key: v.row, RID: RowID(rid)})
		}
	}
	id.tree.build(entriesOf(rows, idx.Columns))
	return id
}

// entriesOf returns the entries on cols of rows, whose Keys hold the rows
// themselves, sorted and with repeats dropped (versions of a slot that share
// a key share an entry). The keys are cut from one array and own their
// strings (ownKey); rows is left as it was.
func entriesOf(rows []Item, cols []int) []entry {
	w := len(cols)
	slab := make(types.Row, len(rows)*w)
	es := make([]entry, len(rows))
	for i, it := range rows {
		es[i] = entry{unsafe.SliceData(ownKey(slab[:0:w], it.Key, cols)), it.RID}
		slab = slab[w:]
	}
	cmp := func(a, b entry) int { return cmpItem(a.item(w), b.item(w)) }
	slices.SortFunc(es, cmp)
	return slices.CompactFunc(es, func(a, b entry) bool { return cmp(a, b) == 0 })
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

// appendKey appends row's values on cols to dst.
func appendKey(dst, row types.Row, cols []int) types.Row {
	for _, c := range cols {
		dst = append(dst, row[c])
	}
	return dst
}

// ownKey is appendKey for a key an index keeps: its strings are copies, so
// that an entry pins its own bytes and no more of the row that made it (a
// decoded row's strings are one allocation, and an entry outlives its row's
// version when an update leaves the key as it was).
func ownKey(dst, row types.Row, cols []int) types.Row {
	for _, c := range cols {
		v := row[c]
		if v.K == types.KindString {
			v = types.NewString(strings.Clone(v.Str()))
		}
		dst = append(dst, v)
	}
	return dst
}

// heap returns the number of slots in use and a chunk directory covering
// them, loaded in that order.
func (td *TableData) heap() (int, []*chunk) {
	n := int(td.nslots.Load())
	return n, *td.dir.Load()
}

func (td *TableData) slotAt(rid RowID) *rowSlot {
	n, dir := td.heap()
	if rid < 0 || int(rid) >= n {
		return nil
	}
	return slotIn(dir, int(rid))
}

// allocSlot reuses a GC-freed slot or takes the next one of the last chunk,
// adding a chunk when that one is full. Caller holds the table latch. A
// grown directory is stored before the count: the append may write the
// shared array, but only past the length of every directory published
// before, which no reader indexes.
func (td *TableData) allocSlot() RowID {
	if n := len(td.free); n > 0 {
		rid := td.free[n-1]
		td.free = td.free[:n-1]
		return rid
	}
	n := int(td.nslots.Load())
	if dir := *td.dir.Load(); n == len(dir)*slotChunk {
		grown := append(dir, new(chunk))
		td.dir.Store(&grown)
	}
	td.nslots.Store(int64(n + 1))
	return RowID(n)
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
	return id.tree.firstMatch(key, func(rid RowID) bool {
		slot := td.slotAt(rid)
		if slot == nil {
			return false
		}
		v := slot.latestFor(txnID)
		return v != nil && keyEquals(v.row, id.meta.Columns, key)
	}) >= 0
}

// insertLocked adds a new uncommitted version in a fresh slot. Caller holds
// the table latch.
func (td *TableData) insertLocked(txnID int64, row types.Row) (RowID, *version, error) {
	if len(row) != len(td.meta.Columns) {
		return 0, nil, fmt.Errorf("storage: %s: row has %d values, table has %d columns", td.meta.Name, len(row), len(td.meta.Columns))
	}
	// Each index's key is built once: checked if the index is unique, then
	// inserted. All of the row's keys are cut from one slab, carved from the
	// table's key chunk.
	idxs := *td.indexes.Load()
	width := 0
	for _, id := range idxs {
		width += len(id.meta.Columns)
	}
	slab := td.keys.carve(width, keyChunk)
	var entriesBuf [4]indexEntry
	entries := entriesBuf[:0]
	for _, id := range idxs {
		n := len(id.meta.Columns)
		k := ownKey(slab[:0:n], row, id.meta.Columns)
		slab = slab[n:]
		if id.meta.Unique && td.uniqueConflict(id, k, txnID) {
			return 0, nil, fmt.Errorf("storage: %s: duplicate key %v for unique index %s", td.meta.Name, k, id.meta.Name)
		}
		entries = append(entries, indexEntry{id, k})
	}
	v := &td.versions.carve(1, versionChunk)[0]
	v.row = row
	v.begin.Store(-txnID)
	rid := td.pushLocked(v)
	for _, e := range entries {
		e.id.tree.Insert(Item{Key: e.key, RID: rid})
	}
	return rid, v, nil
}

// pushLocked puts v, a new version, in a fresh slot. Caller holds the table
// latch.
func (td *TableData) pushLocked(v *version) RowID {
	rid := td.allocSlot()
	slot := td.slotAt(rid)
	v.next.Store(slot.head.Load())
	slot.head.Store(v)
	return rid
}

// indexLocked adds the entries of rows — new rows, each Item's Key the row
// itself — to every index, index by index: an empty index is built from its
// sorted entries in one pass (BTree.build), any other takes them in key
// order. Every unique index is checked, against itself and among the rows,
// before any entry goes in. Caller holds the table latch.
func (td *TableData) indexLocked(txnID int64, rows []Item) error {
	idxs := *td.indexes.Load()
	type entries struct {
		id  *indexData
		its []entry
	}
	all := make([]entries, 0, len(idxs))
	for _, id := range idxs {
		its := entriesOf(rows, id.meta.Columns)
		if w := len(id.meta.Columns); id.meta.Unique {
			for i, e := range its {
				if k := e.row(w); i > 0 && types.CompareRows(its[i-1].row(w), k) == 0 || id.tree.Len() > 0 && td.uniqueConflict(id, k, txnID) {
					return fmt.Errorf("storage: %s: duplicate key %v for unique index %s", td.meta.Name, k, id.meta.Name)
				}
			}
		}
		all = append(all, entries{id, its})
	}
	for _, e := range all {
		if e.id.tree.Len() == 0 {
			e.id.tree.build(e.its)
			continue
		}
		for _, en := range e.its {
			e.id.tree.Insert(en.item(len(e.id.meta.Columns)))
		}
	}
	return nil
}

// indexEntry is an index and the key a write built for it.
type indexEntry struct {
	id  *indexData
	key types.Row
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
	// Only an index whose columns the update changes gets an entry, and its
	// key is built once: checked if the index is unique, then inserted.
	idxs := *td.indexes.Load()
	var changedBuf [4]indexEntry
	changed := changedBuf[:0]
	for _, id := range idxs {
		if sameKey(newRow, old.row, id.meta.Columns) {
			continue
		}
		nk := ownKey(td.keys.carve(len(id.meta.Columns), keyChunk)[:0], newRow, id.meta.Columns)
		if id.meta.Unique && td.uniqueConflict(id, nk, txnID) {
			return nil, nil, fmt.Errorf("storage: %s: duplicate key %v for unique index %s", td.meta.Name, nk, id.meta.Name)
		}
		changed = append(changed, indexEntry{id, nk})
	}
	v := newVersion(newRow, -txnID)
	v.next.Store(slot.head.Load())
	old.end.Store(-txnID)
	slot.head.Store(v)
	for _, e := range changed {
		e.id.tree.Insert(Item{Key: e.key, RID: rid})
	}
	return v, old, nil
}

// removeEntriesFor deletes the index entries of row, a version just unlinked
// from the chain at rid, whose key no version left in the chain carries, as
// GC does: an aborted update's key may be an older version's, which a pinned
// snapshot still reads through that entry.
func (td *TableData) removeEntriesFor(row types.Row, rid RowID) {
	slot := td.slotAt(rid)
	var keyBuf [4]types.Value
	for _, id := range *td.indexes.Load() {
		if !survives(slot, row, id.meta.Columns) {
			id.tree.Delete(Item{Key: appendKey(keyBuf[:0], row, id.meta.Columns), RID: rid})
		}
	}
}

// gcLocked prunes version-chain suffixes no snapshot at or after oldest can
// see, removes index entries that pointed only at pruned images, and frees
// slots whose chains empty out. A pruned version lets go of its row: a
// carved one stays in its chunk while its neighbours live, and no reader
// reads its row again (a reader reaching it holds a snapshot at or after
// oldest, so it finds the version ended and returns nil). Caller holds the
// table latch. Returns the number of versions reclaimed.
func (td *TableData) gcLocked(oldest int64) int {
	n, dir := td.heap()
	idxs := *td.indexes.Load()
	var keyBuf [4]types.Value // the key of an entry to delete, looked up only
	pruned := 0
	for rid := 0; rid < n; rid++ {
		slot := slotIn(dir, rid)
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
		if prev == nil {
			slot.head.Store(nil)
		} else {
			prev.next.Store(nil) // the dead suffix keeps its own links
		}
		// Drop index entries whose key no longer appears on any surviving
		// version of this slot.
		for _, id := range idxs {
			for d := v; d != nil; d = d.next.Load() {
				if !survives(slot, d.row, id.meta.Columns) {
					id.tree.Delete(Item{Key: appendKey(keyBuf[:0], d.row, id.meta.Columns), RID: RowID(rid)})
				}
			}
		}
		if prev == nil {
			td.free = append(td.free, RowID(rid))
		}
		for d := v; d != nil; d = d.next.Load() {
			d.row = nil
			pruned++
		}
	}
	return pruned
}

// survives reports whether a version still in slot's chain carries row's
// key on cols.
func survives(slot *rowSlot, row types.Row, cols []int) bool {
	for sv := slot.head.Load(); sv != nil; sv = sv.next.Load() {
		if sameKey(sv.row, row, cols) {
			return true
		}
	}
	return false
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
func (tv *TableView) Cap() int { return int(tv.td.nslots.Load()) }

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
	n, dir := tv.td.heap()
	for rid := 0; rid < n; rid++ {
		row := tv.rowAt(slotIn(dir, rid))
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

// Index returns a visibility-filtered view over the named index (or the
// primary-key index for "__pk"); ok is false when the table has no such
// index. The view reads the live tree, so a write transaction sees entries
// for rows it inserted after the view was made. Like the TableView it
// carries, the view is a value.
func (tv *TableView) Index(name string) (iv IndexView, ok bool) {
	id := tv.td.index(name)
	if id == nil {
		return IndexView{}, false
	}
	return IndexView{tv: *tv, id: id}, true
}

// PKLookup finds the RowID of the visible row with the given primary-key
// values, or -1 if absent (or the table has no primary key). Like an
// IndexView it reads the live tree and re-checks the row's key.
func (tv *TableView) PKLookup(key types.Row) RowID {
	pk := tv.td.index("__pk")
	if pk == nil {
		return -1
	}
	return pk.tree.firstMatch(key, func(rid RowID) bool {
		row := tv.Get(rid)
		return row != nil && keyEquals(row, pk.meta.Columns, key)
	})
}

// IndexView is a snapshot read view over one index: the live tree under the
// owning TableView's visibility rule. A walk of the tree holds every entry
// present for the whole walk (see node), and an entry is removed only when no
// snapshot can see its version (GC) or its transaction aborts, so the walk
// holds every entry the snapshot can see; the entries it holds beyond those
// are filtered out by re-checking each against the visible row image.
type IndexView struct {
	tv TableView
	id *indexData
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

// sameKey reports whether rows a and b carry the same key on the index
// columns cols — keyEquals for two rows.
func sameKey(a, b types.Row, cols []int) bool {
	for _, c := range cols {
		if types.Compare(a[c], b[c]) != 0 {
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

// AppendMatches appends to dst, in index order, the visible rows whose index
// key starts with prefix (equality on the leading len(prefix) key columns)
// and returns the extended slice. Beyond dst's growth it allocates nothing:
// it is the per-probe seek of a lookup join, where a closure per call would
// cost more than the seek.
func (iv *IndexView) AppendMatches(dst []types.Row, prefix types.Row) []types.Row {
	dst, _ = iv.appendMatches(iv.id.tree.top.Load(), dst, prefix)
	return dst
}

// appendMatches walks n, a node of the view's tree, from the first entry >=
// prefix; false means the walk passed the last entry carrying the prefix.
func (iv *IndexView) appendMatches(n *node, dst []types.Row, prefix types.Row) ([]types.Row, bool) {
	t := iv.id.tree
	es := n.entries()
	start, _ := t.search(es, Item{Key: prefix, RID: -1 << 62})
	for i := start; i <= es.n; i++ {
		if !n.leaf() {
			var more bool
			if dst, more = iv.appendMatches(n.child(i), dst, prefix); !more {
				return dst, false
			}
		}
		if i == es.n {
			break
		}
		e := es.at(i)
		key := t.key(e)
		if len(key) < len(prefix) || types.CompareRows(key[:len(prefix)], prefix) != 0 {
			return dst, false
		}
		if row := iv.tv.Get(e.rid); row != nil && keyEquals(row, iv.id.meta.Columns, key) {
			dst = append(dst, row)
		}
	}
	return dst, true
}

// Walk visits the visible entries whose key, cut to the bound's length, lies
// in [lo, hi] — a nil bound is open — in key order, or in reverse key order
// when desc is set, until fn returns false. Bounds are key prefixes, so a
// multi-column index supports prefix range reads in either direction. Both
// directions read the live tree and apply the same filter: the entry's row
// must be visible to the view and still carry the entry's key.
func (iv *IndexView) Walk(lo, hi types.Row, desc bool, fn func(Item) bool) {
	t := iv.id.tree
	visit := iv.filtered(fn)
	if desc {
		t.descend(t.top.Load(), hi, func(it Item) bool {
			if lo != nil && prefixCmp(it.Key, lo) < 0 {
				return false
			}
			return visit(it)
		})
		return
	}
	t.AscendRange(lo, hi, visit)
}
