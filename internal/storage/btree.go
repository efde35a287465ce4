// Package storage implements the in-memory storage engine: table heaps,
// B-tree indexes, multi-version (MVCC) transactions and a write-ahead log of
// committed changes. The log is structurally the thing SQL Server's
// transactional replication "sniffs": the log reader agent in internal/repl
// reads committed transactions from it in commit order (paper §2.2).
package storage

import (
	"fmt"
	"slices"
	"sync/atomic"
	"unsafe"

	"mtcache/internal/types"
)

// btreeOrder is the maximum number of keys per node. 64 keeps nodes around a
// cache line multiple and the tree shallow for our table sizes.
const btreeOrder = 64

// Item is one B-tree entry as the tree takes and hands it out: an index key
// plus the RowID it points at. For non-unique indexes the RowID is appended
// to the comparison so every stored entry is distinct.
type Item struct {
	Key types.Row
	RID RowID
}

// entry is an Item as the tree's arrays keep it: the address of the key's
// first value and the RowID, 16 bytes where an Item is 32. Every key a tree
// keeps is its width long — the index's column count — so the key is the
// width values from that address (row), rebuilt wherever a key is compared
// or handed out. The address keeps the key's array alive as the slice did.
type entry struct {
	key *types.Value
	rid RowID
}

// entryOf returns it as an entry of a tree whose width is len(it.Key).
func entryOf(it Item) entry { return entry{unsafe.SliceData(it.Key), it.RID} }

// row returns e's key, w values long.
func (e entry) row(w int) types.Row { return unsafe.Slice(e.key, w) }

// item returns e as the Item of a tree of width w.
func (e entry) item(w int) Item { return Item{Key: e.row(w), RID: e.rid} }

func cmpItem(a, b Item) int {
	if c := types.CompareRows(a.Key, b.Key); c != 0 {
		return c
	}
	switch {
	case a.RID < b.RID:
		return -1
	case a.RID > b.RID:
		return 1
	}
	return 0
}

// BTree is an in-memory B-tree over Items that readers walk while a writer
// changes it. A write copies only the nodes whose own arrays it changes —
// the leaf, and on a split, borrow or merge the parent that gains or loses a
// child — and publishes them with one atomic store into the child slot of the
// first ancestor it leaves unchanged (top, when no ancestor is); a split or
// merge above a node the write leaves unchanged stores that node's change
// first. A tail append — a new last entry into a leaf whose array has room —
// is published in place by the leaf's count and allocates nothing; a middle
// insert or a delete allocates the leaf's new header with its order, one
// object, and a leaf's array is copied only when it is full. Mutators must be
// externally serialized (the Store's per-table write latch does this); any
// number of readers may walk the tree while they run, under the contract
// node states.
type BTree struct {
	top   atomic.Pointer[node]
	size  atomic.Int64
	width int // every key's length: the index's column count
}

// node is one tree node, a 48-byte header. An inner node's array holds its
// entries in key order, exactly as many as it has, and kids is the first of
// its len(items)+1 child slots: an address, not a slice, as an entry's key
// is, so that a leaf's order, count and fill fit in the header's 48 bytes. A
// leaf's array is fixed when the leaf is made; it holds the leaf's entries in
// the order they arrived, in its first fill slots, with a hole wherever one
// was deleted, and its order lists the slots of its entries in key order, one
// byte per entry (Masstree's leaf permutation). A nil order means the first
// num slots are the entries, sorted: a built leaf, a split's halves, a
// compacted, borrowing or merged leaf, and one that has only taken appends at
// its end. num is the node's entry count, which a reader loads once per
// visit (entries) and reads nothing past; fill is the writer's alone.
//
// A header is never written after it is published except its child slots
// and its count, which only grows, after the entries it covers are written;
// a slot, and a count, only while the node is in the tree. A write that
// changes a node's arrays otherwise stores a copy of it in its place, and
// the replaced node keeps what it held for the readers still on it. A leaf's array and its
// order are written only past the count of every header that covers them:
// a new last entry goes into the array's next free slot, and its slot into
// the order at the count, and then the count grows by one, in place; any
// other new entry goes into the next free slot too, and is published by a new
// header with a new order. A delete publishes a new order one byte shorter
// over the same array, and its hole is never filled. A right-edge split's
// left half is a new header over the full array, one entry shorter, with no
// room (its fill is the array's length), so that nothing is written where the
// old header reads. Only a full array is copied: compacted into a new sorted
// one when the leaf has room for the new entry, split in two when it has not.
// The writer, the only one, copies slot arrays into new nodes as plain
// memory; a reader only loads slots.
//
// A node's key interval — what the separators around its slot allow — is
// fixed for as long as it is in the tree: a split, borrow or merge moves
// separators only between nodes it copies, and a delete that puts an inner
// entry's neighbour in its place copies the paths whose interval that moves
// (see deleteInner). So every store turns one valid tree into another, and a
// walk, which reads each node's entries and then its slots one at a time,
// yields entries in strict order, each at most once, and holds every entry
// that was present for the whole walk. It may hold an entry inserted or
// deleted during it; index readers re-check MVCC visibility and the exact
// key of every entry (IndexView), so they need no frozen tree.
type node struct {
	items []entry
	kids  *atomic.Pointer[node] // an inner node's first child slot; nil for a leaf
	order *[btreeOrder]uint8    // a leaf's slots in key order; nil when items is sorted
	num   atomic.Int32          // the number of entries
	fill  int32                 // a leaf's slots written, from the first
}

func (n *node) leaf() bool { return n.kids == nil }

// orderedLeaf is a leaf header and the order it publishes, one 112-byte
// object, so that a write that makes a new order allocates once.
type orderedLeaf struct {
	node
	slots [btreeOrder]uint8
}

// sortedLeaf returns a leaf of the entries of items, sorted, over its whole
// array: the slots past them are its room.
func sortedLeaf(items []entry) *node {
	l := &node{items: items[:cap(items)], fill: int32(len(items))}
	l.num.Store(int32(len(items)))
	return l
}

// ordered returns a new leaf of c entries over items, a leaf's array whose
// first fill slots are written, with an order of its own for the caller to
// fill in before it publishes the leaf.
func ordered(items []entry, c int, fill int32) *node {
	l := &orderedLeaf{node: node{items: items, fill: fill}}
	l.order = &l.slots
	l.num.Store(int32(c))
	return &l.node
}

// inner returns an inner node of items over slots, one more than items.
func inner(items []entry, slots []atomic.Pointer[node]) *node {
	if len(slots) != len(items)+1 {
		panic(fmt.Sprintf("storage: an inner node of %d entries over %d slots", len(items), len(slots)))
	}
	n := &node{items: items, kids: &slots[0]}
	n.num.Store(int32(len(items)))
	return n
}

// slots returns n's child slots, none for a leaf.
func (n *node) slots() []atomic.Pointer[node] {
	if n.kids == nil {
		return nil
	}
	return unsafe.Slice(n.kids, len(n.items)+1)
}

// child returns the node in n's slot i.
func (n *node) child(i int) *node { return n.slots()[i].Load() }

// count returns the number of n's entries.
func (n *node) count() int { return int(n.num.Load()) }

// slot returns the index in n's array of its entry at position i of its key
// order.
func (n *node) slot(i int) int {
	if n.order != nil {
		return int(n.order[i])
	}
	return i
}

// at returns n's entry at position i of its key order.
func (n *node) at(i int) entry { return n.items[n.slot(i)] }

// entries is what one visit of a node reads of it: its array, its order and
// its count, each loaded once. A leaf's count may grow while the visit runs;
// the visit reads the entries it loaded the count of.
type entries struct {
	items []entry
	order *[btreeOrder]uint8
	n     int
}

// entries loads n's entries for one visit.
func (n *node) entries() entries { return entries{n.items, n.order, n.count()} }

// at returns the entry at position i of the key order.
func (es entries) at(i int) entry {
	if es.order != nil {
		return es.items[es.order[i]]
	}
	return es.items[i]
}

// appendTo appends to dst n's entries at positions lo to hi-1, in key order.
func (n *node) appendTo(dst []entry, lo, hi int) []entry {
	for i := lo; i < hi; i++ {
		dst = append(dst, n.at(i))
	}
	return dst
}

// spliced appends to dst n's entries at positions lo to hi-1 with e before
// position i.
func (n *node) spliced(dst []entry, lo, i, hi int, e entry) []entry {
	return n.appendTo(append(n.appendTo(dst, lo, i), e), i, hi)
}

// NewBTree returns an empty tree whose keys are width values long.
func NewBTree(width int) *BTree {
	t := &BTree{width: width}
	t.top.Store(&node{})
	return t
}

// key returns the key of e, an entry of t.
func (t *BTree) key(e entry) types.Row { return e.row(t.width) }

// cmp orders e, an entry of t, against it.
func (t *BTree) cmp(e entry, it Item) int { return cmpItem(e.item(t.width), it) }

// buildFill is the most entries build puts in a node below the top: three
// quarters of a node, so that a built leaf takes a quarter of a node's middle
// inserts before it splits. A built leaf's array has no room, so its first
// middle insert copies it (into the room its size class gives, see room),
// and the next ones write in place until that room is used.
const buildFill = btreeOrder * 3 / 4

// build fills t, which must be empty, with items, which must be sorted and
// distinct (as entriesOf returns them), bottom-up: a level of more than
// btreeOrder entries is cut into as few nodes as hold at most buildFill
// entries each, their sizes as equal as they can be and the smaller ones on
// the right, and the entry between two neighbours goes up into the level
// above, until a level fits in one node, the top. A node below the top so
// holds at least minItems entries. Every array is sized to its entries,
// except the rightmost leaf's, which has room for a full leaf, so appends
// after the build do not copy it. The tree is published with one store.
func (t *BTree) build(items []entry) {
	if len(items) == 0 {
		return
	}
	size := len(items)
	var kids []atomic.Pointer[node] // the level below, one more than items; nil for leaves
	for len(items) > btreeOrder {
		k := (len(items) + buildFill + 1) / (buildFill + 1) // ⌈(len+1)/(fill+1)⌉ nodes
		per, extra := (len(items)-(k-1))/k, (len(items)-(k-1))%k
		level := make([]atomic.Pointer[node], k)
		up := make([]entry, k-1)
		for i := range level {
			n := per
			if i < extra {
				n++
			}
			if kids == nil {
				level[i].Store(sortedLeaf(tight(items[:n], i == k-1)))
			} else {
				level[i].Store(inner(tight(items[:n], false), tight(kids[:n+1], false)))
				kids = kids[n+1:]
			}
			if i < k-1 {
				up[i] = items[n]
				n++
			}
			items = items[n:]
		}
		items, kids = up, level
	}
	if kids == nil {
		t.top.Store(sortedLeaf(tight(items, true)))
	} else {
		t.top.Store(inner(tight(items, false), kids))
	}
	t.size.Add(int64(size))
}

// tight returns a copy of s in an array of its length, or of a full leaf's
// when rightmost: the array of the rightmost leaf.
func tight[E any](s []E, rightmost bool) []E {
	n := len(s)
	if rightmost {
		n = max(n, btreeOrder)
	}
	return append(make([]E, 0, n), s...)
}

// Len returns the number of entries.
func (t *BTree) Len() int { return int(t.size.Load()) }

// search locates the first position of es, a visit's entries of a node of
// t, whose entry is >= it, and whether an exact match exists there. A sorted
// array and an ordered leaf each have their own loop, with the order read
// once.
func (t *BTree) search(es entries, it Item) (int, bool) {
	lo, hi := 0, es.n
	if o := es.order; o != nil {
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if t.cmp(es.items[o[mid]], it) < 0 {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
	} else {
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if t.cmp(es.items[mid], it) < 0 {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
	}
	return lo, lo < es.n && t.cmp(es.at(lo), it) == 0
}

// Insert adds an entry, whose key must be the tree's width long; the tree
// keeps the key's array. An entry already present (same key and rid) is left
// as it is, and nothing is stored.
func (t *BTree) Insert(it Item) {
	if len(it.Key) != t.width {
		panic(fmt.Sprintf("storage: a key of %d values into an index of %d columns", len(it.Key), t.width))
	}
	top := t.top.Load()
	if top.count() >= btreeOrder {
		// A full top splits as any full child does, under a new top.
		up := make([]atomic.Pointer[node], 1)
		up[0].Store(top)
		top = inner(nil, up)
	}
	nt, added := t.insert(top, it, true)
	if nt != nil {
		t.top.Store(nt)
	}
	if added {
		t.size.Add(1)
	}
}

// has reports whether the subtree under n holds an entry equal to it.
func (t *BTree) has(n *node, it Item) bool {
	for {
		i, found := t.search(n.entries(), it)
		if found || n.leaf() {
			return found
		}
		n = n.child(i)
	}
}

// insert adds it under n, a node of the tree or a new one, and reports
// whether it did: false when the entry is present, and then nothing is
// stored. edge says n is on the tree's right edge: the top, or the last child
// of a node on it. A change to n's own arrays is made in a copy of n, which
// insert returns for the caller to store in n's place; a change below n that
// leaves n's arrays as they are is stored into n's slot, a tail append into
// n's array in place, and insert returns nil.
func (t *BTree) insert(n *node, it Item, edge bool) (*node, bool) {
	es := n.entries()
	i, found := es.n, false
	if i == 0 || t.cmp(es.at(i-1), it) >= 0 { // an entry after n's last, a tail append's at every level, needs no search
		i, found = t.search(es, it)
	}
	if found {
		return nil, false
	}
	if n.leaf() {
		return n.with(i, entryOf(it)), true
	}
	edge = edge && i == es.n
	child := n.child(i)
	if child.count() >= btreeOrder {
		if t.has(child, it) {
			return nil, false
		}
		return t.splitChild(n, i, it, edge), true
	}
	nc, added := t.insert(child, it, edge)
	if nc != nil {
		n.slots()[i].Store(nc)
	}
	return nil, added
}

// with adds e at position i of n, a leaf. When n's array has room, e goes
// into its next free slot, which no header covers: a new last entry is
// published in place — its slot written into n's order at the count when n
// has one — by n's count, one higher, and with returns nil; any other entry
// is published by a new header with a new order (ordered), which with
// returns. A full array is compacted: n's entries and e are copied into a new
// sorted array (room), under a new header.
func (n *node) with(i int, e entry) *node {
	k, c := int(n.fill), n.count()
	if k == len(n.items) {
		return sortedLeaf(n.spliced(slices.Grow([]entry(nil), room(n.items, i == c, c+1)), 0, i, c, e))
	}
	n.items[k] = e
	if i == c {
		if n.order != nil {
			n.order[c] = uint8(k)
		}
		n.fill++
		n.num.Store(int32(c + 1))
		return nil
	}
	l := ordered(n.items, c+1, int32(k+1))
	for j := range c {
		if j < i {
			l.order[j] = uint8(n.slot(j))
		} else {
			l.order[j+1] = uint8(n.slot(j))
		}
	}
	l.order[i] = uint8(k)
	return l
}

// room is the size of a new array for c entries of a leaf whose array was
// items: a full leaf's when the write that makes it is at the leaf's end, or
// when items had room for a full leaf, which only such a write gives — the
// rightmost leaf's, which keeps it for the appends that follow —; and c
// otherwise. A compaction rounds it up to its size class, room it pays for
// anyway: the first middle insert into a built leaf of 48 entries copies
// them into 55 slots, the 896 bytes that 49 take.
func room(items []entry, end bool, c int) int {
	if end || cap(items) >= btreeOrder {
		return max(c, btreeOrder)
	}
	return c
}

// splitChild returns a copy of p, a node of the tree or a new one, in which
// its full child at index i is split in two, a separator hoisted into the
// copy, and it, which the child does not hold, is inserted into the half it
// sorts into. edge says the child is on the tree's right edge: p's last
// child, p on the edge.
//
// A leaf on the right edge that takes an entry after its last splits 63/1
// (SQLite's balance_quick, PostgreSQL's rightmost-page split): its last
// entry is the separator, the left half is a new header over the leaf's
// array that covers the entries before it and has no room, and the right
// half is a new leaf, with room for a full leaf, of the new entry alone. So
// an ascending stream fills every leaf but the rightmost, and copies no
// array to split. Every other split cuts the child at its median: each half
// gets new sorted arrays sized to its entries, and a leaf half is built with
// the entry in it, so each of its arrays is made
// once; a leaf half that takes the entry after the child's last has room for
// a full leaf.
func (t *BTree) splitChild(p *node, i int, it Item, edge bool) *node {
	old := p.child(i)
	k := old.count()
	mid := k / 2
	median := old.at(mid)
	j, _ := t.search(old.entries(), it) // after mid when it sorts into the right half
	var l, h *node
	switch {
	case !old.leaf():
		l = inner(old.appendTo(make([]entry, 0, mid), 0, mid), tight(old.slots()[:mid+1], false))
		h = inner(old.appendTo(make([]entry, 0, k-mid-1), mid+1, k), tight(old.slots()[mid+1:], false))
		half := &l
		if j > mid {
			half = &h
		}
		if nh, _ := t.insert(*half, it, edge && half == &h); nh != nil { // the halves are new: a change below one is stored into it
			*half = nh
		}
	case edge && j == k:
		median = old.at(k - 1)
		l = &node{items: old.items, order: old.order, fill: int32(len(old.items))}
		l.num.Store(int32(k - 1))
		h = sortedLeaf(append(make([]entry, 0, btreeOrder), entryOf(it)))
	case j > mid:
		l = sortedLeaf(old.appendTo(make([]entry, 0, mid), 0, mid))
		h = sortedLeaf(old.spliced(make([]entry, 0, room(nil, j == k, k-mid)), mid+1, j, k, entryOf(it)))
	default:
		l = sortedLeaf(old.spliced(make([]entry, 0, mid+1), 0, j, mid, entryOf(it)))
		h = sortedLeaf(old.appendTo(make([]entry, 0, k-mid-1), mid+1, k))
	}
	pc := p.count()
	slots := make([]atomic.Pointer[node], pc+2)
	copy(slots, p.slots()[:i])
	slots[i].Store(l)
	slots[i+1].Store(h)
	copy(slots[i+2:], p.slots()[i+1:])
	return inner(p.spliced(make([]entry, 0, pc+1), 0, i, pc, median), slots)
}

// Delete removes the entry equal to it (key and rid both matching).
// It reports whether an entry was removed.
func (t *BTree) Delete(it Item) bool {
	top, ok := t.delete(t.top.Load(), it, false, true)
	if !ok {
		return false
	}
	if top != nil {
		if top.count() == 0 && !top.leaf() {
			top = top.child(0)
		}
		t.top.Store(top)
	}
	t.size.Add(-1)
	return true
}

const minItems = btreeOrder / 2

// delete removes the entry equal to it from under n, a node of the tree or a
// new one, and reports whether it did: false when the entry is absent, and
// then nothing is stored. Like insert, it returns a copy of n when n's arrays
// change and stores a change below n into n's slot otherwise; with whole set
// it copies n and returns the copy even then, so that the readers still on n
// see the whole path under it as it was (see deleteInner). edge says n is on
// the tree's right edge, as insert's does.
func (t *BTree) delete(n *node, it Item, whole, edge bool) (*node, bool) {
	i, found := t.search(n.entries(), it)
	if n.leaf() {
		if !found {
			return nil, false
		}
		return n.without(i), true
	}
	if found {
		return t.deleteInner(n, i, edge), true
	}
	// CLRS case 3: descend, topping up the child first so it cannot underflow.
	c := t.ensureChild(n, i, edge && i == n.count())
	if c == nil && !whole {
		nc, ok := t.delete(n.child(i), it, false, edge && i == n.count())
		if nc != nil {
			n.slots()[i].Store(nc)
		}
		return nil, ok
	}
	if c == nil {
		c = inner(n.items, tight(n.slots(), false))
	}
	j, _ := t.search(c.entries(), it)
	nc, ok := t.delete(c.child(j), it, whole, edge && j == c.count())
	if !ok {
		return nil, false
	}
	if nc != nil {
		c.slots()[j].Store(nc)
	}
	return c, true
}

// without returns a leaf holding the entries of n, a leaf, but the one at
// position i: over n's array, in which the entry's slot becomes a hole, with
// a new order (ordered) one byte shorter; a new empty leaf when it was the
// only one.
func (n *node) without(i int) *node {
	c := n.count()
	if c == 1 {
		return &node{}
	}
	l := ordered(n.items, c-1, n.fill)
	for j := range c - 1 {
		if j < i {
			l.order[j] = uint8(n.slot(j))
		} else {
			l.order[j] = uint8(n.slot(j + 1))
		}
	}
	return l
}

// deleteInner returns a copy of n, an inner node of the tree or a new one,
// without its entry at index i (CLRS case 2). The largest entry of the left
// child, or else the smallest of the right, moves into the entry's place;
// when neither child can spare one, the two merge around the entry, which is
// then deleted from the merged node. A moved neighbour changes the intervals
// of two paths, so both are copied: every node on the path the neighbour
// leaves (delete with whole set), which readers still on n must find it
// under; and every node on the other child's near spine, whose interval
// widens to the neighbour (spine), which readers still on n must not see
// take an entry between the neighbour and the deleted one. edge says n is on
// the tree's right edge.
func (t *BTree) deleteInner(n *node, i int, edge bool) *node {
	left, right := n.child(i), n.child(i+1)
	edge = edge && i+1 == n.count() // right's
	items, slots := tight(n.items, false), tight(n.slots(), false)
	switch {
	case left.count() > minItems:
		pred := last(left)
		items[i] = pred
		nl, _ := t.delete(left, pred.item(t.width), true, false)
		slots[i].Store(nl)
		slots[i+1].Store(spine(right, false))
	case right.count() > minItems:
		succ := first(right)
		items[i] = succ
		nr, _ := t.delete(right, succ.item(t.width), true, edge)
		slots[i].Store(spine(left, true))
		slots[i+1].Store(nr)
	default:
		m := merged(left, n.at(i), right)
		if nm, _ := t.delete(m, n.at(i).item(t.width), false, edge); nm != nil {
			m = nm
		}
		items = slices.Delete(items, i, i+1)
		slots = slices.Delete(slots, i+1, i+2)
		slots[i].Store(m)
	}
	return inner(items, slots)
}

// spine returns a copy of n with a copy of every node on its path to its
// rightmost leaf when rightmost is set, or to its leftmost: an inner node's
// over new slots, and the leaf's a new header over the leaf's arrays, so
// that an append in place into the leaf, which the interval the copies widen
// may take, is read by no reader still on n.
func spine(n *node, rightmost bool) *node {
	if n.leaf() {
		c := &node{items: n.items, order: n.order, fill: n.fill}
		c.num.Store(n.num.Load())
		return c
	}
	c := inner(n.items, tight(n.slots(), false))
	j := 0
	if rightmost {
		j = n.count()
	}
	c.slots()[j].Store(spine(c.child(j), rightmost))
	return c
}

// merged returns a new node of l's entries, sep and r's, in a sorted array,
// over l's children and r's.
func merged(l *node, sep entry, r *node) *node {
	lc, rc := l.count(), r.count()
	items := r.appendTo(append(l.appendTo(make([]entry, 0, lc+1+rc), 0, lc), sep), 0, rc)
	if l.leaf() {
		return sortedLeaf(items)
	}
	return inner(items, append(append(make([]atomic.Pointer[node], 0, lc+rc+2), l.slots()...), r.slots()...))
}

// last returns the largest entry under n.
func last(n *node) entry {
	for !n.leaf() {
		n = n.child(n.count())
	}
	return n.at(n.count() - 1)
}

// first returns the smallest entry under n.
func first(n *node) entry {
	for !n.leaf() {
		n = n.child(0)
	}
	return n.at(0)
}

// ensureChild returns nil when child i of n, a node of the tree or a new
// one, holds more than minItems entries, or more than one when it is the
// rightmost leaf (edge says it is on the tree's right edge), which a
// right-edge split leaves short; and otherwise a copy of n in which the
// child has borrowed an entry from a sibling or been merged with one. So a
// stream of appends and deletes at the tail takes from the full leaf before
// the rightmost only when the rightmost would empty. The child and the
// sibling it changes are new nodes, their arrays sorted, and the rightmost
// leaf's has room for a full leaf (room), for the appends that follow; the
// nodes they share with the old ones keep their intervals.
func (t *BTree) ensureChild(n *node, i int, edge bool) *node {
	child := n.child(i)
	cc := child.count()
	if cc > minItems || edge && child.leaf() && cc > 1 {
		return nil
	}
	items, slots := tight(n.items, false), tight(n.slots(), false)
	switch {
	case i > 0 && n.child(i-1).count() > minItems:
		// borrow from left sibling
		left := n.child(i - 1)
		k := left.count() - 1
		nl := left.appendTo(make([]entry, 0, k), 0, k)
		nc := child.spliced(make([]entry, 0, room(nil, edge && child.leaf(), cc+1)), 0, 0, cc, items[i-1])
		items[i-1] = left.at(k)
		if left.leaf() {
			slots[i-1].Store(sortedLeaf(nl))
			slots[i].Store(sortedLeaf(nc))
		} else {
			s := make([]atomic.Pointer[node], cc+2)
			s[0].Store(left.child(k + 1))
			copy(s[1:], child.slots())
			slots[i-1].Store(inner(nl, tight(left.slots()[:k+1], false)))
			slots[i].Store(inner(nc, s))
		}
	case i < n.count() && n.child(i+1).count() > minItems:
		// borrow from right sibling
		right := n.child(i + 1)
		rc := right.count()
		nc := child.spliced(make([]entry, 0, cc+1), 0, cc, cc, items[i])
		nr := right.appendTo(make([]entry, 0, rc-1), 1, rc)
		items[i] = right.at(0)
		if right.leaf() {
			slots[i].Store(sortedLeaf(nc))
			slots[i+1].Store(sortedLeaf(nr))
		} else {
			s := make([]atomic.Pointer[node], cc+2)
			copy(s, child.slots())
			s[cc+1].Store(right.child(0))
			slots[i].Store(inner(nc, s))
			slots[i+1].Store(inner(nr, tight(right.slots()[1:], false)))
		}
	default:
		// merge with a sibling
		if i == n.count() {
			i--
		}
		slots[i].Store(merged(n.child(i), n.at(i), n.child(i+1)))
		items = slices.Delete(items, i, i+1)
		slots = slices.Delete(slots, i+1, i+2)
	}
	return inner(items, slots)
}

// firstMatch returns the RowID of the first entry, in index order, whose key
// equals key and for which match reports true, or -1 when there is none. It
// is a point probe — a unique check, a primary-key lookup — that stops at
// the first live entry and collects nothing.
func (t *BTree) firstMatch(key types.Row, match func(RowID) bool) RowID {
	rid, _ := t.firstMatchUnder(t.top.Load(), key, match)
	return rid
}

// firstMatchUnder walks n from the first entry >= key; false means the walk
// passed the last entry carrying key.
func (t *BTree) firstMatchUnder(n *node, key types.Row, match func(RowID) bool) (RowID, bool) {
	es := n.entries()
	start, _ := t.search(es, Item{Key: key, RID: -1 << 62})
	for i := start; i <= es.n; i++ {
		if !n.leaf() {
			if rid, more := t.firstMatchUnder(n.child(i), key, match); rid >= 0 || !more {
				return rid, more
			}
		}
		if i == es.n {
			break
		}
		e := es.at(i)
		if prefixCmp(t.key(e), key) != 0 {
			return -1, false
		}
		if match(e.rid) {
			return e.rid, false
		}
	}
	return -1, true
}

// AscendRange visits, in key order, the entries whose key prefix is within
// [lo, hi]; a nil bound is open. Keys are compared only on the first
// len(lo)/len(hi) columns, so a multi-column index supports prefix range
// scans.
func (t *BTree) AscendRange(lo, hi types.Row, fn func(Item) bool) {
	t.ascend(t.top.Load(), Item{Key: lo, RID: -1 << 62}, lo != nil, func(it Item) bool {
		if hi != nil && prefixCmp(it.Key, hi) > 0 {
			return false
		}
		return fn(it)
	})
}

// prefixCmp orders key, cut to the bound's length, against a prefix bound.
func prefixCmp(key, bound types.Row) int {
	if len(bound) < len(key) {
		key = key[:len(bound)]
	}
	return types.CompareRows(key, bound)
}

// ascend visits, in key order, the entries under n, from the first >= from
// when bounded.
func (t *BTree) ascend(n *node, from Item, bounded bool, fn func(Item) bool) bool {
	es := n.entries()
	start := 0
	if bounded {
		start, _ = t.search(es, from)
	}
	for i := start; i <= es.n; i++ {
		if !n.leaf() {
			b := bounded && i == start
			if !t.ascend(n.child(i), from, b, fn) {
				return false
			}
		}
		if i < es.n {
			if !fn(es.at(i).item(t.width)) {
				return false
			}
		}
	}
	return true
}

// descend visits, in reverse key order, the entries under n whose key prefix
// is at most hi; a nil hi starts at the last entry.
func (t *BTree) descend(n *node, hi types.Row, fn func(Item) bool) bool {
	// end is the number of leading entries within the bound: every subtree
	// left of the entry at end-1 is inside it, the child at end straddles it.
	es := n.entries()
	end := es.n
	if hi != nil {
		lo := 0
		for lo < end {
			mid := (lo + end) / 2
			if prefixCmp(t.key(es.at(mid)), hi) > 0 {
				end = mid
			} else {
				lo = mid + 1
			}
		}
	}
	for i := end; i >= 0; i-- {
		if !n.leaf() {
			bound := hi
			if i < end {
				bound = nil
			}
			if !t.descend(n.child(i), bound, fn) {
				return false
			}
		}
		if i > 0 && !fn(es.at(i-1).item(t.width)) {
			return false
		}
	}
	return true
}
