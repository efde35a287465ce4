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
// first. So a middle insert or a delete allocates the new leaf's header and
// array at any depth, and a tail append — a new last entry into a leaf whose
// array has room — one header. Mutators must be externally serialized (the Store's per-table
// write latch does this); any number of readers may walk the tree while they
// run, under the contract node states.
type BTree struct {
	top   atomic.Pointer[node]
	size  atomic.Int64
	width int // every key's length: the index's column count
}

// node is one tree node. Its header is never written after it is published
// except its child slots, and a slot only while the node is in the tree: a
// write that changes a node's arrays stores a copy of it in its place, and
// the replaced node's slots keep what they held for the readers still on it.
// An array is written only past the length of every header that covers it:
// a leaf's new last entry goes into its array in place when the array has
// room, and is published by a new header one entry longer; every change
// that shortens or rearranges an array works on a new one. The writer, the
// only one, copies slot arrays into new nodes as plain memory; a reader only
// loads slots.
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
	items    []entry
	children []atomic.Pointer[node] // nil for leaves
}

func (n *node) leaf() bool { return n.children == nil }

// child returns the node in n's slot i.
func (n *node) child(i int) *node { return n.children[i].Load() }

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
// inserts before it splits. Every insert into a leaf copies its array, full
// or not, but a split costs about twice that copy in objects.
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
			nd := &node{items: tight(items[:n], kids == nil && i == k-1)}
			if kids != nil {
				nd.children = tight(kids[:n+1], false)
				kids = kids[n+1:]
			}
			level[i].Store(nd)
			if i < k-1 {
				up[i] = items[n]
				n++
			}
			items = items[n:]
		}
		items, kids = up, level
	}
	t.top.Store(&node{items: tight(items, kids == nil), children: kids})
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

// search locates the first index in items, entries of t, >= it, and whether
// an exact match exists at that index.
func (t *BTree) search(items []entry, it Item) (int, bool) {
	lo, hi := 0, len(items)
	for lo < hi {
		mid := (lo + hi) / 2
		if t.cmp(items[mid], it) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(items) && t.cmp(items[lo], it) == 0 {
		return lo, true
	}
	return lo, false
}

// Insert adds an entry, whose key must be the tree's width long; the tree
// keeps the key's array. An entry already present (same key and rid) is left
// as it is, and nothing is stored.
func (t *BTree) Insert(it Item) {
	if len(it.Key) != t.width {
		panic(fmt.Sprintf("storage: a key of %d values into an index of %d columns", len(it.Key), t.width))
	}
	top := t.top.Load()
	if len(top.items) >= btreeOrder {
		// A full top splits as any full child does, under a new top.
		up := &node{children: make([]atomic.Pointer[node], 1)}
		up.children[0].Store(top)
		top = up
	}
	nt, added := t.insert(top, it)
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
		i, found := t.search(n.items, it)
		if found || n.leaf() {
			return found
		}
		n = n.child(i)
	}
}

// insert adds it under n, a node of the tree or a new one, and reports
// whether it did: false when the entry is present, and then nothing is
// stored. A change to n's own arrays is made in a copy of n, which insert
// returns for the caller to store in n's place; a change below n that leaves
// n's arrays as they are is stored into n's slot, and insert returns nil.
func (t *BTree) insert(n *node, it Item) (*node, bool) {
	i, found := len(n.items), false
	if i == 0 || t.cmp(n.items[i-1], it) >= 0 { // an entry after n's last, a tail append's at every level, needs no search
		i, found = t.search(n.items, it)
	}
	if found {
		return nil, false
	}
	if n.leaf() {
		return withItem(n.items, i, entryOf(it)), true
	}
	child := n.child(i)
	if len(child.items) >= btreeOrder {
		if t.has(child, it) {
			return nil, false
		}
		return t.splitChild(n, i, it), true
	}
	nc, added := t.insert(child, it)
	if nc != nil {
		n.children[i].Store(nc)
	}
	return nil, added
}

// withItem returns a leaf holding items with e at index i. A new last entry
// is written into the array in place when it has room — no header covers
// that index yet —; otherwise the array is copied, with room for a full leaf
// when the copy is for a new last entry or items had room (room), so a leaf
// that grows at its end is copied once per split rather than once per insert.
func withItem(items []entry, i int, e entry) *node {
	if i == len(items) && len(items) < cap(items) {
		return &node{items: append(items, e)}
	}
	return &node{items: spliced(items, i, e, room(items, i == len(items), len(items)+1))}
}

// room is the size of a new array for n entries of a leaf whose array was
// items: a full leaf's when the write that makes it is at the leaf's end, or
// when items had room for a full leaf, which only such a write gives — the
// rightmost leaf's, which keeps it for the appends that follow —; and n
// otherwise.
func room(items []entry, end bool, n int) int {
	if end || cap(items) >= btreeOrder {
		return max(n, btreeOrder)
	}
	return n
}

// spliced returns a new array of size slots holding items with e at index i.
func spliced(items []entry, i int, e entry, size int) []entry {
	c := make([]entry, len(items)+1, size)
	copy(c, items[:i])
	c[i] = e
	copy(c[i+1:], items[i:])
	return c
}

// splitChild returns a copy of p, a node of the tree or a new one, in which
// its full child at index i is split in two, the median hoisted into the
// copy, and it, which the child does not hold, is inserted into the half it
// sorts into. Each half gets new arrays sized to its entries, and a leaf half
// is built with the entry in it, so each of its arrays is made once; a leaf
// half that takes the entry after the child's last has room for a full leaf.
func (t *BTree) splitChild(p *node, i int, it Item) *node {
	old := p.child(i)
	items := old.items
	mid := len(items) / 2
	median := items[mid]
	lo, hi := items[:mid], items[mid+1:]
	right := t.cmp(median, it) < 0
	l, h := &node{}, &node{}
	switch {
	case !old.leaf():
		l.items, l.children = tight(lo, false), tight(old.children[:mid+1], false)
		h.items, h.children = tight(hi, false), tight(old.children[mid+1:], false)
		half := &l
		if right {
			half = &h
		}
		if nh, _ := t.insert(*half, it); nh != nil { // the halves are new: a change below one is stored into it
			*half = nh
		}
	case right:
		l.items = tight(lo, false)
		j, _ := t.search(hi, it)
		h.items = spliced(hi, j, entryOf(it), room(nil, j == len(hi), len(hi)+1))
	default:
		j, _ := t.search(lo, it)
		l.items = spliced(lo, j, entryOf(it), len(lo)+1)
		h.items = tight(hi, false)
	}
	c := &node{items: spliced(p.items, i, median, len(p.items)+1), children: make([]atomic.Pointer[node], len(p.children)+1)}
	copy(c.children, p.children[:i])
	c.children[i].Store(l)
	c.children[i+1].Store(h)
	copy(c.children[i+2:], p.children[i+1:])
	return c
}

// Delete removes the entry equal to it (key and rid both matching).
// It reports whether an entry was removed.
func (t *BTree) Delete(it Item) bool {
	top, ok := t.delete(t.top.Load(), it, false)
	if !ok {
		return false
	}
	if top != nil {
		if len(top.items) == 0 && !top.leaf() {
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
// see the whole path under it as it was (see deleteInner).
func (t *BTree) delete(n *node, it Item, whole bool) (*node, bool) {
	i, found := t.search(n.items, it)
	if n.leaf() {
		if !found {
			return nil, false
		}
		return &node{items: without(n.items, i)}, true
	}
	if found {
		return t.deleteInner(n, i), true
	}
	// CLRS case 3: descend, topping up the child first so it cannot underflow.
	c := t.ensureChild(n, i)
	if c == nil && !whole {
		nc, ok := t.delete(n.child(i), it, false)
		if nc != nil {
			n.children[i].Store(nc)
		}
		return nil, ok
	}
	if c == nil {
		c = &node{items: n.items, children: tight(n.children, false)}
	}
	j, _ := t.search(c.items, it)
	nc, ok := t.delete(c.child(j), it, whole)
	if !ok {
		return nil, false
	}
	if nc != nil {
		c.children[j].Store(nc)
	}
	return c, true
}

// without returns a new array of items but the one at index i, with room for
// a full leaf when that was the last one or items had room (room).
func without(items []entry, i int) []entry {
	c := make([]entry, len(items)-1, room(items, i == len(items)-1, len(items)-1))
	copy(c, items[:i])
	copy(c[i:], items[i+1:])
	return c
}

// deleteInner returns a copy of n, an inner node of the tree or a new one,
// without its entry at index i (CLRS case 2). The largest entry of the left
// child, or else the smallest of the right, moves into the entry's place;
// when neither child can spare one, the two merge around the entry, which is
// then deleted from the merged node. A moved neighbour changes the intervals
// of two paths, so both are copied: every node on the path the neighbour
// leaves (delete with whole set), which readers still on n must find it
// under; and every inner node on the other child's near spine, whose
// interval widens to the neighbour (spine), which readers still on n must
// not see take an entry between the neighbour and the deleted one.
func (t *BTree) deleteInner(n *node, i int) *node {
	left, right := n.child(i), n.child(i+1)
	c := &node{items: tight(n.items, false), children: tight(n.children, false)}
	switch {
	case len(left.items) > minItems:
		pred := last(left)
		c.items[i] = pred
		nl, _ := t.delete(left, pred.item(t.width), true)
		c.children[i].Store(nl)
		c.children[i+1].Store(spine(right, false))
	case len(right.items) > minItems:
		succ := first(right)
		c.items[i] = succ
		nr, _ := t.delete(right, succ.item(t.width), true)
		c.children[i].Store(spine(left, true))
		c.children[i+1].Store(nr)
	default:
		m := merged(left, n.items[i], right)
		if nm, _ := t.delete(m, n.items[i].item(t.width), false); nm != nil {
			m = nm
		}
		c.items = slices.Delete(c.items, i, i+1)
		c.children = slices.Delete(c.children, i+1, i+2)
		c.children[i].Store(m)
	}
	return c
}

// spine returns n, or, when n is inner, a copy of n with a copy of every
// inner node on its path to its rightmost leaf when rightmost is set, or to
// its leftmost.
func spine(n *node, rightmost bool) *node {
	if n.leaf() {
		return n
	}
	c := &node{items: n.items, children: tight(n.children, false)}
	j := 0
	if rightmost {
		j = len(c.children) - 1
	}
	c.children[j].Store(spine(c.child(j), rightmost))
	return c
}

// merged returns a new node of l's entries, sep and r's, over l's children
// and r's.
func merged(l *node, sep entry, r *node) *node {
	m := &node{items: make([]entry, 0, len(l.items)+1+len(r.items))}
	m.items = append(append(append(m.items, l.items...), sep), r.items...)
	if !l.leaf() {
		m.children = append(append(make([]atomic.Pointer[node], 0, len(l.children)+len(r.children)), l.children...), r.children...)
	}
	return m
}

// last returns the largest entry under n.
func last(n *node) entry {
	for !n.leaf() {
		n = n.child(len(n.children) - 1)
	}
	return n.items[len(n.items)-1]
}

// first returns the smallest entry under n.
func first(n *node) entry {
	for !n.leaf() {
		n = n.child(0)
	}
	return n.items[0]
}

// ensureChild returns nil when child i of n, a node of the tree or a new
// one, holds more than minItems entries, and otherwise a copy of n in which
// the child has borrowed an entry from a sibling or been merged with one.
// The child and the sibling it changes are new nodes; the nodes they share
// with the old ones keep their intervals.
func (t *BTree) ensureChild(n *node, i int) *node {
	child := n.child(i)
	if len(child.items) > minItems {
		return nil
	}
	c := &node{items: tight(n.items, false), children: tight(n.children, false)}
	switch {
	case i > 0 && len(n.child(i-1).items) > minItems:
		// borrow from left sibling
		left := n.child(i - 1)
		k := len(left.items) - 1
		nl := &node{items: tight(left.items[:k], false)}
		nc := &node{items: spliced(child.items, 0, c.items[i-1], len(child.items)+1)}
		c.items[i-1] = left.items[k]
		if !left.leaf() {
			nl.children = tight(left.children[:k+1], false)
			nc.children = make([]atomic.Pointer[node], len(child.children)+1)
			nc.children[0].Store(left.child(k + 1))
			copy(nc.children[1:], child.children)
		}
		c.children[i-1].Store(nl)
		c.children[i].Store(nc)
	case i < len(n.children)-1 && len(n.child(i+1).items) > minItems:
		// borrow from right sibling
		right := n.child(i + 1)
		nc := &node{items: spliced(child.items, len(child.items), c.items[i], len(child.items)+1)}
		nr := &node{items: tight(right.items[1:], false)}
		c.items[i] = right.items[0]
		if !right.leaf() {
			nc.children = make([]atomic.Pointer[node], len(child.children)+1)
			copy(nc.children, child.children)
			nc.children[len(child.children)].Store(right.child(0))
			nr.children = tight(right.children[1:], false)
		}
		c.children[i].Store(nc)
		c.children[i+1].Store(nr)
	default:
		// merge with a sibling
		if i == len(n.children)-1 {
			i--
		}
		c.children[i].Store(merged(n.child(i), n.items[i], n.child(i+1)))
		c.items = slices.Delete(c.items, i, i+1)
		c.children = slices.Delete(c.children, i+1, i+2)
	}
	return c
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
	items := n.items
	start, _ := t.search(items, Item{Key: key, RID: -1 << 62})
	for i := start; i <= len(items); i++ {
		if !n.leaf() {
			if rid, more := t.firstMatchUnder(n.child(i), key, match); rid >= 0 || !more {
				return rid, more
			}
		}
		if i == len(items) {
			break
		}
		e := items[i]
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
	items := n.items
	start := 0
	if bounded {
		start, _ = t.search(items, from)
	}
	for i := start; i <= len(items); i++ {
		if !n.leaf() {
			b := bounded && i == start
			if !t.ascend(n.child(i), from, b, fn) {
				return false
			}
		}
		if i < len(items) {
			if !fn(items[i].item(t.width)) {
				return false
			}
		}
	}
	return true
}

// descend visits, in reverse key order, the entries under n whose key prefix
// is at most hi; a nil hi starts at the last entry.
func (t *BTree) descend(n *node, hi types.Row, fn func(Item) bool) bool {
	items := n.items
	// end is the number of leading items within the bound: every subtree left
	// of items[end-1] is inside it, children[end] straddles it.
	end := len(items)
	if hi != nil {
		lo := 0
		for lo < end {
			mid := (lo + end) / 2
			if prefixCmp(t.key(items[mid]), hi) > 0 {
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
		if i > 0 && !fn(items[i-1].item(t.width)) {
			return false
		}
	}
	return true
}
