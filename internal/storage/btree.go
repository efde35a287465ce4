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

// BTree is an in-memory B-tree over Items with copy-on-write updates; every
// write publishes a new root with a single atomic store. An entry that sorts
// after every other, into a rightmost leaf with room, is a tail append: it
// publishes one object, a copy of the root whose tail — the rightmost leaf's
// entries — is one entry longer. Every other Insert and Delete gives each
// node on the changed path a new header. An array a change does not modify
// is shared with the published tree (see node). Mutators must still be
// externally serialized (the Store's per-table write latch does this), but
// any number of readers may traverse a pinned root concurrently — and keep
// iterating their snapshot while later writes publish new roots.
type BTree struct {
	root atomic.Pointer[root]
	size atomic.Int64
}

// node is one tree node. A header reachable from a published root is never
// written again — a root's tail included —, but its arrays may be shared with
// newer headers:
//
//   - the rightmost leaf's header may hold only a prefix of its entries; the
//     root holds them all (see root), and a write that copies that leaf
//     copies the root's tail into the new header;
//   - an inner node on an insert path gets a fresh children array and keeps
//     its items array, unless a child split hoists a median into it;
//   - a leaf's new last entry is appended to its items array (or the tail's)
//     in place, at an index past the length of every header and tail that
//     covers the array, so no reader of an older one can see the write;
//   - every change that shortens or rearranges an array — a middle insert,
//     a split's halves, delete, borrow and merge — works on a fresh array.
//     A new array for the rightmost leaf has room for a full leaf (see
//     room), so the appends after the write that made it do not copy it.
type node struct {
	items    []entry
	children []*node // nil for leaves
}

func (n *node) leaf() bool { return n.children == nil }

// newNode returns n moved to the heap: the copies that insert and delete
// return are values, so that a write which changes nothing allocates nothing
// and the top one goes into its root.
func newNode(n node) *node { return &n }

// root is a published version of the tree: its top node, and the entries of
// its rightmost leaf, last, in tail. A tail append writes into tail's array
// and publishes a copy of the root whose tail is one entry longer, leaving
// last as it is; so readers and writers read a node's entries through the
// root they started from (entries). width is the tree's key width, the same
// in every root.
type root struct {
	node
	last  *node
	tail  []entry
	width int
}

// entries returns the items of n, a node of the tree under r: the rightmost
// leaf's are r's tail.
func (r *root) entries(n *node) []entry {
	if n == r.last {
		return r.tail
	}
	return n.items
}

// key returns the key of e, an entry of the tree under r.
func (r *root) key(e entry) types.Row { return e.row(r.width) }

// cmp orders e, an entry of the tree under r, against it.
func (r *root) cmp(e entry, it Item) int { return cmpItem(e.item(r.width), it) }

// clone returns a copy of n, a node under r, with fresh item and child
// slices. The pointed-to children are shared; the mutating path replaces only
// the ones it touches.
func (r *root) clone(n *node) node { return r.cloneWithRoom(n, 0) }

// cloneWithRoom is clone with capacity for extra more items (and children),
// so a caller that grows the copy does not allocate it twice (and see room).
func (r *root) cloneWithRoom(n *node, extra int) node {
	items := r.entries(n)
	c := node{items: append(make([]entry, 0, r.room(n, len(items)+extra)), items...)}
	if n.children != nil {
		c.children = append(make([]*node, 0, len(n.children)+extra), n.children...)
	}
	return c
}

// room is the capacity of a new array for size entries of n, a node under r:
// a full leaf's when n is the rightmost leaf.
func (r *root) room(n *node, size int) int {
	if n == r.last {
		return max(size, btreeOrder)
	}
	return size
}

// NewBTree returns an empty tree whose keys are width values long.
func NewBTree(width int) *BTree {
	t := &BTree{}
	r := &root{width: width}
	r.last = &r.node
	t.root.Store(r)
	return t
}

// pin returns the current root for a consistent read-only traversal.
func (t *BTree) pin() *root { return t.root.Load() }

// publish stores, as the root after old, one whose top node is top: it finds
// the new rightmost leaf and its entries — old's tail when the leaf is old's,
// unchanged.
func (t *BTree) publish(old *root, top node) {
	r := &root{node: top, width: old.width}
	last := &r.node
	for !last.leaf() {
		last = last.children[len(last.children)-1]
	}
	r.last, r.tail = last, last.items
	if last == old.last {
		r.tail = old.tail
	}
	t.root.Store(r)
}

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
// except the rightmost leaf's, which has room for a full leaf as a copy the
// tree makes of that leaf would (room), so appends after the build do not
// copy it. The tree is published with one root store.
func (t *BTree) build(items []entry) {
	if len(items) == 0 {
		return
	}
	size := len(items)
	var kids []*node // the level below, one more than items; nil for leaves
	for len(items) > btreeOrder {
		k := (len(items) + buildFill + 1) / (buildFill + 1) // ⌈(len+1)/(fill+1)⌉ nodes
		per, extra := (len(items)-(k-1))/k, (len(items)-(k-1))%k
		level := make([]*node, k)
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
			level[i] = nd
			if i < k-1 {
				up[i] = items[n]
				n++
			}
			items = items[n:]
		}
		items, kids = up, level
	}
	top := node{items: tight(items, kids == nil), children: kids}
	t.publish(t.root.Load(), top)
	t.size.Add(int64(size))
}

// tight returns a copy of s in an array of its length, or of a full leaf's
// when last: the array of the rightmost leaf.
func tight[E any](s []E, last bool) []E {
	n := len(s)
	if last {
		n = max(n, btreeOrder)
	}
	return append(make([]E, 0, n), s...)
}

// Len returns the number of entries.
func (t *BTree) Len() int { return int(t.size.Load()) }

// search locates the first index in items, entries of the tree under r, >=
// it, and whether an exact match exists at that index.
func (r *root) search(items []entry, it Item) (int, bool) {
	lo, hi := 0, len(items)
	for lo < hi {
		mid := (lo + hi) / 2
		if r.cmp(items[mid], it) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(items) && r.cmp(items[lo], it) == 0 {
		return lo, true
	}
	return lo, false
}

// Insert adds an entry, whose key must be the tree's width long; the tree
// keeps the key's array. An entry already present (same key and rid) is left
// as it is, and the tree publishes no new root.
func (t *BTree) Insert(it Item) {
	r := t.root.Load()
	if len(it.Key) != r.width {
		panic(fmt.Sprintf("storage: a key of %d values into an index of %d columns", len(it.Key), r.width))
	}
	// A tail append needs an inner root (a leaf root is its own last, which a
	// copy of it could not name), below which the rightmost leaf is never
	// empty, and room in the tail's array: a new array under the old leaf
	// header would keep both alive, so a full one takes the path copy.
	if n := len(r.tail); !r.leaf() && n < min(btreeOrder, cap(r.tail)) && r.cmp(r.tail[n-1], it) < 0 {
		t.root.Store(r.appendTail(entryOf(it)))
		t.size.Add(1)
		return
	}
	top := &r.node
	if len(r.entries(top)) >= btreeOrder {
		top = &node{children: []*node{top}} // insert splits it as any full child
	}
	if nt, added := r.insert(top, it); added {
		t.publish(r, nt)
		t.size.Add(1)
	}
}

// appendTail returns the root after r with it appended to r's tail in place:
// a copy of r, the one object a tail append allocates. The entry is written
// past the length of every header and tail that covers the array.
func (r *root) appendTail(e entry) *root {
	nr := *r
	nr.tail = append(r.tail, e)
	return &nr
}

// has reports whether the subtree under n, a node under r, holds an entry
// equal to it.
func (r *root) has(n *node, it Item) bool {
	for {
		i, found := r.search(r.entries(n), it)
		if found || n.leaf() {
			return found
		}
		n = n.children[i]
	}
}

// insert returns a copy of n, a node under r or a fresh one, with the entry
// added and true, or false when the entry is already present. It copies only
// what it changes (see node); the caller places the copy.
func (r *root) insert(n *node, it Item) (node, bool) {
	i, found := r.search(r.entries(n), it)
	if found {
		return node{}, false
	}
	if n.leaf() {
		return r.withItem(n, i, entryOf(it)), true
	}
	if child := n.children[i]; len(r.entries(child)) >= btreeOrder {
		if r.has(child, it) {
			return node{}, false
		}
		c := r.cloneWithRoom(n, 1) // the split hoists the child's median into c
		r.splitChild(&c, i, it)
		return c, true
	}
	nc, added := r.insert(n.children[i], it)
	if !added {
		return node{}, false
	}
	c := node{items: n.items, children: append(make([]*node, 0, len(n.children)), n.children...)}
	c.children[i] = newNode(nc)
	return c, true
}

// withItem returns a leaf holding the entries of n, a leaf under r, with e
// at index i. A new last entry is appended to the array when it has room (no
// header covers that index yet); otherwise the array is copied, with room for
// a full leaf when the copy is for an append or of the rightmost leaf, so a
// leaf that grows at its end is copied once per split rather than once per
// insert.
func (r *root) withItem(n *node, i int, e entry) node {
	items := r.entries(n)
	if i == len(items) {
		if len(items) == cap(items) {
			items = append(make([]entry, 0, btreeOrder), items...)
		}
		return node{items: append(items, e)}
	}
	return node{items: spliced(items, i, e, r.room(n, len(items)+1))}
}

// spliced returns a new array of size slots holding items with e at index i.
func spliced(items []entry, i int, e entry, size int) []entry {
	c := make([]entry, len(items)+1, size)
	copy(c, items[:i])
	c[i] = e
	copy(c[i+1:], items[i:])
	return c
}

// splitChild splits the full child at index i of p, hoisting its median into
// p, and inserts it, which the child does not hold, into the half it sorts
// into. p must be caller-owned (a fresh copy); the child, a node under r, is
// read, and each half gets new arrays sized to its entries, but for the
// right half of the rightmost leaf, which has room (see room). A leaf half
// is built with the entry in it, so each half's array is made once.
func (r *root) splitChild(p *node, i int, it Item) {
	old := p.children[i]
	items := r.entries(old)
	mid := len(items) / 2
	median := items[mid]
	lo, hi := items[:mid], items[mid+1:]
	right := r.cmp(median, it) < 0
	l, h := &node{}, &node{}
	switch {
	case !old.leaf():
		l.items, l.children = tight(lo, false), tight(old.children[:mid+1], false)
		h.items, h.children = tight(hi, false), tight(old.children[mid+1:], false)
		half := l
		if right {
			half = h
		}
		*half, _ = r.insert(half, it) // the halves are fresh headers: the entry goes into one in place
	case right:
		l.items = tight(lo, false)
		j, _ := r.search(hi, it)
		h.items = spliced(hi, j, entryOf(it), r.room(old, len(hi)+1))
	default:
		j, _ := r.search(lo, it)
		l.items = spliced(lo, j, entryOf(it), len(lo)+1)
		h.items = append(make([]entry, 0, r.room(old, len(hi))), hi...)
	}
	p.children[i] = l

	p.items = append(p.items, entry{})
	copy(p.items[i+1:], p.items[i:])
	p.items[i] = median
	p.children = append(p.children, nil)
	copy(p.children[i+2:], p.children[i+1:])
	p.children[i+1] = h
}

// Delete removes the entry equal to it (key and rid both matching).
// It reports whether an entry was removed.
func (t *BTree) Delete(it Item) bool {
	r := t.root.Load()
	top, ok := r.delete(&r.node, it)
	if !ok {
		return false
	}
	if len(top.items) == 0 && !top.leaf() {
		top = *top.children[0]
	}
	t.publish(r, top)
	t.size.Add(-1)
	return true
}

const minItems = btreeOrder / 2

// delete returns a path-copied copy of n, a node under r or a fresh one, with
// the entry removed, and true; or false when the entry is absent, and then
// nothing it copied is published.
func (r *root) delete(n *node, it Item) (node, bool) {
	i, found := r.search(r.entries(n), it)
	if n.leaf() {
		if !found {
			return node{}, false
		}
		c := r.clone(n)
		c.items = append(c.items[:i], c.items[i+1:]...)
		return c, true
	}
	c := r.clone(n)
	if found {
		// CLRS case 2: the key lives in this internal node.
		left, right := r.clone(c.children[i]), r.clone(c.children[i+1])
		c.children[i], c.children[i+1] = &left, &right
		if len(left.items) > minItems {
			pred := r.max(&left)
			c.items[i] = pred
			nl, _ := r.delete(&left, pred.item(r.width))
			c.children[i] = newNode(nl)
			return c, true
		}
		if len(right.items) > minItems {
			succ := r.min(&right)
			c.items[i] = succ
			nr, _ := r.delete(&right, succ.item(r.width))
			c.children[i+1] = newNode(nr)
			return c, true
		}
		// Merge left + separator + right, then delete from the merged node.
		left.items = append(left.items, c.items[i])
		left.items = append(left.items, right.items...)
		left.children = append(left.children, right.children...)
		c.items = append(c.items[:i], c.items[i+1:]...)
		c.children = append(c.children[:i+1], c.children[i+2:]...)
		nm, ok := r.delete(&left, it)
		c.children[i] = newNode(nm)
		return c, ok
	}
	// CLRS case 3: descend, topping up the child first so it cannot underflow.
	r.ensureChild(&c, i)
	j, _ := r.search(c.items, it)
	nc, ok := r.delete(c.children[j], it)
	if !ok {
		return node{}, false
	}
	c.children[j] = newNode(nc)
	return c, true
}

// max returns the largest entry under n, a node under r.
func (r *root) max(n *node) entry {
	for !n.leaf() {
		n = n.children[len(n.children)-1]
	}
	items := r.entries(n)
	return items[len(items)-1]
}

// min returns the smallest entry under n, a node under r.
func (r *root) min(n *node) entry {
	for !n.leaf() {
		n = n.children[0]
	}
	return r.entries(n)[0]
}

// ensureChild guarantees children[i] of n has more than minItems entries so
// a recursive delete cannot underflow it. n must be caller-owned (a fresh
// copy); every sibling it mutates, a node under r, is cloned first.
func (r *root) ensureChild(n *node, i int) {
	if len(r.entries(n.children[i])) > minItems {
		return
	}
	switch {
	case i > 0 && len(r.entries(n.children[i-1])) > minItems:
		// borrow from left sibling
		child, left := r.cloneWithRoom(n.children[i], 1), r.clone(n.children[i-1])
		n.children[i], n.children[i-1] = &child, &left
		child.items = slices.Insert(child.items, 0, n.items[i-1])
		n.items[i-1] = left.items[len(left.items)-1]
		left.items = left.items[:len(left.items)-1]
		if !left.leaf() {
			child.children = slices.Insert(child.children, 0, left.children[len(left.children)-1])
			left.children = left.children[:len(left.children)-1]
		}
	case i < len(n.children)-1 && len(r.entries(n.children[i+1])) > minItems:
		// borrow from right sibling
		child, right := r.clone(n.children[i]), r.clone(n.children[i+1])
		n.children[i], n.children[i+1] = &child, &right
		child.items = append(child.items, n.items[i])
		n.items[i] = right.items[0]
		right.items = right.items[1:]
		if !right.leaf() {
			child.children = append(child.children, right.children[0])
			right.children = right.children[1:]
		}
	default:
		// merge with a sibling (the absorbed right node is read, not mutated)
		if i == len(n.children)-1 {
			i--
		}
		child, right := r.clone(n.children[i]), n.children[i+1]
		n.children[i] = &child
		child.items = append(child.items, n.items[i])
		child.items = append(child.items, r.entries(right)...)
		child.children = append(child.children, right.children...)
		n.items = append(n.items[:i], n.items[i+1:]...)
		n.children = append(n.children[:i+1], n.children[i+2:]...)
	}
}

// firstMatch returns the RowID of the first entry, in index order, whose key
// equals key and for which match reports true, or -1 when there is none. It
// is a point probe — a unique check, a primary-key lookup — that stops at
// the first live entry and collects nothing.
func (t *BTree) firstMatch(key types.Row, match func(RowID) bool) RowID {
	r := t.pin()
	rid, _ := r.firstMatch(&r.node, key, match)
	return rid
}

// firstMatch walks n, a node under the pinned root r, from the first entry
// >= key; false means the walk passed the last entry carrying key.
func (r *root) firstMatch(n *node, key types.Row, match func(RowID) bool) (RowID, bool) {
	items := r.entries(n)
	start, _ := r.search(items, Item{Key: key, RID: -1 << 62})
	for i := start; i <= len(items); i++ {
		if !n.leaf() {
			if rid, more := r.firstMatch(n.children[i], key, match); rid >= 0 || !more {
				return rid, more
			}
		}
		if i == len(items) {
			break
		}
		e := items[i]
		if prefixCmp(r.key(e), key) != 0 {
			return -1, false
		}
		if match(e.rid) {
			return e.rid, false
		}
	}
	return -1, true
}

// Ascend visits all entries in key order.
func (t *BTree) Ascend(fn func(Item) bool) {
	r := t.pin()
	r.ascend(&r.node, Item{}, false, fn)
}

// AscendGE visits entries with key >= from (by key prefix comparison).
func (t *BTree) AscendGE(from types.Row, fn func(Item) bool) {
	r := t.pin()
	r.ascend(&r.node, Item{Key: from, RID: -1 << 62}, true, fn)
}

// AscendRange visits entries whose key prefix is within [lo, hi]. Keys are
// compared only on the first len(lo)/len(hi) columns, so a multi-column
// index supports prefix range scans.
func (t *BTree) AscendRange(lo, hi types.Row, fn func(Item) bool) {
	t.pin().ascendRange(lo, hi, fn)
}

// prefixCmp orders key, cut to the bound's length, against a prefix bound.
func prefixCmp(key, bound types.Row) int {
	if len(bound) < len(key) {
		key = key[:len(bound)]
	}
	return types.CompareRows(key, bound)
}

// ascendRange is the range scan of the pinned root r shared by BTree and
// IndexView.
func (r *root) ascendRange(lo, hi types.Row, fn func(Item) bool) {
	r.ascend(&r.node, Item{Key: lo, RID: -1 << 62}, true, func(it Item) bool {
		if prefixCmp(it.Key, hi) > 0 {
			return false
		}
		return fn(it)
	})
}

// ascend visits, in key order, the entries under n, a node under the pinned
// root r, from the first >= from when bounded.
func (r *root) ascend(n *node, from Item, bounded bool, fn func(Item) bool) bool {
	items := r.entries(n)
	start := 0
	if bounded {
		start, _ = r.search(items, from)
	}
	for i := start; i <= len(items); i++ {
		if !n.leaf() {
			b := bounded && i == start
			if !r.ascend(n.children[i], from, b, fn) {
				return false
			}
		}
		if i < len(items) {
			if !fn(items[i].item(r.width)) {
				return false
			}
		}
	}
	return true
}

// descend visits, in reverse key order, the entries under n, a node under the
// pinned root r, whose key prefix is at most hi; a nil hi starts at the last
// entry.
func (r *root) descend(n *node, hi types.Row, fn func(Item) bool) bool {
	items := r.entries(n)
	// end is the number of leading items within the bound: every subtree left
	// of items[end-1] is inside it, children[end] straddles it.
	end := len(items)
	if hi != nil {
		lo := 0
		for lo < end {
			mid := (lo + end) / 2
			if prefixCmp(r.key(items[mid]), hi) > 0 {
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
			if !r.descend(n.children[i], bound, fn) {
				return false
			}
		}
		if i > 0 && !fn(items[i-1].item(r.width)) {
			return false
		}
	}
	return true
}

// get collects the RowIDs of all entries equal to key under the pinned root r.
func (r *root) get(key types.Row) []RowID {
	var out []RowID
	r.ascendRange(key, key, func(it Item) bool {
		out = append(out, it.RID)
		return true
	})
	return out
}

// Min returns the smallest entry, or a zero Item if empty. The rightmost
// leaf is empty only in an empty tree.
func (t *BTree) Min() (Item, bool) {
	r := t.pin()
	if len(r.tail) == 0 {
		return Item{}, false
	}
	return r.min(&r.node).item(r.width), true
}

// Max returns the largest entry, the tail's last, or a zero Item if empty.
func (t *BTree) Max() (Item, bool) {
	r := t.pin()
	if len(r.tail) == 0 {
		return Item{}, false
	}
	return r.tail[len(r.tail)-1].item(r.width), true
}
