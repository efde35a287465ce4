// Package storage implements the in-memory storage engine: table heaps,
// B-tree indexes, multi-version (MVCC) transactions and a write-ahead log of
// committed changes. The log is structurally the thing SQL Server's
// transactional replication "sniffs": the log reader agent in internal/repl
// reads committed transactions from it in commit order (paper §2.2).
package storage

import (
	"sync/atomic"

	"mtcache/internal/types"
)

// btreeOrder is the maximum number of keys per node. 64 keeps nodes around a
// cache line multiple and the tree shallow for our table sizes.
const btreeOrder = 64

// Item is one B-tree entry: an index key plus the RowID it points at. For
// non-unique indexes the RowID is appended to the comparison so every stored
// entry is distinct.
type Item struct {
	Key types.Row
	RID RowID
}

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

// BTree is an in-memory B-tree over Items with copy-on-write updates: Insert
// and Delete give every node on the changed path a new header and publish a
// new root with a single atomic store; an array the change does not modify
// is shared with the published tree (see node). Mutators must still be
// externally serialized (the Store's per-table write latch does this), but
// any number of readers may traverse a pinned root concurrently — and keep
// iterating their snapshot while later writes publish new roots.
type BTree struct {
	root atomic.Pointer[node]
	size atomic.Int64
}

// node is one tree node. A header reachable from a published root is never
// written again, but its arrays may be shared with newer headers:
//
//   - an inner node on an insert path gets a fresh children array and keeps
//     its items array, unless a child split hoists a median into it;
//   - a leaf's new last entry is appended to its items array in place, at an
//     index past the length of every header that covers the array, so no
//     reader of an older header can see the write;
//   - every change that shortens or rearranges an array — a middle insert,
//     a split's halves, delete, borrow and merge — works on a fresh array.
type node struct {
	items    []Item
	children []*node // nil for leaves
}

func (n *node) leaf() bool { return n.children == nil }

// clone returns a copy of n with fresh item and child slices. The pointed-to
// children are shared; the mutating path replaces only the ones it touches.
func (n *node) clone() *node { return n.cloneWithRoom(0) }

// cloneWithRoom is clone with capacity for extra more items (and children),
// so a caller that grows the copy does not allocate it twice.
func (n *node) cloneWithRoom(extra int) *node {
	c := &node{items: append(make([]Item, 0, len(n.items)+extra), n.items...)}
	if n.children != nil {
		c.children = append(make([]*node, 0, len(n.children)+extra), n.children...)
	}
	return c
}

// NewBTree returns an empty tree.
func NewBTree() *BTree {
	t := &BTree{}
	t.root.Store(&node{})
	return t
}

// pin returns the current root for a consistent read-only traversal.
func (t *BTree) pin() *node { return t.root.Load() }

// Len returns the number of entries.
func (t *BTree) Len() int { return int(t.size.Load()) }

// find locates the first index in n.items >= it, and whether an exact match
// exists at that index.
func (n *node) find(it Item) (int, bool) {
	lo, hi := 0, len(n.items)
	for lo < hi {
		mid := (lo + hi) / 2
		if cmpItem(n.items[mid], it) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(n.items) && cmpItem(n.items[lo], it) == 0 {
		return lo, true
	}
	return lo, false
}

// Insert adds an entry. An entry already present (same key and rid) is left
// as it is, and the tree publishes no new root.
func (t *BTree) Insert(it Item) {
	r := t.root.Load()
	if len(r.items) >= btreeOrder {
		if r.has(it) {
			return
		}
		nr := &node{children: []*node{r}}
		nr.splitChild(0)
		r = nr
	}
	if nr, added := r.insert(it); added {
		t.root.Store(nr)
		t.size.Add(1)
	}
}

// has reports whether the subtree under n holds an entry equal to it.
func (n *node) has(it Item) bool {
	for {
		i, found := n.find(it)
		if found || n.leaf() {
			return found
		}
		n = n.children[i]
	}
}

// insert returns a copy of n with the entry added and true, or n itself and
// false when the entry is already present. It copies only what it changes
// (see node).
func (n *node) insert(it Item) (*node, bool) {
	i, found := n.find(it)
	if found {
		return n, false
	}
	if n.leaf() {
		return n.withItem(i, it), true
	}
	if child := n.children[i]; len(child.items) >= btreeOrder {
		if child.has(it) {
			return n, false
		}
		c := n.cloneWithRoom(1) // the split hoists the child's median into c
		c.splitChild(i)
		if cmpItem(it, c.items[i]) > 0 {
			i++
		}
		c.children[i], _ = c.children[i].insert(it)
		return c, true
	}
	nc, added := n.children[i].insert(it)
	if !added {
		return n, false
	}
	c := &node{items: n.items, children: append(make([]*node, 0, len(n.children)), n.children...)}
	c.children[i] = nc
	return c, true
}

// withItem returns a new leaf header holding n's items with it at index i. A
// new last entry is appended to n's array when it has room (no header covers
// that index yet); otherwise the array is copied, with room for a full leaf
// when the copy is for an append, so a leaf that grows at its end is copied
// once per split rather than once per insert.
func (n *node) withItem(i int, it Item) *node {
	if i == len(n.items) {
		items := n.items
		if len(items) == cap(items) {
			items = append(make([]Item, 0, btreeOrder), items...)
		}
		return &node{items: append(items, it)}
	}
	items := make([]Item, len(n.items)+1)
	copy(items, n.items[:i])
	items[i] = it
	copy(items[i+1:], n.items[i:])
	return &node{items: items}
}

// splitChild splits the full child at index i, hoisting its median into n.
// n must be caller-owned (a fresh clone); the child is cloned before mutation.
func (n *node) splitChild(i int) {
	child := n.children[i].clone()
	n.children[i] = child
	mid := len(child.items) / 2
	median := child.items[mid]
	right := &node{items: append([]Item(nil), child.items[mid+1:]...)}
	if !child.leaf() {
		right.children = append([]*node(nil), child.children[mid+1:]...)
		child.children = child.children[:mid+1]
	}
	child.items = child.items[:mid]

	n.items = append(n.items, Item{})
	copy(n.items[i+1:], n.items[i:])
	n.items[i] = median
	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = right
}

// Delete removes the entry equal to it (key and rid both matching).
// It reports whether an entry was removed.
func (t *BTree) Delete(it Item) bool {
	r := t.root.Load()
	nr, ok := r.delete(it)
	if !ok {
		return false
	}
	if len(nr.items) == 0 && !nr.leaf() {
		nr = nr.children[0]
	}
	t.root.Store(nr)
	t.size.Add(-1)
	return true
}

const minItems = btreeOrder / 2

// delete returns a path-copied node with the entry removed. When the entry is
// absent it returns the original node untouched (no clone is published).
func (n *node) delete(it Item) (*node, bool) {
	i, found := n.find(it)
	if n.leaf() {
		if !found {
			return n, false
		}
		c := n.clone()
		c.items = append(c.items[:i], c.items[i+1:]...)
		return c, true
	}
	c := n.clone()
	if found {
		// CLRS case 2: the key lives in this internal node.
		left := c.children[i].clone()
		right := c.children[i+1].clone()
		c.children[i], c.children[i+1] = left, right
		if len(left.items) > minItems {
			pred := left.max()
			c.items[i] = pred
			nl, _ := left.delete(pred)
			c.children[i] = nl
			return c, true
		}
		if len(right.items) > minItems {
			succ := right.min()
			c.items[i] = succ
			nr, _ := right.delete(succ)
			c.children[i+1] = nr
			return c, true
		}
		// Merge left + separator + right, then delete from the merged node.
		left.items = append(left.items, c.items[i])
		left.items = append(left.items, right.items...)
		left.children = append(left.children, right.children...)
		c.items = append(c.items[:i], c.items[i+1:]...)
		c.children = append(c.children[:i+1], c.children[i+2:]...)
		nm, ok := left.delete(it)
		c.children[i] = nm
		return c, ok
	}
	// CLRS case 3: descend, topping up the child first so it cannot underflow.
	c.ensureChild(i)
	j, _ := c.find(it)
	nc, ok := c.children[j].delete(it)
	if !ok {
		// Nothing removed: discard the restructured clone, keep the original.
		return n, false
	}
	c.children[j] = nc
	return c, true
}

func (n *node) max() Item {
	for !n.leaf() {
		n = n.children[len(n.children)-1]
	}
	return n.items[len(n.items)-1]
}

func (n *node) min() Item {
	for !n.leaf() {
		n = n.children[0]
	}
	return n.items[0]
}

// ensureChild guarantees children[i] has more than minItems entries so a
// recursive delete cannot underflow it. n must be caller-owned (a fresh
// clone); every sibling it mutates is cloned first.
func (n *node) ensureChild(i int) {
	if len(n.children[i].items) > minItems {
		return
	}
	switch {
	case i > 0 && len(n.children[i-1].items) > minItems:
		// borrow from left sibling
		child, left := n.children[i].clone(), n.children[i-1].clone()
		n.children[i], n.children[i-1] = child, left
		child.items = append([]Item{n.items[i-1]}, child.items...)
		n.items[i-1] = left.items[len(left.items)-1]
		left.items = left.items[:len(left.items)-1]
		if !left.leaf() {
			child.children = append([]*node{left.children[len(left.children)-1]}, child.children...)
			left.children = left.children[:len(left.children)-1]
		}
	case i < len(n.children)-1 && len(n.children[i+1].items) > minItems:
		// borrow from right sibling
		child, right := n.children[i].clone(), n.children[i+1].clone()
		n.children[i], n.children[i+1] = child, right
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
		child, right := n.children[i].clone(), n.children[i+1]
		n.children[i] = child
		child.items = append(child.items, n.items[i])
		child.items = append(child.items, right.items...)
		child.children = append(child.children, right.children...)
		n.items = append(n.items[:i], n.items[i+1:]...)
		n.children = append(n.children[:i+1], n.children[i+2:]...)
	}
}

// Get returns the RowIDs of all entries whose key equals key exactly.
func (t *BTree) Get(key types.Row) []RowID {
	var out []RowID
	t.AscendRange(key, key, func(it Item) bool {
		out = append(out, it.RID)
		return true
	})
	return out
}

// Ascend visits all entries in key order.
func (t *BTree) Ascend(fn func(Item) bool) {
	t.pin().ascend(Item{}, false, fn)
}

// AscendGE visits entries with key >= from (by key prefix comparison).
func (t *BTree) AscendGE(from types.Row, fn func(Item) bool) {
	t.pin().ascend(Item{Key: from, RID: -1 << 62}, true, fn)
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

// ascendRange is the node-level range scan shared by BTree and IndexView.
func (n *node) ascendRange(lo, hi types.Row, fn func(Item) bool) {
	n.ascend(Item{Key: lo, RID: -1 << 62}, true, func(it Item) bool {
		if prefixCmp(it.Key, hi) > 0 {
			return false
		}
		return fn(it)
	})
}

func (n *node) ascend(from Item, bounded bool, fn func(Item) bool) bool {
	start := 0
	if bounded {
		start, _ = n.find(from)
	}
	for i := start; i <= len(n.items); i++ {
		if !n.leaf() {
			b := bounded && i == start
			if !n.children[i].ascend(from, b, fn) {
				return false
			}
		}
		if i < len(n.items) {
			if !fn(n.items[i]) {
				return false
			}
		}
	}
	return true
}

// descend visits, in reverse key order, the entries whose key prefix is at
// most hi; a nil hi starts at the last entry.
func (n *node) descend(hi types.Row, fn func(Item) bool) bool {
	// end is the number of leading items within the bound: every subtree left
	// of items[end-1] is inside it, children[end] straddles it.
	end := len(n.items)
	if hi != nil {
		lo := 0
		for lo < end {
			mid := (lo + end) / 2
			if prefixCmp(n.items[mid].Key, hi) > 0 {
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
			if !n.children[i].descend(bound, fn) {
				return false
			}
		}
		if i > 0 && !fn(n.items[i-1]) {
			return false
		}
	}
	return true
}

// get collects the RowIDs of all entries equal to key in a pinned subtree.
func (n *node) get(key types.Row) []RowID {
	var out []RowID
	n.ascendRange(key, key, func(it Item) bool {
		out = append(out, it.RID)
		return true
	})
	return out
}

// Min returns the smallest entry, or a zero Item if empty.
func (t *BTree) Min() (Item, bool) {
	n := t.pin()
	if len(n.items) == 0 {
		return Item{}, false
	}
	return n.min(), true
}

// Max returns the largest entry, or a zero Item if empty.
func (t *BTree) Max() (Item, bool) {
	n := t.pin()
	if len(n.items) == 0 {
		return Item{}, false
	}
	return n.max(), true
}
