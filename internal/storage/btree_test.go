package storage

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"mtcache/internal/catalog"
	"mtcache/internal/types"
)

// get collects the RowIDs of all entries equal to key.
func (t *BTree) get(key types.Row) []RowID {
	var out []RowID
	t.AscendRange(key, key, func(it Item) bool {
		out = append(out, it.RID)
		return true
	})
	return out
}

// ends returns t's first and last entries, walked to as an index seek for
// MIN or MAX walks to them, and false for an empty tree.
func ends(t *BTree) (lo, hi Item, ok bool) {
	t.AscendRange(nil, nil, func(it Item) bool { lo, ok = it, true; return false })
	t.descend(t.top.Load(), nil, func(it Item) bool { hi = it; return false })
	return lo, hi, ok
}

func intItem(k int64, rid RowID) Item {
	return Item{Key: types.Row{types.NewInt(k)}, RID: rid}
}

func TestBTreeInsertGet(t *testing.T) {
	bt := NewBTree(1)
	for i := int64(0); i < 1000; i++ {
		bt.Insert(intItem(i, RowID(i)))
	}
	if bt.Len() != 1000 {
		t.Fatalf("len %d", bt.Len())
	}
	for i := int64(0); i < 1000; i++ {
		rids := bt.get(types.Row{types.NewInt(i)})
		if len(rids) != 1 || rids[0] != RowID(i) {
			t.Fatalf("get %d: %v", i, rids)
		}
	}
	if rids := bt.get(types.Row{types.NewInt(5000)}); len(rids) != 0 {
		t.Error("missing key returned rows")
	}
}

func TestBTreeDuplicateKeysDistinctRIDs(t *testing.T) {
	bt := NewBTree(1)
	for rid := RowID(0); rid < 10; rid++ {
		bt.Insert(intItem(7, rid))
	}
	rids := bt.get(types.Row{types.NewInt(7)})
	if len(rids) != 10 {
		t.Fatalf("want 10 rids, got %d", len(rids))
	}
}

func TestBTreeDeleteAll(t *testing.T) {
	bt := NewBTree(1)
	const n = 500
	perm := rand.New(rand.NewSource(42)).Perm(n)
	for _, i := range perm {
		bt.Insert(intItem(int64(i), RowID(i)))
	}
	perm2 := rand.New(rand.NewSource(7)).Perm(n)
	for _, i := range perm2 {
		if !bt.Delete(intItem(int64(i), RowID(i))) {
			t.Fatalf("delete %d failed", i)
		}
	}
	if bt.Len() != 0 {
		t.Fatalf("len after delete-all: %d", bt.Len())
	}
	if _, _, ok := ends(bt); ok {
		t.Error("empty tree has a min")
	}
}

func TestBTreeDeleteMissing(t *testing.T) {
	bt := NewBTree(1)
	bt.Insert(intItem(1, 1))
	if bt.Delete(intItem(2, 2)) {
		t.Error("deleting absent item reported true")
	}
	if bt.Delete(intItem(1, 99)) {
		t.Error("same key, different rid should not delete")
	}
	if bt.Len() != 1 {
		t.Error("len changed")
	}
}

func TestBTreeAscendOrder(t *testing.T) {
	bt := NewBTree(1)
	vals := rand.New(rand.NewSource(1)).Perm(2000)
	for _, v := range vals {
		bt.Insert(intItem(int64(v), RowID(v)))
	}
	var got []int64
	bt.AscendRange(nil, nil, func(it Item) bool {
		got = append(got, it.Key[0].Int())
		return true
	})
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatal("ascend not sorted")
	}
	if len(got) != 2000 {
		t.Fatalf("visited %d", len(got))
	}
}

func TestBTreeAscendRange(t *testing.T) {
	bt := NewBTree(1)
	for i := int64(0); i < 100; i++ {
		bt.Insert(intItem(i, RowID(i)))
	}
	var got []int64
	bt.AscendRange(types.Row{types.NewInt(10)}, types.Row{types.NewInt(20)}, func(it Item) bool {
		got = append(got, it.Key[0].Int())
		return true
	})
	if len(got) != 11 || got[0] != 10 || got[10] != 20 {
		t.Fatalf("range scan got %v", got)
	}
}

func TestBTreeAscendRangeStopsEarly(t *testing.T) {
	bt := NewBTree(1)
	for i := int64(0); i < 100; i++ {
		bt.Insert(intItem(i, RowID(i)))
	}
	count := 0
	bt.AscendRange(types.Row{types.NewInt(95)}, nil, func(it Item) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestBTreeCompositeKeyPrefixScan(t *testing.T) {
	bt := NewBTree(2)
	// key = (category, id)
	for cat := int64(0); cat < 5; cat++ {
		for id := int64(0); id < 20; id++ {
			bt.Insert(Item{Key: types.Row{types.NewInt(cat), types.NewInt(id)}, RID: RowID(cat*100 + id)})
		}
	}
	var got int
	lo := types.Row{types.NewInt(2)}
	hi := types.Row{types.NewInt(2)}
	bt.AscendRange(lo, hi, func(it Item) bool {
		if it.Key[0].Int() != 2 {
			t.Fatalf("prefix scan leaked key %v", it.Key)
		}
		got++
		return true
	})
	if got != 20 {
		t.Fatalf("prefix scan found %d", got)
	}
}

func TestBTreeMinMax(t *testing.T) {
	bt := NewBTree(1)
	for _, v := range []int64{5, 3, 9, 1, 7} {
		bt.Insert(intItem(v, RowID(v)))
	}
	mn, mx, _ := ends(bt)
	if mn.Key[0].Int() != 1 || mx.Key[0].Int() != 9 {
		t.Fatalf("min=%v max=%v", mn.Key, mx.Key)
	}
}

// Property: a B-tree behaves like a sorted set under a random stream of
// inserts and deletes. Each seed draws a key span, from under a leaf's worth
// to a few leaves', and 600 ops over it, half of them deletes: a delete
// leaves a hole in its leaf's array, inserts take the free slots past it
// until the array is full and is compacted, and leaves split and merge. The
// tree is compared with the model every 100 ops, and some insert of the run
// must compact an array with holes.
func TestBTreeMatchesReferenceModel(t *testing.T) {
	compactions := 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		span := int64(50 + rng.Intn(250))
		bt := NewBTree(1)
		ref := map[int64]bool{}
		for i := range 600 {
			k := rng.Int63n(span)
			if rng.Intn(2) == 0 {
				if leafWrite(bt, intItem(k, RowID(k))) == "compaction" {
					compactions++
				}
				bt.Insert(intItem(k, RowID(k)))
				ref[k] = true
			} else {
				bt.Delete(intItem(k, RowID(k)))
				delete(ref, k)
			}
			if i%100 == 99 && !agreesWithSet(bt, ref) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	if compactions == 0 {
		t.Error("no insert compacted a leaf array with holes")
	}
	t.Logf("%d compactions of an array with holes", compactions)
}

// agreesWithSet reports whether bt holds exactly the keys of ref, each with
// its key as rid, in ascending order.
func agreesWithSet(bt *BTree, ref map[int64]bool) bool {
	if bt.Len() != len(ref) {
		return false
	}
	for k := range ref {
		if len(bt.get(types.Row{types.NewInt(k)})) != 1 {
			return false
		}
	}
	var keys []int64
	bt.AscendRange(nil, nil, func(it Item) bool { keys = append(keys, it.Key[0].Int()); return true })
	return len(keys) == len(ref) && slices.IsSorted(keys) && len(slices.Compact(keys)) == len(ref)
}

// leafWrite names the write an insert of it into bt is about to make to the
// leaf whose interval holds it, unless a full node on the way splits first:
// "present" when bt holds it, "split" when the leaf is full, "compaction" of
// a full array with holes, "copy" of one without, "in place" when the entry
// goes after the leaf's last and onto its order, "order" when it takes a new
// order, and "tail" when it goes at the end of a sorted array.
func leafWrite(bt *BTree, it Item) string {
	n := bt.top.Load()
	if bt.has(n, it) {
		return "present"
	}
	for !n.leaf() {
		i, _ := bt.search(n.entries(), it)
		n = n.child(i)
	}
	i, _ := bt.search(n.entries(), it)
	switch c := n.count(); {
	case c >= btreeOrder:
		return "split"
	case int(n.fill) == len(n.items) && c < int(n.fill):
		return "compaction"
	case int(n.fill) == len(n.items):
		return "copy"
	case n.order == nil && i == c:
		return "tail"
	case i == c:
		return "in place"
	}
	return "order"
}

// Stress the rebalancing paths with a large interleaved workload.
func TestBTreeChurn(t *testing.T) {
	bt := NewBTree(1)
	r := rand.New(rand.NewSource(99))
	live := map[int64]bool{}
	for i := 0; i < 20000; i++ {
		k := int64(r.Intn(3000))
		if live[k] {
			if !bt.Delete(intItem(k, RowID(k))) {
				t.Fatalf("churn delete %d failed at step %d", k, i)
			}
			delete(live, k)
		} else {
			bt.Insert(intItem(k, RowID(k)))
			live[k] = true
		}
	}
	if bt.Len() != len(live) {
		t.Fatalf("len %d want %d", bt.Len(), len(live))
	}
	prev := int64(-1)
	bt.AscendRange(nil, nil, func(it Item) bool {
		k := it.Key[0].Int()
		if k <= prev {
			t.Fatalf("order violation: %d after %d", k, prev)
		}
		prev = k
		return true
	})
}

// pairStore returns a read view of a heap whose slot k holds the row (k/8, k)
// for every k below keys, so an entry pairItem(k) resolves through an
// IndexView over the columns (0, 1).
func pairStore(t testing.TB, keys int64) *TableView {
	t.Helper()
	s := NewStore()
	meta := &catalog.Table{Name: "p", Columns: []catalog.Column{{Name: "g", Type: types.KindInt}, {Name: "k", Type: types.KindInt}}}
	if err := s.CreateTable(meta); err != nil {
		t.Fatal(err)
	}
	tx := s.Begin(true)
	for k := int64(0); k < keys; k++ {
		if rid, err := tx.Insert("p", types.Row{types.NewInt(k / 8), types.NewInt(k)}); err != nil || rid != RowID(k) {
			t.Fatalf("row %d: rid %d, %v", k, rid, err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return view(s.Begin(false), "p")
}

// pairItem is the entry of pairStore's row k: key (k/8, k), rid k.
func pairItem(k int64) Item {
	return Item{Key: types.Row{types.NewInt(k / 8), types.NewInt(k)}, RID: RowID(k)}
}

// pairView is an IndexView over the columns (0, 1) of pairStore's view tv
// that reads the tree bt.
func pairView(tv *TableView, bt *BTree) *IndexView {
	return &IndexView{tv: *tv, id: &indexData{meta: &catalog.Index{Columns: []int{0, 1}}, tree: bt}}
}

// pairKey is the index key of pairStore's row k.
func pairKey(k int64) types.Row { return pairItem(k).Key }

// nodesOf returns every node of bt, top first, depth first.
func nodesOf(bt *BTree) []*node {
	var out []*node
	var walk func(n *node)
	walk = func(n *node) {
		out = append(out, n)
		for i := range n.slots() {
			walk(n.child(i))
		}
	}
	walk(bt.top.Load())
	return out
}

// lastLeaf returns the rightmost leaf of bt.
func lastLeaf(bt *BTree) *node {
	n := bt.top.Load()
	for !n.leaf() {
		n = n.child(n.count())
	}
	return n
}

// TestLiveWalksHoldEveryEntryPresentThroughout: readers read the live tree
// every way — ascending and descending walks, IndexView.Walk either way over
// the whole tree and over a range, firstMatch and get of single keys, and
// AppendMatches of groups — while one writer changes it, and each read yields
// entries in strict order, holds every entry present from before it began
// until after it ended, and holds no entry that was never inserted. The
// writer's seeded stream takes the tree from depth 2 to 3 and back twice: it
// grows by tail appends (the next even key) and middle inserts (odd keys)
// until the root splits, and shrinks by deletes — which borrow, merge and
// replace inner entries by a neighbour — until the root shrinks, with
// re-inserts of present entries throughout. Its deletes leave holes in leaf
// arrays, and its inserts must take every kind of leaf write: a new order, an
// order appended in place, and a compaction of a full array with holes.
// Under -race a write to a header, an array slot or an order byte a reader
// may read is reported.
func TestLiveWalksHoldEveryEntryPresentThroughout(t *testing.T) {
	const keys = 8000
	readers := []string{"ascend", "descend", "walk", "walk desc", "walk range", "walk range desc", "firstMatch", "get", "AppendMatches"}
	tv := pairStore(t, keys)
	bt := NewBTree(2)
	// ver[k] is odd while k is in the tree: the writer adds one after an
	// Insert of k returns and before a Delete of k begins, so a key whose
	// version is the same odd number before and after a read was present
	// throughout it. begun[k] is set before k's first Insert begins.
	ver := make([]atomic.Int64, keys)
	begun := make([]atomic.Bool, keys)
	var present []int64        // the writer's: the keys in the tree, ascending
	next := int64(0)           // the writer's: the next tail key
	writes := map[string]int{} // the writer's: its inserts' leaf writes (leafWrite)
	insert := func(k int64) {
		begun[k].Store(true)
		writes[leafWrite(bt, pairItem(k))]++
		bt.Insert(pairItem(k))
		if j, found := slices.BinarySearch(present, k); !found {
			present = slices.Insert(present, j, k)
			ver[k].Add(1)
		}
	}
	for ; next < 3000; next += 2 {
		insert(next)
	}

	var done atomic.Bool
	defer done.Store(true) // a failing writer stops the readers too
	var reads atomic.Int64
	errs := make(chan error, len(readers))
	var wg sync.WaitGroup
	for r, how := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			v0, v1 := make([]int64, keys), make([]int64, keys)
			// versions copies the versions of the keys in [lo, hi) into v.
			versions := func(v []int64, lo, hi int64) {
				for k := lo; k < hi; k++ {
					v[k-lo] = ver[k].Load()
				}
			}
			// read reads [lo, hi) with do, which returns what it yielded in
			// key order, and checks it.
			read := func(lo, hi int64, do func() []int64) error {
				versions(v0, lo, hi)
				got := do()
				versions(v1, lo, hi)
				j := 0
				for i, k := range got {
					switch {
					case i > 0 && k <= got[i-1]:
						return fmt.Errorf("%d after %d", k, got[i-1])
					case k < lo || k >= hi:
						return fmt.Errorf("key %d outside [%d, %d)", k, lo, hi)
					case !begun[k].Load():
						return fmt.Errorf("key %d was never inserted", k)
					}
				}
				for k := lo; k < hi; k++ {
					for j < len(got) && got[j] < k {
						j++
					}
					if v := v0[k-lo]; v%2 == 1 && v1[k-lo] == v && (j == len(got) || got[j] != k) {
						return fmt.Errorf("key %d, present throughout, missing", k)
					}
				}
				return nil
			}
			var got []int64
			var rows []types.Row
			// visit yields now and then, so that at -cpu=1 too the writer
			// runs in the middle of a walk.
			visit := func(it Item) bool {
				if got = append(got, it.Key[1].Int()); len(got)%64 == 0 {
					runtime.Gosched()
				}
				return true
			}
			iv := pairView(tv, bt)
			always := func(RowID) bool { return true }
			for n := 0; ; n++ {
				last := done.Load()
				var err error
				switch how {
				case "ascend", "descend", "walk", "walk desc":
					err = read(0, keys, func() []int64 {
						got = got[:0]
						switch how {
						case "ascend":
							bt.AscendRange(nil, nil, visit)
						case "descend":
							bt.descend(bt.top.Load(), nil, visit)
						default:
							iv.Walk(nil, nil, how == "walk desc", visit)
						}
						if how != "ascend" && how != "walk" {
							slices.Reverse(got)
						}
						return got
					})
				case "walk range", "walk range desc":
					g := rng.Int63n(keys / 8)
					h := min(keys/8-1, g+rng.Int63n(200))
					err = read(8*g, 8*h+8, func() []int64 {
						got = got[:0]
						iv.Walk(types.Row{types.NewInt(g)}, types.Row{types.NewInt(h)}, how == "walk range desc", visit)
						if how == "walk range desc" {
							slices.Reverse(got)
						}
						return got
					})
				case "firstMatch", "get":
					from := rng.Int63n(keys - 200)
					for k := from; k < from+200 && err == nil; k++ {
						err = read(k, k+1, func() []int64 {
							got = got[:0]
							if how == "get" {
								for _, rid := range bt.get(pairKey(k)) {
									got = append(got, int64(rid))
								}
							} else if rid := bt.firstMatch(pairKey(k), always); rid >= 0 {
								got = append(got, int64(rid))
							}
							return got
						})
					}
				case "AppendMatches":
					from := rng.Int63n(keys/8 - 40)
					for g := from; g < from+40 && err == nil; g++ {
						err = read(8*g, 8*g+8, func() []int64 {
							got = got[:0]
							rows = iv.AppendMatches(rows[:0], types.Row{types.NewInt(g)})
							for _, row := range rows {
								got = append(got, row[1].Int())
							}
							return got
						})
					}
				}
				if err != nil {
					errs <- fmt.Errorf("read %d (%s): %v", n, how, err)
					return
				}
				reads.Add(1)
				if last {
					return
				}
				runtime.Gosched()
			}
		}()
	}

	// The stream grows the tree without deletes until the root has split
	// and the tree has grown by 300 entries more, so the top's children can
	// lend; then it shrinks it, mostly by deletes of random entries and of
	// inner ones, until the root shrinks. An inner entry is put back by the
	// next op: it sorts between the neighbour that took its place and the
	// entries after it, into the interval the replacement widened.
	rng := rand.New(rand.NewSource(65))
	splits, shrinks, ops := 0, 0, 0
	grow, split := true, 0
	back := int64(-1) // an inner entry deleted by the last op, which this one puts back
	for ; splits < 2 || shrinks < 2; ops++ {
		if ops == 20000 {
			t.Fatalf("the stream split the root %d times and shrank it %d times in %d ops", splits, shrinks, ops)
		}
		d := depth(bt.top.Load())
		r := rng.Intn(100)
		tail, middle, again, inner := 5, 15, 25, 30 // shrinking: the rest are deletes of random entries
		if grow {
			tail, middle, again, inner = 75, 95, 100, 100
		}
		var del int64 = -1
		switch {
		case back >= 0:
			insert(back)
			back = -1
		case r < tail:
			insert(next)
			next += 2
		case r < middle:
			insert(rng.Int63n(next) | 1)
		case r < again:
			insert(present[rng.Intn(len(present))])
		case r < inner:
			// an entry of an inner node: of the top, or of one of its children
			n := bt.top.Load()
			if !n.leaf() && rng.Intn(2) == 0 {
				if c := n.child(rng.Intn(n.count() + 1)); !c.leaf() {
					n = c
				}
			}
			del = n.at(rng.Intn(n.count())).row(2)[1].Int()
			back = del
		default:
			del = present[rng.Intn(len(present))]
		}
		if del >= 0 {
			j, _ := slices.BinarySearch(present, del)
			ver[del].Add(1)
			if !bt.Delete(pairItem(del)) {
				t.Fatalf("op %d: delete %d found nothing", ops, del)
			}
			present = slices.Delete(present, j, j+1)
		}
		switch nd := depth(bt.top.Load()); {
		case nd > d:
			splits++
			split = len(present)
		case nd < d:
			shrinks++
			grow = true
		case grow && nd == 3 && len(present) > split+300:
			grow = false
		}
		if next >= keys {
			t.Fatalf("op %d: the stream ran out of keys", ops)
		}
		if ops%4 == 0 {
			runtime.Gosched()
		}
	}
	done.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	t.Logf("%d ops, %d root splits, %d root shrinks, %d reads, largest key %d; leaf writes of the inserts: %v", ops, splits, shrinks, reads.Load(), next-2, writes)
	for _, w := range []string{"compaction", "in place", "order"} {
		if writes[w] == 0 {
			t.Errorf("no insert made a leaf write of kind %q", w)
		}
	}
	var got []int64
	bt.AscendRange(nil, nil, func(it Item) bool { got = append(got, it.Key[1].Int()); return true })
	if !slices.Equal(got, present) || bt.Len() != len(present) {
		t.Fatalf("the tree holds %d entries, Len %d, the model %d", len(got), bt.Len(), len(present))
	}
}

// TestBTreeMatchesReferenceModelAtDepthThree: a tree that a seeded op stream
// takes from depth 2 across a root split agrees with a sorted model after
// every op, through every reader. The stream is mostly tail appends (the next
// even key), with middle inserts (odd keys), re-inserts of present entries
// and deletes, some of them among the largest eight entries, and three
// bursts that delete the largest entry 70 times: more entries than the
// rightmost leaf holds, so it empties and merges. Deletes leave holes that
// middle inserts write past until an array is full; the stream must compact
// such an array, and write orders in place at a leaf's end after a delete.
func TestBTreeMatchesReferenceModelAtDepthThree(t *testing.T) {
	const preload, ops, burst = 3600, 1800, 70
	const keys = 2 * (preload + ops)
	tv := pairStore(t, keys)
	bt := NewBTree(2)
	var model []int64 // the keys present, ascending
	next := int64(0)  // the next tail key
	for ; next < 2*preload; next += 2 {
		bt.Insert(pairItem(next))
		model = append(model, next)
	}
	if d := depth(bt.top.Load()); d != 2 {
		t.Fatalf("preload: depth %d, want 2", d)
	}
	rng := rand.New(rand.NewSource(54))
	deep := false
	writes := map[string]int{}
	count := func(k int64) { writes[leafWrite(bt, pairItem(k))]++ }
	for i := 0; i < ops; i++ {
		var op string
		var k int64
		switch r := rng.Intn(100); {
		case i%600 >= 300 && i%600 < 300+burst:
			k = model[len(model)-1]
			op = fmt.Sprintf("tail delete %d", k)
			if !bt.Delete(pairItem(k)) {
				t.Fatalf("op %d: %s found nothing", i, op)
			}
			model = model[:len(model)-1]
		case r < 70:
			k = next
			op = fmt.Sprintf("tail insert %d", k)
			count(k)
			bt.Insert(pairItem(k))
			model = append(model, k)
			next += 2
		case r < 80:
			k = rng.Int63n(next) | 1
			op = fmt.Sprintf("middle insert %d", k)
			count(k)
			bt.Insert(pairItem(k))
			if j, found := slices.BinarySearch(model, k); !found {
				model = slices.Insert(model, j, k)
			}
		case r < 86:
			k = model[rng.Intn(len(model))]
			op = fmt.Sprintf("re-insert %d", k)
			before := nodesOf(bt)
			bt.Insert(pairItem(k))
			if !slices.Equal(nodesOf(bt), before) {
				t.Fatalf("op %d: %s stored a node", i, op)
			}
		default:
			j := rng.Intn(len(model))
			if r < 89 { // one of the largest 8: a hole in the rightmost leaf, which the tail appends then write past
				j = len(model) - 1 - rng.Intn(min(8, len(model)))
			}
			k = model[j]
			op = fmt.Sprintf("delete %d", k)
			if !bt.Delete(pairItem(k)) {
				t.Fatalf("op %d: %s found nothing", i, op)
			}
			model = slices.Delete(model, j, j+1)
		}
		if err := matchesModel(tv, bt, model, []int64{k, k + 1, model[rng.Intn(len(model))]}); err != nil {
			t.Fatalf("op %d (%s): %v", i, op, err)
		}
		deep = deep || depth(bt.top.Load()) == 3
	}
	if !deep {
		t.Fatal("the stream never split the root")
	}
	t.Logf("leaf writes of the inserts: %v", writes)
	if writes["compaction"] == 0 || writes["in place"] == 0 {
		t.Fatal("the stream compacted no array with holes or appended to no order in place")
	}
}

// TestReplacedNodesReadAsBefore: after every write of a seeded stream, a walk
// from the top the write replaced — a reader that loaded it just before the
// write — yields entries in strict order, holds every entry present both
// before and after the write, and none present at neither. The stream is
// TestBTreeMatchesReferenceModelAtDepthThree's kind, across a root split:
// tail appends, middle inserts, deletes, of the largest entries too, so that
// it splits the rightmost leaf at the right edge, appends in place after a
// delete and borrows into the rightmost leaf, and deletes of inner entries,
// which a neighbour replaces, each put back by the next op. It is the walk
// contract without a scheduler: a write that lowers a count in place, or
// writes into a slot an older header covers, fails it.
func TestReplacedNodesReadAsBefore(t *testing.T) {
	const preload, ops = 4000, 1500
	rng := rand.New(rand.NewSource(73))
	bt := NewBTree(1)
	var model []int64                     // the keys present, ascending
	next := int64(2 * preload)            // the next tail key
	for _, k := range rng.Perm(preload) { // median splits: leaves of 32 to 64, some of which a delete makes lend
		bt.Insert(intItem(2*int64(k), RowID(2*k)))
	}
	for k := int64(0); k < next; k += 2 {
		model = append(model, k)
	}
	deep := false
	back := int64(-1) // an inner entry deleted by the last op, which this one puts back
	for i := range ops {
		old, before := bt.top.Load(), slices.Clone(model)
		var k int64
		switch r := rng.Intn(100); {
		case back >= 0:
			k, back = back, -1
			bt.Insert(intItem(k, RowID(k)))
			j, _ := slices.BinarySearch(model, k)
			model = slices.Insert(model, j, k)
		case r < 10:
			// an entry of an inner node, the top or one of its children: its
			// neighbour takes its place, and the next op puts it back, into
			// the interval the neighbour widened
			n := bt.top.Load()
			if c := n.child(rng.Intn(n.count() + 1)); !c.leaf() && rng.Intn(2) == 0 {
				n = c
			}
			k = n.at(rng.Intn(n.count())).row(1)[0].Int()
			if !bt.Delete(intItem(k, RowID(k))) {
				t.Fatalf("op %d: delete %d found nothing", i, k)
			}
			j, _ := slices.BinarySearch(model, k)
			model = slices.Delete(model, j, j+1)
			back = k
		case r < 55:
			k, next = next, next+2
			bt.Insert(intItem(k, RowID(k)))
			model = append(model, k)
		case r < 70:
			k = rng.Int63n(next) | 1
			bt.Insert(intItem(k, RowID(k)))
			if j, found := slices.BinarySearch(model, k); !found {
				model = slices.Insert(model, j, k)
			}
		default:
			j := rng.Intn(len(model))
			if r < 85 { // one of the largest 8
				j = len(model) - 1 - rng.Intn(min(8, len(model)))
			}
			k = model[j]
			if !bt.Delete(intItem(k, RowID(k))) {
				t.Fatalf("op %d: delete %d found nothing", i, k)
			}
			model = slices.Delete(model, j, j+1)
		}
		var got []int64
		bt.ascend(old, Item{}, false, func(it Item) bool { got = append(got, it.Key[0].Int()); return true })
		if err := readAsBefore(got, before, model); err != nil {
			t.Fatalf("op %d (key %d): a walk of the replaced top: %v", i, k, err)
		}
		deep = deep || depth(bt.top.Load()) == 3
	}
	if !deep || !agreesWithKeys(bt, model) {
		t.Fatalf("the stream left a tree of depth %d that agrees with the model: %v", depth(bt.top.Load()), agreesWithKeys(bt, model))
	}
}

// readAsBefore reports where got, what a walk during one write yielded,
// breaks the walk contract: strictly ascending, holding every key of both
// before and after, the keys present before and after the write, and none
// of neither.
func readAsBefore(got, before, after []int64) error {
	b, a := 0, 0
	for i, k := range got {
		if i > 0 && k <= got[i-1] {
			return fmt.Errorf("%d after %d", k, got[i-1])
		}
		for ; b < len(before) && before[b] < k; b++ {
		}
		for ; a < len(after) && after[a] < k; a++ {
		}
		if (b == len(before) || before[b] != k) && (a == len(after) || after[a] != k) {
			return fmt.Errorf("key %d, present neither before nor after", k)
		}
	}
	g, a := 0, 0
	for _, k := range before {
		for ; a < len(after) && after[a] < k; a++ {
		}
		if a == len(after) || after[a] != k {
			continue
		}
		for ; g < len(got) && got[g] < k; g++ {
		}
		if g == len(got) || got[g] != k {
			return fmt.Errorf("key %d, present throughout, missing", k)
		}
	}
	return nil
}

// matchesModel checks the shape of bt (balanced) and compares every reader
// of it with model, the keys present in ascending order: Len,
// Min, Max, full ascending and descending walks, and, for each probe key and
// the largest, firstMatch and get of its key, AppendMatches of its group and
// Walk in both directions over its group and the four after it.
func matchesModel(tv *TableView, bt *BTree, model []int64, probes []int64) error {
	top := bt.top.Load()
	if bt.Len() != len(model) {
		return fmt.Errorf("Len %d, the model holds %d", bt.Len(), len(model))
	}
	mn, mx, ok := ends(bt)
	if !ok || mn.RID != RowID(model[0]) || mx.RID != RowID(model[len(model)-1]) {
		return fmt.Errorf("first %d, last %d (%v), the model %d … %d", mn.RID, mx.RID, ok, model[0], model[len(model)-1])
	}
	if err := balanced(top, top, 1, depth(top), true); err != nil {
		return err
	}
	var got []int64
	visit := func(it Item) bool { got = append(got, it.Key[1].Int()); return true }
	bt.AscendRange(nil, nil, visit)
	if !slices.Equal(got, model) {
		return fmt.Errorf("Ascend yields %d entries unlike the model's %d", len(got), len(model))
	}
	got = got[:0]
	bt.descend(top, nil, visit)
	slices.Reverse(got)
	if !slices.Equal(got, model) {
		return fmt.Errorf("descend yields %d entries unlike the model's %d", len(got), len(model))
	}
	iv := pairView(tv, bt)
	always := func(RowID) bool { return true }
	for _, k := range append(probes, model[len(model)-1]) {
		_, present := slices.BinarySearch(model, k)
		want := RowID(-1)
		if present {
			want = RowID(k)
		}
		if rid := bt.firstMatch(pairKey(k), always); rid != want {
			return fmt.Errorf("firstMatch %d: rid %d, want %d", k, rid, want)
		}
		if rids := bt.get(pairKey(k)); len(rids) != 0 != present || present && rids[0] != want {
			return fmt.Errorf("get %d: %v, present %v", k, rids, present)
		}
		g := k / 8
		lo, _ := slices.BinarySearch(model, 8*g)
		hi, _ := slices.BinarySearch(model, 8*g+8)
		got = got[:0]
		for _, row := range iv.AppendMatches(nil, types.Row{types.NewInt(g)}) {
			got = append(got, row[1].Int())
		}
		if !slices.Equal(got, model[lo:hi]) {
			return fmt.Errorf("AppendMatches of group %d: %v, want %v", g, got, model[lo:hi])
		}
		end, _ := slices.BinarySearch(model, 8*g+40)
		from, to := types.Row{types.NewInt(g)}, types.Row{types.NewInt(g + 4)}
		for _, desc := range []bool{false, true} {
			got = got[:0]
			iv.Walk(from, to, desc, visit)
			if desc {
				slices.Reverse(got)
			}
			if !slices.Equal(got, model[lo:end]) {
				return fmt.Errorf("Walk of groups %d … %d (desc=%v) yields %d entries, want %d", g, g+4, desc, len(got), end-lo)
			}
		}
	}
	return nil
}

// balanced reports a node under top, at level lvl of the tree's d, that
// breaks the shape insert and delete keep: every leaf at depth d, and every
// node but the top holding from minItems-1 entries (a median split's right
// half) to btreeOrder+1 (a merge of two nodes of minItems, with the
// separator) — except the rightmost leaf below the top, which may hold as
// few as one: a right-edge split leaves it the new entry alone, and a delete
// tops it up before it would empty. edge says n is on the right edge.
func balanced(top, n *node, lvl, d int, edge bool) error {
	k, least := n.count(), minItems-1
	if edge && n.leaf() {
		least = 1
	}
	if n != top && (k < least || k > btreeOrder+1) {
		return fmt.Errorf("a node at level %d holds %d entries (rightmost: %v)", lvl, k, edge)
	}
	if n.leaf() != (lvl == d) {
		return fmt.Errorf("a node at level %d of %d is leaf=%v", lvl, d, n.leaf())
	}
	for i := range n.slots() {
		if err := balanced(top, n.child(i), lvl+1, d, edge && i == k); err != nil {
			return err
		}
	}
	return nil
}

func depth(n *node) int {
	d := 1
	for ; !n.leaf(); n = n.child(0) {
		d++
	}
	return d
}

// TestTailAppendUnderConcurrentReaders: readers read the live tree while one
// writer appends ascending even keys across leaf and root splits, mixed with
// inserts and deletes of odd keys. Each reader reads the tree one way — an
// ascending or a descending walk, IndexView.Walk either way, firstMatch of
// the newest even keys, or AppendMatches of the newest groups — and finds
// the entries strictly ordered and every even key whose Insert returned
// before the read began. Under -race, a write to an array a reader's header
// covers is reported.
func TestTailAppendUnderConcurrentReaders(t *testing.T) {
	const ops = 4000
	readers := []string{"ascend", "descend", "walk", "walk desc", "firstMatch", "AppendMatches"}
	tv := pairStore(t, 2*ops)
	bt := NewBTree(2)
	var evens atomic.Int64 // even keys 0, 2, …, 2(evens-1) are in the tree
	var done atomic.Bool
	errs := make(chan error, len(readers))
	var wg sync.WaitGroup
	for _, how := range readers {
		wg.Add(1)
		go func(how string) {
			defer wg.Done()
			for reads := 0; ; reads++ {
				last := done.Load()
				want := evens.Load()
				if err := readLive(tv, bt, how, want); err != nil {
					errs <- fmt.Errorf("read %d (%s) begun after %d even keys: %v", reads, how, want, err)
					return
				}
				if last {
					return
				}
				runtime.Gosched()
			}
		}(how)
	}
	rng := rand.New(rand.NewSource(7))
	var odds []int64
	for i := 0; i < ops; i++ {
		switch r := rng.Intn(10); {
		case r < 7 || evens.Load() == 0:
			bt.Insert(pairItem(2 * evens.Load()))
			evens.Add(1)
		case r < 9:
			k := rng.Int63n(2*evens.Load()) | 1
			bt.Insert(pairItem(k))
			odds = append(odds, k)
		case len(odds) > 0:
			j := rng.Intn(len(odds))
			bt.Delete(pairItem(odds[j]))
			odds = slices.Delete(odds, j, j+1)
		}
		if i%64 == 0 {
			runtime.Gosched()
		}
	}
	done.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if d := depth(bt.top.Load()); d != 3 {
		t.Errorf("the writer left a tree of depth %d; it must split the root", d)
	}
}

// readLive reads bt, a tree of pairStore entries, one way and checks what it
// sees: strictly ascending keys that hold every even key below 2*evens.
func readLive(tv *TableView, bt *BTree, how string, evens int64) error {
	var keys []int64
	visit := func(it Item) bool { keys = append(keys, it.Key[1].Int()); return true }
	iv := pairView(tv, bt)
	from := int64(0) // the smallest even key the read covers
	switch how {
	case "ascend":
		bt.AscendRange(nil, nil, visit)
	case "descend":
		bt.descend(bt.top.Load(), nil, visit)
		slices.Reverse(keys)
	case "walk", "walk desc":
		iv.Walk(nil, nil, how == "walk desc", visit)
		if how == "walk desc" {
			slices.Reverse(keys)
		}
	case "firstMatch":
		// the newest 80 even keys, which the rightmost leaves hold
		from = max(0, 2*(evens-80))
		always := func(RowID) bool { return true }
		for k := from; k < 2*evens; k += 2 {
			if rid := bt.firstMatch(pairKey(k), always); rid != RowID(k) {
				return fmt.Errorf("firstMatch %d: rid %d", k, rid)
			}
			keys = append(keys, k)
		}
	case "AppendMatches":
		// the groups of the newest 80 even keys
		from = max(0, 2*(evens-80)) &^ 7
		var rows []types.Row
		for g := from / 8; g <= max(0, 2*(evens-1))/8; g++ {
			rows = iv.AppendMatches(rows[:0], types.Row{types.NewInt(g)})
			for _, row := range rows {
				if row[0].Int() != g {
					return fmt.Errorf("AppendMatches of group %d holds key %d", g, row[1].Int())
				}
				keys = append(keys, row[1].Int())
			}
		}
	}
	next := from // the next even key the read must hold
	for i, k := range keys {
		if i > 0 && k <= keys[i-1] {
			return fmt.Errorf("%d after %d", k, keys[i-1])
		}
		if k%2 == 0 {
			if k != next {
				return fmt.Errorf("even key %d missing", next)
			}
			next += 2
		}
	}
	if next < 2*evens {
		return fmt.Errorf("read even keys up to %d only", next-2)
	}
	return nil
}

// TestTailStreamKeepsItsRootSplit: a stream of tail appends and deletes of
// the largest entry that hovers within 8 entries of the size at which a leaf
// top splits splits it once and never shrinks it. A median split leaves two
// leaves of minItems, which cannot lend, so a delete of the largest soon
// merges them back under the top and the next append splits it again; a
// right-edge split leaves the full leaf's 63 entries on the left, which lend
// the rightmost leaf an entry only when a delete would empty it.
func TestTailStreamKeepsItsRootSplit(t *testing.T) {
	bt := NewBTree(1)
	var keys []int64 // the keys present, ascending
	next := int64(0) // the next tail key
	push := func() {
		bt.Insert(intItem(next, RowID(next)))
		keys = append(keys, next)
		next++
	}
	for depth(bt.top.Load()) == 1 {
		push()
	}
	at := len(keys) // the size the top split at
	rng := rand.New(rand.NewSource(73))
	splits, shrinks := 0, 0
	for i := range 1000 {
		d := depth(bt.top.Load())
		if n := len(keys); n > at+8 || n >= at-8 && rng.Intn(2) == 0 {
			k := keys[n-1]
			if !bt.Delete(intItem(k, RowID(k))) {
				t.Fatalf("op %d: delete of the largest, %d, found nothing", i, k)
			}
			keys = keys[:n-1]
		} else {
			push()
		}
		switch nd := depth(bt.top.Load()); {
		case nd > d:
			splits++
		case nd < d:
			shrinks++
		}
	}
	if !agreesWithKeys(bt, keys) {
		t.Fatalf("the tree does not hold the stream's %d keys", len(keys))
	}
	t.Logf("the top split at %d entries; 1000 ops within 8 of it split it %d more times and shrank it %d times", at, splits, shrinks)
	if splits != 0 || shrinks != 0 {
		t.Errorf("the stream split the top %d more times and shrank it %d times, want neither", splits, shrinks)
	}
}

// agreesWithKeys reports whether bt holds exactly keys, ascending, each with
// its key as rid.
func agreesWithKeys(bt *BTree, keys []int64) bool {
	var got []int64
	bt.AscendRange(nil, nil, func(it Item) bool { got = append(got, it.Key[0].Int()); return it.RID == RowID(it.Key[0].Int()) })
	return slices.Equal(got, keys) && bt.Len() == len(keys)
}

// TestIndexInsertAllocBudget: what one index write allocates. A write copies
// only the nodes whose own arrays change and stores the copy into its
// parent's slot, and a leaf's array only when it is full, so at any depth: a
// tail append — a new largest entry, into a rightmost leaf with room — writes
// its entry into the array and publishes it with the leaf's count, in place
// (0; 1 when it published a new leaf header); a middle insert writes its
// entry into a free slot of the array and stores the leaf's new header with
// its order, one object (1), or, into a full array, the header and the copy
// (2; 4 with every node on the path copied in a depth-2 tree, and 2 for
// every middle insert before leaves kept orders); an entry already present
// nothing; and a delete that rebalances nothing the leaf's new header with
// an order one byte shorter, over the same array (1; 2 when it copied the
// array, 5 with the path copied too). After a delete of a leaf's last entry
// the appends write past the hole and onto the delete's order in place (0).
// A split of the full rightmost leaf by a new largest entry keeps the full
// array under a new header of 63 entries and puts the new entry alone in a
// new leaf with room for a full leaf: the left header, the new leaf's header
// and array, and the parent's header and two arrays (6; 7 when it copied
// both halves), and the appends after it cost nothing. A split of any other
// full leaf costs the parent's header and its two arrays and each half's
// header and array (7), wherever the entry goes and at any depth: the half
// that takes it is built with it in, so no array is made twice, and nothing
// above the parent is copied.
func TestIndexInsertAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	// ascending returns a tree of the even keys below n, appended in order.
	ascending := func(n int64) *BTree {
		bt := NewBTree(1)
		for k := int64(0); k < n; k += 2 {
			bt.Insert(intItem(k, RowID(k)))
		}
		return bt
	}
	// items returns count entries from, from+step, …: AllocsPerRun counts no
	// key building.
	items := func(from, step int64, count int) []Item {
		its := make([]Item, count)
		for i := range its {
			k := from + step*int64(i)
			its[i] = intItem(k, RowID(k))
		}
		return its
	}
	// allocs is what op allocates on average for its[1:], after a warm-up
	// call with its[0].
	allocs := func(its []Item, op func(Item)) float64 {
		return testing.AllocsPerRun(len(its)-1, func() {
			op(its[0])
			its = its[1:]
		})
	}
	check := func(name string, got, want float64) {
		t.Logf("%s: %.0f allocs", name, got)
		if got > want {
			t.Errorf("%s: %.0f allocs, want at most %.0f", name, got, want)
		}
	}
	// room reports whether the rightmost leaf of bt takes n more appends
	// without a split or a copy of its array.
	room := func(bt *BTree, n int) bool {
		tail := lastLeaf(bt)
		return tail.count()+n <= btreeOrder && int(tail.fill)+n <= len(tail.items)
	}
	// splits checks, in a tree made by ascending(n), of depth d, that a split
	// of its first leaf, a full leaf once it takes the odd key 1, costs 7 with
	// the new entry going to the left half's end, into its middle, into the
	// right half, or after the leaf's last entry (a median split, since the
	// leaf is not on the right edge), and that the half that takes it has an
	// array sized to its entries, or room for a full leaf when the entry is
	// the leaf's new last. The first leaf holds 0, 1, 2, 4 … 124 and its
	// median is 62, so an entry after 60 goes to the left half's end, one
	// after 14 into its middle, one after 80 into the right half, and one
	// after 124 at the end of the right half.
	splits := func(n int64, d int) {
		for _, key := range []int64{61, 15, 81, 125} {
			bt := ascending(n)
			bt.Insert(intItem(1, 1))
			leaf := bt.top.Load()
			for !leaf.leaf() {
				leaf = leaf.child(0)
			}
			if depth(bt.top.Load()) != d || leaf.count() != btreeOrder || leaf.at(btreeOrder - 1).row(1)[0].Int() != 124 {
				t.Fatalf("fixture: depth %d, the first leaf holds %d entries", depth(bt.top.Load()), leaf.count())
			}
			name := fmt.Sprintf("split of a middle leaf at depth %d, the entry after %d", d, key-1)
			check(name, allocs([]Item{intItem(0, 0), intItem(key, RowID(n+key))}, bt.Insert), 7) // the warm-up entry is present
			p := bt.top.Load()
			for !p.child(0).leaf() {
				p = p.child(0)
			}
			half, want, slots := p.child(0), btreeOrder/2+1, btreeOrder/2+1
			if key > 62 {
				half, want, slots = p.child(1), btreeOrder/2, btreeOrder/2
			}
			if key == 125 {
				slots = btreeOrder
			}
			if half.count() != want || len(half.items) != slots {
				t.Errorf("%s: the half that took it holds %d entries in %d slots, want %d in %d", name, half.count(), len(half.items), want, slots)
			}
		}
	}

	const two = 2 * 478 // even keys 0 … 954: a top over 7 full leaves and the rightmost, of 30 entries
	bt := ascending(two)
	if depth(bt.top.Load()) != 2 || lastLeaf(bt).count() != 30 || !room(bt, 22) {
		t.Fatalf("fixture: depth %d, tail %d/%d", depth(bt.top.Load()), lastLeaf(bt).count(), len(lastLeaf(bt).items))
	}
	check("tail append at depth 2", allocs(items(two, 2, 11), bt.Insert), 0)
	// Odd keys two-59, two-57, …: inside the rightmost leaf, never its last
	// entry. Each writes a new order.
	check("middle insert at depth 2", allocs(items(two-59, 2, 11), bt.Insert), 1)
	check("present", allocs(items(500, 0, 11), bt.Insert), 0)
	if d := depth(bt.top.Load()); d != 2 || lastLeaf(bt).count() != 30+22 {
		t.Fatalf("the inserts left the fixture: depth %d, tail %d", d, lastLeaf(bt).count())
	}
	// The rightmost leaf holds 52 entries; none of 11 deletes tops it up.
	if tail := lastLeaf(bt).count(); tail-10 <= minItems {
		t.Fatalf("fixture: tail %d", tail)
	}
	check("delete of the largest", allocs(items(two+20, -2, 11), func(it Item) { bt.Delete(it) }), 1)
	// The warm-up call deletes the largest entry, 998, which leaves a hole in
	// the array and a new order; the counted ones append twice past the hole
	// and onto that order, each in place.
	deleted := false
	check("appends after a delete", allocs(items(two-2, 2, 3), func(it Item) {
		if !deleted {
			bt.Delete(it)
			deleted = true
			return
		}
		bt.Insert(it)
	}), 0)
	splits(two, 2)

	// A delete in the rightmost leaf when it holds one entry first has it
	// borrow the last entry of the full leaf before it. The leaf it then
	// becomes has room for a full leaf, so the append after the delete goes
	// in place (2 while its array was sized to its entries: a compaction's
	// array and its header).
	const borrow = 2 * 449 // even keys 0 … 896: a top over 7 full leaves and the rightmost, of 896 alone
	bt = ascending(borrow)
	if d := depth(bt.top.Load()); d != 2 || lastLeaf(bt).count() != 1 {
		t.Fatalf("fixture: depth %d, tail %d", d, lastLeaf(bt).count())
	}
	deleted = false
	check("tail append after a borrow into the rightmost leaf", allocs(items(borrow-2, 2, 2), func(it Item) {
		if !deleted {
			bt.Delete(it)
			deleted = true
			return
		}
		bt.Insert(it)
	}), 0)
	if tail := lastLeaf(bt); tail.count() != 2 || len(tail.items) != btreeOrder {
		t.Errorf("after the borrow and the append the rightmost leaf holds %d entries in %d slots, want 2 in %d", tail.count(), len(tail.items), btreeOrder)
	}

	const three = 2 * 4133 // the root has split, and the last leaf since: it holds 37 entries
	bt = ascending(three)
	if depth(bt.top.Load()) != 3 || lastLeaf(bt).count() != 37 || !room(bt, 22) {
		t.Fatalf("fixture: depth %d, tail %d/%d", depth(bt.top.Load()), lastLeaf(bt).count(), len(lastLeaf(bt).items))
	}
	check("tail append at depth 3", allocs(items(three, 2, 11), bt.Insert), 0)
	check("middle insert at depth 3", allocs(items(three-73, 2, 11), bt.Insert), 1)
	next := int64(three + 22)
	for lastLeaf(bt).count() < btreeOrder {
		bt.Insert(intItem(next, RowID(next)))
		next += 2
	}
	// The warm-up call splits the full rightmost leaf; the counted one is the
	// first append after the split, in place into the new leaf.
	var split *node
	check("first append after a split", allocs(items(next, 2, 2), func(it Item) {
		bt.Insert(it)
		if split == nil {
			split = lastLeaf(bt)
		}
	}), 0)
	if tail := lastLeaf(bt); tail != split || tail.count() != 2 || len(tail.items) != btreeOrder {
		t.Errorf("the append after the split replaced the leaf: %d entries in %d slots", tail.count(), len(tail.items))
	}
	// The split itself: a new header over the full leaf's array, one entry
	// shorter, and the new leaf with its array; a new parent header with its
	// two arrays. Nothing above the parent is copied.
	next += 4
	for lastLeaf(bt).count() < btreeOrder-1 {
		bt.Insert(intItem(next, RowID(next)))
		next += 2
	}
	full := lastLeaf(bt)
	check("split of the rightmost leaf", allocs(items(next, 2, 2), bt.Insert), 6) // the warm-up fills the leaf
	p := bt.top.Load()
	for !p.child(0).leaf() {
		p = p.child(p.count())
	}
	left := p.child(p.count() - 1)
	if d := depth(bt.top.Load()); d != 3 || lastLeaf(bt).count() != 1 || len(lastLeaf(bt).items) != btreeOrder {
		t.Fatalf("the split left the fixture: depth %d, tail %d in %d slots", d, lastLeaf(bt).count(), len(lastLeaf(bt).items))
	}
	if left == full || left.count() != btreeOrder-1 || &left.items[0] != &full.items[0] || full.count() != btreeOrder {
		t.Errorf("the split's left half holds %d entries (a new header: %v, over the full leaf's array: %v), and the full leaf %d", left.count(), left != full, &left.items[0] == &full.items[0], full.count())
	}
	splits(three, 3)
}

// BenchmarkIndexInsert: one index insert, ascending keys (every one a tail
// append, written in place, and once per 63 appends a right-edge split: the
// left header, the new leaf's header and array, the parent's header and two
// arrays) and random keys (mostly a new header and order, and a leaf's copy
// or split when its array is full). Each op also builds its key, one object
// of allocs/op.
func BenchmarkIndexInsert(b *testing.B) {
	for _, order := range []string{"ascending", "random"} {
		b.Run(order, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			bt := NewBTree(1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k := int64(i)
				if order == "random" {
					k = rng.Int63()
				}
				bt.Insert(intItem(k, RowID(i)))
			}
		})
	}
}

// BenchmarkIndexSeek: one point probe (firstMatch) of a present key, drawn
// at random, in a tree of 100 000 entries, built bottom-up (sorted leaf
// arrays) or inserted in random order (leaves that read through an order).
func BenchmarkIndexSeek(b *testing.B) {
	const n = 100000
	rng := rand.New(rand.NewSource(1))
	keys := rng.Perm(n)
	its := make([]Item, n)
	for i := range its {
		its[i] = intItem(int64(i), RowID(i))
	}
	for _, how := range []string{"built", "inserted"} {
		b.Run(how, func(b *testing.B) {
			bt := NewBTree(1)
			if how == "built" {
				bt.build(entriesFrom(its))
			} else {
				for _, k := range keys {
					bt.Insert(its[k])
				}
			}
			always := func(RowID) bool { return true }
			b.ResetTimer()
			for i := range b.N {
				k := keys[i%n]
				if bt.firstMatch(its[k].Key, always) != RowID(k) {
					b.Fatalf("key %d not found", k)
				}
			}
		})
	}
}

// newNameIndexStore builds a table with a secondary index on cname and n
// committed rows (i, name_i%7).
func newNameIndexStore(t *testing.T, n int64) *Store {
	t.Helper()
	s := NewStore()
	meta := custMeta()
	meta.Indexes = []*catalog.Index{{Name: "ix_name", Table: "customer", Columns: []int{1}}}
	if err := s.CreateTable(meta); err != nil {
		t.Fatal(err)
	}
	tx := s.Begin(true)
	for i := int64(0); i < n; i++ {
		row := types.Row{types.NewInt(i), types.NewString(fmt.Sprintf("name_%03d", i%7))}
		if _, err := tx.Insert("customer", row); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestAppendMatchesAgreesWithAscendRange: the allocation-free prefix seek
// returns exactly the rows the callback-based range scan visits, on a tree
// deep enough to have internal nodes, for a non-unique index and the primary
// key, after updates have left stale entries behind.
func TestAppendMatchesAgreesWithAscendRange(t *testing.T) {
	s := newNameIndexStore(t, 5000)
	// Move every third row to a new name: stale entries under the old one.
	wtx := s.Begin(true)
	for i := int64(0); i < 5000; i += 3 {
		rid := view(wtx, "customer").PKLookup(types.Row{types.NewInt(i)})
		if err := wtx.Update("customer", rid, types.Row{types.NewInt(i), types.NewString("moved")}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := wtx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx := s.Begin(false)
	defer tx.Abort()
	tv := view(tx, "customer")
	check := func(index string, key types.Row) int {
		t.Helper()
		iv := viewIndex(tv, index)
		var want []types.Row
		iv.Walk(key, key, false, func(it Item) bool {
			want = append(want, tv.Get(it.RID))
			return true
		})
		got := iv.AppendMatches(nil, key)
		if len(got) != len(want) {
			t.Fatalf("%s %v: %d rows, want %d", index, key, len(got), len(want))
		}
		for i := range want {
			if types.CompareRows(got[i], want[i]) != 0 {
				t.Fatalf("%s %v: row %d = %v, want %v", index, key, i, got[i], want[i])
			}
		}
		return len(got)
	}
	total := check("ix_name", types.Row{types.NewString("moved")})
	for i := 0; i < 8; i++ { // name_007 matches nothing
		total += check("ix_name", types.Row{types.NewString(fmt.Sprintf("name_%03d", i))})
	}
	if total != 5000 {
		t.Errorf("seeks over every name found %d rows, want 5000", total)
	}
	for _, id := range []int64{0, 1, 63, 64, 65, 2499, 4999, 5000, -1} {
		check("__pk", types.Row{types.NewInt(id)})
	}
}
