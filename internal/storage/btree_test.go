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

func intItem(k int64, rid RowID) Item {
	return Item{Key: types.Row{types.NewInt(k)}, RID: rid}
}

func TestBTreeInsertGet(t *testing.T) {
	bt := NewBTree()
	for i := int64(0); i < 1000; i++ {
		bt.Insert(intItem(i, RowID(i)))
	}
	if bt.Len() != 1000 {
		t.Fatalf("len %d", bt.Len())
	}
	for i := int64(0); i < 1000; i++ {
		rids := bt.Get(types.Row{types.NewInt(i)})
		if len(rids) != 1 || rids[0] != RowID(i) {
			t.Fatalf("get %d: %v", i, rids)
		}
	}
	if rids := bt.Get(types.Row{types.NewInt(5000)}); len(rids) != 0 {
		t.Error("missing key returned rows")
	}
}

func TestBTreeDuplicateKeysDistinctRIDs(t *testing.T) {
	bt := NewBTree()
	for rid := RowID(0); rid < 10; rid++ {
		bt.Insert(intItem(7, rid))
	}
	rids := bt.Get(types.Row{types.NewInt(7)})
	if len(rids) != 10 {
		t.Fatalf("want 10 rids, got %d", len(rids))
	}
}

func TestBTreeDeleteAll(t *testing.T) {
	bt := NewBTree()
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
	if _, ok := bt.Min(); ok {
		t.Error("empty tree has a min")
	}
}

func TestBTreeDeleteMissing(t *testing.T) {
	bt := NewBTree()
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
	bt := NewBTree()
	vals := rand.New(rand.NewSource(1)).Perm(2000)
	for _, v := range vals {
		bt.Insert(intItem(int64(v), RowID(v)))
	}
	var got []int64
	bt.Ascend(func(it Item) bool {
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
	bt := NewBTree()
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

func TestBTreeAscendGEStopsEarly(t *testing.T) {
	bt := NewBTree()
	for i := int64(0); i < 100; i++ {
		bt.Insert(intItem(i, RowID(i)))
	}
	count := 0
	bt.AscendGE(types.Row{types.NewInt(95)}, func(it Item) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestBTreeCompositeKeyPrefixScan(t *testing.T) {
	bt := NewBTree()
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
	bt := NewBTree()
	for _, v := range []int64{5, 3, 9, 1, 7} {
		bt.Insert(intItem(v, RowID(v)))
	}
	mn, _ := bt.Min()
	mx, _ := bt.Max()
	if mn.Key[0].Int() != 1 || mx.Key[0].Int() != 9 {
		t.Fatalf("min=%v max=%v", mn.Key, mx.Key)
	}
}

// Property: a B-tree behaves like a sorted set under random insert/delete.
func TestBTreeMatchesReferenceModel(t *testing.T) {
	f := func(ops []int16) bool {
		bt := NewBTree()
		ref := map[int64]bool{}
		for _, op := range ops {
			k := int64(op) % 50
			if k < 0 {
				k = -k
			}
			if op%2 == 0 {
				bt.Insert(intItem(k, RowID(k)))
				ref[k] = true
			} else {
				bt.Delete(intItem(k, RowID(k)))
				delete(ref, k)
			}
		}
		if bt.Len() != len(ref) {
			return false
		}
		for k := range ref {
			if len(bt.Get(types.Row{types.NewInt(k)})) != 1 {
				return false
			}
		}
		// ordered iteration matches sorted reference keys
		var keys []int64
		bt.Ascend(func(it Item) bool { keys = append(keys, it.Key[0].Int()); return true })
		if len(keys) != len(ref) {
			return false
		}
		for i := 1; i < len(keys); i++ {
			if keys[i-1] >= keys[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Stress the rebalancing paths with a large interleaved workload.
func TestBTreeChurn(t *testing.T) {
	bt := NewBTree()
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
	bt.Ascend(func(it Item) bool {
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
	return s.Begin(false).Table("p")
}

// pairItem is the entry of pairStore's row k: key (k/8, k), rid k.
func pairItem(k int64) Item {
	return Item{Key: types.Row{types.NewInt(k / 8), types.NewInt(k)}, RID: RowID(k)}
}

// yields is what a pinned root shows, each sequence of keys folded into one
// FNV-1a hash: an ascending walk, a descending walk, and AppendMatches of
// every 8th group (key prefix k/8).
type yields [3]uint64

func yieldsOf(tv *TableView, r *node, groups int64) yields {
	var y yields
	fold := func(i int, k int64) { y[i] = (y[i] ^ uint64(k)) * 1099511628211 }
	for i := range y {
		y[i] = 14695981039346656037
	}
	r.ascend(Item{}, false, func(it Item) bool { fold(0, it.Key[1].Int()); return true })
	r.descend(nil, func(it Item) bool { fold(1, it.Key[1].Int()); return true })
	iv := &IndexView{tv: tv, id: &indexData{meta: &catalog.Index{Columns: []int{0, 1}}}, root: r}
	var rows []types.Row
	for g := int64(0); g < groups; g += 8 {
		rows = iv.AppendMatches(rows[:0], types.Row{types.NewInt(g)})
		for _, row := range rows {
			fold(2, row[1].Int())
		}
	}
	return y
}

// TestPinnedRootNeverChanges: a root, once published, yields the same entries
// for ever, whatever the writes after it do to the arrays it shares with them.
// A tree of ascending even keys, one short of splitting its root, takes a
// seeded op stream: mostly tail inserts (the next even key), with middle
// inserts (odd keys, some landing after the last entry of a split's left
// half), deletes, and re-inserts of present entries, which must publish no
// new root. The root is pinned after every op.
func TestPinnedRootNeverChanges(t *testing.T) {
	const preload, ops = 2000, 1200
	const keys = 2 * (preload + ops)
	tv := pairStore(t, keys)
	bt := NewBTree()
	var model []int64 // the keys present, ascending
	tail := int64(0)
	for ; tail < 2*preload; tail += 2 {
		bt.Insert(pairItem(tail))
		model = append(model, tail)
	}
	if d := depth(bt.pin()); d != 2 {
		t.Fatalf("preload: depth %d, want 2", d)
	}
	rng := rand.New(rand.NewSource(34))
	type pin struct {
		root *node
		op   string
		y    yields
	}
	pins := make([]pin, 0, ops)
	for i := 0; i < ops; i++ {
		var op string
		switch r := rng.Intn(20); {
		case r < 12:
			op = fmt.Sprintf("tail insert %d", tail)
			bt.Insert(pairItem(tail))
			model = append(model, tail)
			tail += 2
		case r < 15:
			k := rng.Int63n(tail) | 1
			op = fmt.Sprintf("middle insert %d", k)
			bt.Insert(pairItem(k))
			if j, found := slices.BinarySearch(model, k); !found {
				model = slices.Insert(model, j, k)
			}
		case r < 18:
			j := rng.Intn(len(model))
			op = fmt.Sprintf("delete %d", model[j])
			if !bt.Delete(pairItem(model[j])) {
				t.Fatalf("op %d: %s found nothing", i, op)
			}
			model = slices.Delete(model, j, j+1)
		default:
			k := model[rng.Intn(len(model))]
			op = fmt.Sprintf("re-insert %d", k)
			before := bt.pin()
			bt.Insert(pairItem(k))
			if bt.pin() != before {
				t.Fatalf("op %d: %s published a new root", i, op)
			}
		}
		r := bt.pin()
		var got []int64
		r.ascend(Item{}, false, func(it Item) bool { got = append(got, it.Key[1].Int()); return true })
		if !slices.Equal(got, model) || bt.Len() != len(model) {
			t.Fatalf("op %d (%s): the tree holds %d entries, the model %d", i, op, bt.Len(), len(model))
		}
		pins = append(pins, pin{r, op, yieldsOf(tv, r, keys/8)})
	}
	if d := depth(bt.pin()); d != 3 {
		t.Fatalf("the stream left a tree of depth %d; it must split the root", d)
	}
	for i, p := range pins {
		if got := yieldsOf(tv, p.root, keys/8); got != p.y {
			t.Fatalf("the root pinned after op %d (%s) no longer yields what it did: %x, recorded %x", i, p.op, got, p.y)
		}
	}
}

func depth(n *node) int {
	d := 1
	for ; !n.leaf(); n = n.children[0] {
		d++
	}
	return d
}

// TestTailAppendUnderConcurrentReaders: readers pin and walk the tree while
// one writer appends ascending even keys, mixed with inserts and deletes of
// odd keys. Every walk is strictly ordered and holds every even key whose
// Insert returned before the walk pinned its root. Under -race, a write to
// an array a reader's header covers is reported.
func TestTailAppendUnderConcurrentReaders(t *testing.T) {
	const ops, readers = 4000, 3
	bt := NewBTree()
	var evens atomic.Int64 // even keys 0, 2, …, 2(evens-1) are in the tree
	var done atomic.Bool
	errs := make(chan error, readers)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(desc bool) {
			defer wg.Done()
			for walks := 0; ; walks++ {
				last := done.Load()
				want := evens.Load()
				r := bt.pin()
				var keys []int64
				visit := func(it Item) bool { keys = append(keys, it.Key[0].Int()); return true }
				if desc {
					r.descend(nil, visit)
					slices.Reverse(keys)
				} else {
					r.ascend(Item{}, false, visit)
				}
				next := int64(0) // the next even key the walk must hold
				for i, k := range keys {
					if i > 0 && k <= keys[i-1] {
						errs <- fmt.Errorf("walk %d (desc=%v): %d after %d", walks, desc, k, keys[i-1])
						return
					}
					if k%2 == 0 {
						if k != next {
							errs <- fmt.Errorf("walk %d (desc=%v): even key %d missing", walks, desc, next)
							return
						}
						next += 2
					}
				}
				if next/2 < want {
					errs <- fmt.Errorf("walk %d (desc=%v): %d even keys, %d were inserted before the pin", walks, desc, next/2, want)
					return
				}
				if last {
					return
				}
				runtime.Gosched()
			}
		}(g%2 == 1)
	}
	rng := rand.New(rand.NewSource(7))
	var odds []int64
	for i := 0; i < ops; i++ {
		switch r := rng.Intn(10); {
		case r < 7 || evens.Load() == 0:
			k := 2 * evens.Load()
			bt.Insert(intItem(k, RowID(k)))
			evens.Add(1)
		case r < 9:
			k := rng.Int63n(2*evens.Load()) | 1
			bt.Insert(intItem(k, RowID(k)))
			odds = append(odds, k)
		case len(odds) > 0:
			j := rng.Intn(len(odds))
			bt.Delete(intItem(odds[j], RowID(odds[j])))
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
}

// TestIndexInsertAllocBudget: what one insert allocates in a depth-2 tree. A
// new last entry of a leaf with room costs the two headers and the root's
// child array, a middle insert also a fresh copy of the leaf's items, and an
// entry already present nothing. Copying every array on the path would cost 5
// in each case.
func TestIndexInsertAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	bt := NewBTree()
	const tail = 2 * 500 // even keys 0 … 998: a root over leaves
	for k := int64(0); k < tail; k += 2 {
		bt.Insert(intItem(k, RowID(k)))
	}
	root := bt.pin()
	last := root.children[len(root.children)-1]
	// The last leaf has outgrown its split copy, so its array has room.
	if depth(root) != 2 || len(last.items) < 33 || cap(last.items)-len(last.items) < 11 {
		t.Fatalf("fixture: depth %d, last leaf %d/%d", depth(root), len(last.items), cap(last.items))
	}
	first := root.children[0]
	// AllocsPerRun makes 11 calls; the items are built before it counts.
	items := func(from, step int64) []Item {
		its := make([]Item, 11)
		for i := range its {
			k := from + step*int64(i)
			its[i] = intItem(k, RowID(k))
		}
		return its
	}
	for _, g := range []struct {
		name   string
		items  []Item
		allocs float64
	}{
		{"tail", items(tail, 2), 3}, // into the last leaf, which has room
		{"middle", items(1, 2), 4},  // odd keys 1, 3, …: inside the first leaf, never its last entry
		{"present", items(500, 0), 0},
	} {
		allocs := testing.AllocsPerRun(10, func() {
			bt.Insert(g.items[0])
			g.items = g.items[1:]
		})
		t.Logf("%s insert: %.0f allocs", g.name, allocs)
		if allocs > g.allocs {
			t.Errorf("%s insert: %.0f allocs, want at most %.0f", g.name, allocs, g.allocs)
		}
	}
	if d := depth(bt.pin()); d != 2 || len(bt.pin().children[0].items) != len(first.items)+11 {
		t.Fatalf("the inserts left the fixture: depth %d", d)
	}
}

// BenchmarkIndexInsert: one index insert, ascending keys (every one a new last
// entry of the rightmost leaf) and random keys. Each op also builds its key,
// one object of allocs/op.
func BenchmarkIndexInsert(b *testing.B) {
	for _, order := range []string{"ascending", "random"} {
		b.Run(order, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			bt := NewBTree()
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
