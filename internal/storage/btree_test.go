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
	bt := NewBTree(1)
	for i := int64(0); i < 1000; i++ {
		bt.Insert(intItem(i, RowID(i)))
	}
	if bt.Len() != 1000 {
		t.Fatalf("len %d", bt.Len())
	}
	for i := int64(0); i < 1000; i++ {
		rids := bt.pin().get(types.Row{types.NewInt(i)})
		if len(rids) != 1 || rids[0] != RowID(i) {
			t.Fatalf("get %d: %v", i, rids)
		}
	}
	if rids := bt.pin().get(types.Row{types.NewInt(5000)}); len(rids) != 0 {
		t.Error("missing key returned rows")
	}
}

func TestBTreeDuplicateKeysDistinctRIDs(t *testing.T) {
	bt := NewBTree(1)
	for rid := RowID(0); rid < 10; rid++ {
		bt.Insert(intItem(7, rid))
	}
	rids := bt.pin().get(types.Row{types.NewInt(7)})
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
	if _, ok := bt.Min(); ok {
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

func TestBTreeAscendGEStopsEarly(t *testing.T) {
	bt := NewBTree(1)
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
	mn, _ := bt.Min()
	mx, _ := bt.Max()
	if mn.Key[0].Int() != 1 || mx.Key[0].Int() != 9 {
		t.Fatalf("min=%v max=%v", mn.Key, mx.Key)
	}
}

// Property: a B-tree behaves like a sorted set under random insert/delete.
func TestBTreeMatchesReferenceModel(t *testing.T) {
	f := func(ops []int16) bool {
		bt := NewBTree(1)
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
			if len(bt.pin().get(types.Row{types.NewInt(k)})) != 1 {
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
	return view(s.Begin(false), "p")
}

// pairItem is the entry of pairStore's row k: key (k/8, k), rid k.
func pairItem(k int64) Item {
	return Item{Key: types.Row{types.NewInt(k / 8), types.NewInt(k)}, RID: RowID(k)}
}

// pairView is an IndexView over the columns (0, 1) of pairStore's view tv
// that reads the pinned root r.
func pairView(tv *TableView, r *root) *IndexView {
	return &IndexView{tv: *tv, id: &indexData{meta: &catalog.Index{Columns: []int{0, 1}}}, root: r}
}

// pairKey is the index key of pairStore's row k.
func pairKey(k int64) types.Row { return pairItem(k).Key }

// yields is what a pinned root shows, each sequence of keys folded into one
// FNV-1a hash: an ascending walk, a descending walk, AppendMatches of every
// 8th group (key prefix k/8), and firstMatch of every 31st key (-1 when the
// root holds no entry with that key).
type yields [4]uint64

func yieldsOf(tv *TableView, r *root, groups int64) yields {
	var y yields
	fold := func(i int, k int64) { y[i] = (y[i] ^ uint64(k)) * 1099511628211 }
	for i := range y {
		y[i] = 14695981039346656037
	}
	r.ascend(&r.node, Item{}, false, func(it Item) bool { fold(0, it.Key[1].Int()); return true })
	r.descend(&r.node, nil, func(it Item) bool { fold(1, it.Key[1].Int()); return true })
	iv := pairView(tv, r)
	var rows []types.Row
	for g := int64(0); g < groups; g += 8 {
		rows = iv.AppendMatches(rows[:0], types.Row{types.NewInt(g)})
		for _, row := range rows {
			fold(2, row[1].Int())
		}
	}
	always := func(RowID) bool { return true }
	for k := int64(0); k < 8*groups; k += 31 {
		rid, _ := r.firstMatch(&r.node, pairKey(k), always)
		fold(3, int64(rid))
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
	bt := NewBTree(2)
	var model []int64 // the keys present, ascending
	tail := int64(0)
	for ; tail < 2*preload; tail += 2 {
		bt.Insert(pairItem(tail))
		model = append(model, tail)
	}
	if d := depth(&bt.pin().node); d != 2 {
		t.Fatalf("preload: depth %d, want 2", d)
	}
	rng := rand.New(rand.NewSource(34))
	type pin struct {
		root *root
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
		r.ascend(&r.node, Item{}, false, func(it Item) bool { got = append(got, it.Key[1].Int()); return true })
		if !slices.Equal(got, model) || bt.Len() != len(model) {
			t.Fatalf("op %d (%s): the tree holds %d entries, the model %d", i, op, bt.Len(), len(model))
		}
		pins = append(pins, pin{r, op, yieldsOf(tv, r, keys/8)})
	}
	if d := depth(&bt.pin().node); d != 3 {
		t.Fatalf("the stream left a tree of depth %d; it must split the root", d)
	}
	for i, p := range pins {
		if got := yieldsOf(tv, p.root, keys/8); got != p.y {
			t.Fatalf("the root pinned after op %d (%s) no longer yields what it did: %x, recorded %x", i, p.op, got, p.y)
		}
	}
}

// TestBTreeMatchesReferenceModelAtDepthThree: a tree that a seeded op stream
// takes from depth 2 across a root split agrees with a sorted model after
// every op, through every reader. The stream is mostly tail appends (the next
// even key), with middle inserts (odd keys), re-inserts of present entries
// and deletes, and three bursts that delete the largest entry 70 times: more
// entries than the rightmost leaf holds, so it empties and merges.
func TestBTreeMatchesReferenceModelAtDepthThree(t *testing.T) {
	const preload, ops, burst = 2000, 1800, 70
	const keys = 2 * (preload + ops)
	tv := pairStore(t, keys)
	bt := NewBTree(2)
	var model []int64 // the keys present, ascending
	next := int64(0)  // the next tail key
	for ; next < 2*preload; next += 2 {
		bt.Insert(pairItem(next))
		model = append(model, next)
	}
	if d := depth(&bt.pin().node); d != 2 {
		t.Fatalf("preload: depth %d, want 2", d)
	}
	rng := rand.New(rand.NewSource(54))
	deep := false
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
			bt.Insert(pairItem(k))
			model = append(model, k)
			next += 2
		case r < 80:
			k = rng.Int63n(next) | 1
			op = fmt.Sprintf("middle insert %d", k)
			bt.Insert(pairItem(k))
			if j, found := slices.BinarySearch(model, k); !found {
				model = slices.Insert(model, j, k)
			}
		case r < 86:
			k = model[rng.Intn(len(model))]
			op = fmt.Sprintf("re-insert %d", k)
			before := bt.pin()
			bt.Insert(pairItem(k))
			if bt.pin() != before {
				t.Fatalf("op %d: %s published a new root", i, op)
			}
		default:
			j := rng.Intn(len(model))
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
		deep = deep || depth(&bt.pin().node) == 3
	}
	if !deep {
		t.Fatal("the stream never split the root")
	}
}

// matchesModel checks the shape of bt's current root (balanced) and compares
// every reader of it with model, the keys present in ascending order: Len,
// Min, Max, full ascending and descending walks, and, for each probe key and
// the largest, firstMatch and get of its key, AppendMatches of its group and
// Walk in both directions over its group and the four after it.
func matchesModel(tv *TableView, bt *BTree, model []int64, probes []int64) error {
	r := bt.pin()
	if bt.Len() != len(model) {
		return fmt.Errorf("Len %d, the model holds %d", bt.Len(), len(model))
	}
	mn, okMin := bt.Min()
	mx, okMax := bt.Max()
	if !okMin || !okMax || mn.RID != RowID(model[0]) || mx.RID != RowID(model[len(model)-1]) {
		return fmt.Errorf("Min %d (%v), Max %d (%v), the model %d … %d", mn.RID, okMin, mx.RID, okMax, model[0], model[len(model)-1])
	}
	if err := balanced(r, &r.node, 1, depth(&r.node)); err != nil {
		return err
	}
	var got []int64
	visit := func(it Item) bool { got = append(got, it.Key[1].Int()); return true }
	bt.Ascend(visit)
	if !slices.Equal(got, model) {
		return fmt.Errorf("Ascend yields %d entries unlike the model's %d", len(got), len(model))
	}
	got = got[:0]
	r.descend(&r.node, nil, visit)
	slices.Reverse(got)
	if !slices.Equal(got, model) {
		return fmt.Errorf("descend yields %d entries unlike the model's %d", len(got), len(model))
	}
	iv := pairView(tv, r)
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
		if rids := r.get(pairKey(k)); len(rids) != 0 != present || present && rids[0] != want {
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

// balanced reports a node under the root r, at level lvl of the tree's d,
// that breaks the shape insert and delete keep: every leaf at depth d, and
// every node but the top holding from minItems-1 entries (a split's right
// half) to btreeOrder+1 (a merge of two nodes of minItems, with the separator).
func balanced(r *root, n *node, lvl, d int) error {
	k := len(r.entries(n))
	if n != &r.node && (k < minItems-1 || k > btreeOrder+1) {
		return fmt.Errorf("a node at level %d holds %d entries", lvl, k)
	}
	if n.leaf() != (lvl == d) {
		return fmt.Errorf("a node at level %d of %d is leaf=%v", lvl, d, n.leaf())
	}
	for _, c := range n.children {
		if err := balanced(r, c, lvl+1, d); err != nil {
			return err
		}
	}
	return nil
}

func depth(n *node) int {
	d := 1
	for ; !n.leaf(); n = n.children[0] {
		d++
	}
	return d
}

// TestTailAppendUnderConcurrentReaders: readers pin the tree while one writer
// appends ascending even keys across leaf and root splits, mixed with inserts
// and deletes of odd keys. Each reader reads its pinned root one way — an
// ascending or a descending walk, IndexView.Walk either way, firstMatch of
// the newest even keys, or AppendMatches of the newest groups — and finds
// the entries strictly ordered and every even key whose Insert returned
// before the pin. Under -race, a write to an array a reader's header or tail
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
				if err := readPinned(tv, bt.pin(), how, want); err != nil {
					errs <- fmt.Errorf("read %d (%s) of a root pinned after %d even keys: %v", reads, how, want, err)
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
	if d := depth(&bt.pin().node); d != 3 {
		t.Errorf("the writer left a tree of depth %d; it must split the root", d)
	}
}

// readPinned reads the pinned root r of a tree of pairStore entries one way
// and checks what it sees: strictly ascending keys that hold every even key
// below 2*evens.
func readPinned(tv *TableView, r *root, how string, evens int64) error {
	var keys []int64
	visit := func(it Item) bool { keys = append(keys, it.Key[1].Int()); return true }
	iv := pairView(tv, r)
	from := int64(0) // the smallest even key the read covers
	switch how {
	case "ascend":
		r.ascend(&r.node, Item{}, false, visit)
	case "descend":
		r.descend(&r.node, nil, visit)
		slices.Reverse(keys)
	case "walk", "walk desc":
		iv.Walk(nil, nil, how == "walk desc", visit)
		if how == "walk desc" {
			slices.Reverse(keys)
		}
	case "firstMatch":
		// the newest 80 even keys, which the tail holds
		from = max(0, 2*(evens-80))
		always := func(RowID) bool { return true }
		for k := from; k < 2*evens; k += 2 {
			if rid, _ := r.firstMatch(&r.node, pairKey(k), always); rid != RowID(k) {
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

// TestIndexInsertAllocBudget: what one index write allocates. A tail append —
// a new largest entry, into a rightmost leaf with room — publishes one
// object, a copy of the root header with the tail one entry longer, at any
// depth: 1 in a depth-2 tree and in a depth-3 tree, where a new header for
// every node on the path and a new children array for every inner one would
// cost 3 and 5. The first append after the rightmost leaf splits costs 1 and
// copies no array, since the split gives the new rightmost leaf room for a
// full leaf; the split itself costs 9. A middle insert into a depth-2 tree
// costs the two headers, the root's children array and a fresh copy of the
// leaf's items (4), an entry already present nothing, and a delete of the
// largest entry the two headers, the root's two arrays and the leaf's new
// array (5) — which has room for a full leaf too, so the appends after it
// cost 1 (4 when one had to copy an array sized to the entries). A split of
// a full leaf that is not the rightmost costs the root's header and its two
// arrays and each half's header and array (7), wherever the entry goes: the
// half that takes it is built with it in, so no array is made twice.
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
		tail := bt.pin().tail
		return len(tail)+n <= btreeOrder && len(tail)+n <= cap(tail)
	}

	const two = 2 * 500 // even keys 0 … 998: a root over leaves
	bt := ascending(two)
	if depth(&bt.pin().node) != 2 || !room(bt, 11) {
		t.Fatalf("fixture: depth %d, tail %d/%d", depth(&bt.pin().node), len(bt.pin().tail), cap(bt.pin().tail))
	}
	first := bt.pin().children[0]
	check("tail append at depth 2", allocs(items(two, 2, 11), bt.Insert), 1)
	check("middle insert", allocs(items(1, 2, 11), bt.Insert), 4) // odd keys 1, 3, …: inside the first leaf, never its last entry
	check("present", allocs(items(500, 0, 11), bt.Insert), 0)
	if d := depth(&bt.pin().node); d != 2 || len(bt.pin().children[0].items) != len(first.items)+11 {
		t.Fatalf("the inserts left the fixture: depth %d", d)
	}
	// The tail holds 43 entries; none of 11 deletes tops the leaf up.
	if tail := bt.pin().tail; len(tail)-10 <= minItems {
		t.Fatalf("fixture: tail %d", len(tail))
	}
	check("delete of the largest", allocs(items(two+20, -2, 11), func(it Item) { bt.Delete(it) }), 5)
	// The warm-up call deletes the largest entry, 998; the counted ones
	// append twice into the leaf's copy that the delete made, which has room
	// (the slot the deleted entry left would take only the first).
	deleted := false
	check("appends after a delete", allocs(items(two-2, 2, 3), func(it Item) {
		if !deleted {
			bt.Delete(it)
			deleted = true
			return
		}
		bt.Insert(it)
	}), 1)

	// The first leaf holds the even keys 0 … 62; the odd keys below 64 fill
	// it. Its median is 32, so an entry after 31's goes to the left half's
	// end, one after 15's into its middle, and one after 40's into the right
	// half.
	for _, key := range []int64{31, 15, 40} {
		bt := ascending(two)
		for k := int64(1); k < 64; k += 2 {
			bt.Insert(intItem(k, RowID(k)))
		}
		if leaf := bt.pin().children[0]; len(leaf.items) != btreeOrder || leaf.items[btreeOrder-1].row(1)[0].Int() != 63 {
			t.Fatalf("fixture: the first leaf holds %d entries", len(leaf.items))
		}
		name := fmt.Sprintf("split of a middle leaf, the entry after %d", key)
		check(name, allocs([]Item{intItem(0, 0), intItem(key, RowID(two+key))}, bt.Insert), 7) // the warm-up entry is present
		r := bt.pin()
		half, want := r.children[0], btreeOrder/2+1
		if key > btreeOrder/2 {
			half, want = r.children[1], btreeOrder/2
		}
		if len(half.items) != want || cap(half.items) != want {
			t.Errorf("%s: the half that took it holds %d entries in %d slots, want %d in as many", name, len(half.items), cap(half.items), want)
		}
	}

	const three = 2 * 2281 // the root has split, and the last leaf since: its tail is 37 long
	bt = ascending(three)
	if depth(&bt.pin().node) != 3 || !room(bt, 11) {
		t.Fatalf("fixture: depth %d, tail %d/%d", depth(&bt.pin().node), len(bt.pin().tail), cap(bt.pin().tail))
	}
	check("tail append at depth 3", allocs(items(three, 2, 11), bt.Insert), 1)
	next := int64(three + 22)
	for len(bt.pin().tail) < btreeOrder {
		bt.Insert(intItem(next, RowID(next)))
		next += 2
	}
	// The warm-up call splits the full rightmost leaf; the counted one is the
	// first append after the split.
	var split []entry
	check("first append after a split", allocs(items(next, 2, 2), func(it Item) {
		bt.Insert(it)
		if split == nil {
			split = bt.pin().tail
		}
	}), 1)
	if tail := bt.pin().tail; len(split) != btreeOrder/2 || cap(split) != btreeOrder || len(tail) != len(split)+1 || &tail[0] != &split[0] {
		t.Errorf("the append after the split copied the tail: %d entries after the split, %d after the append", len(split), len(tail))
	}
	// The split itself: a new parent header with its two arrays, both halves
	// with their arrays, and the root header and its children array. The
	// right half, the parent's own, takes the entry in place: its header and
	// its array, which has room (a second header for the half cost 10, and an
	// array sized to the half 11).
	next += 4
	for len(bt.pin().tail) < btreeOrder-1 {
		bt.Insert(intItem(next, RowID(next)))
		next += 2
	}
	check("split of the rightmost leaf", allocs(items(next, 2, 2), bt.Insert), 9) // the warm-up fills the leaf
	if d := depth(&bt.pin().node); d != 3 || len(bt.pin().tail) != btreeOrder/2 {
		t.Fatalf("the split left the fixture: depth %d, tail %d", d, len(bt.pin().tail))
	}
}

// BenchmarkIndexInsert: one index insert, ascending keys (every one a tail
// append: the root header's copy, and the new rightmost leaf's array once per
// split) and random keys. Each op also builds its key, one object of
// allocs/op.
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
