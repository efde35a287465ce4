package storage

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"mtcache/internal/catalog"
	"mtcache/internal/types"
)

// TestEntryIsSixteenBytes: a node's arrays hold entries of 16 bytes, half an
// Item's 32.
func TestEntryIsSixteenBytes(t *testing.T) {
	if size := unsafe.Sizeof(entry{}); size != 16 {
		t.Fatalf("an entry is %d bytes, want 16", size)
	}
}

// TestNodeHeaderIs48Bytes: a node header — its array, its first child slot,
// its order, its atomic count and the writer's fill — is 48 bytes, and one
// with its order 48 more than the order's 64: the object a middle insert or
// a delete publishes.
func TestNodeHeaderIs48Bytes(t *testing.T) {
	if size := unsafe.Sizeof(node{}); size != 48 || unsafe.Sizeof(orderedLeaf{}) != 48+btreeOrder {
		t.Fatalf("a node header is %d bytes and one with its order %d, want 48 and %d", size, unsafe.Sizeof(orderedLeaf{}), 48+btreeOrder)
	}
}

// keyStore returns a read view of a table of w columns and n rows, a row's
// slot its rid: an INT of 50 values, a VARCHAR of 10 and an INT of a
// million, the first w of them, so that keys share prefixes of every length.
func keyStore(t testing.TB, w, n int, rng *rand.Rand) *TableView {
	t.Helper()
	s := NewStore()
	kinds := []types.Kind{types.KindInt, types.KindString, types.KindInt}[:w]
	meta := &catalog.Table{Name: "k"}
	for i, k := range kinds {
		meta.Columns = append(meta.Columns, catalog.Column{Name: fmt.Sprintf("c%d", i), Type: k})
	}
	if err := s.CreateTable(meta); err != nil {
		t.Fatal(err)
	}
	tx := s.Begin(true)
	for rid := range n {
		row := types.Row{types.NewInt(rng.Int63n(50)), types.NewString(fmt.Sprintf("s%d", rng.Intn(10))), types.NewInt(rng.Int63n(1e6))}[:w]
		if got, err := tx.Insert("k", row); err != nil || got != RowID(rid) {
			t.Fatalf("row %d: rid %d, %v", rid, got, err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return view(s.Begin(false), "k")
}

// TestEntryKeysMatchSortedModel: trees of 1-, 2- and 3-column keys, whose
// entries keep only the address of a key's first value, agree with a sorted
// model of their entries after every op of a seeded stream. Each tree is
// built from entriesOf, which cuts every key from one slab, and then takes
// inserts whose keys come three to a slab, as an INSERT's keys do, and
// deletes whose keys are built afresh. After each op, key prefixes of every
// length — of a present entry and of a random row — are probed through every
// reader: ascend, descend, firstMatch, get, AppendMatches and Walk either way.
func TestEntryKeysMatchSortedModel(t *testing.T) {
	const rows, built, ops = 4000, 3300, 300
	for w := 1; w <= 3; w++ {
		rng := rand.New(rand.NewSource(int64(610 + w)))
		tv := keyStore(t, w, rows, rng)
		cols := []int{0, 1, 2}[:w]
		placed := make([]Item, built)
		for rid := range placed {
			placed[rid] = Item{Key: tv.Get(RowID(rid)), RID: RowID(rid)}
		}
		bt := NewBTree(w)
		bt.build(entriesOf(placed, cols))
		present := make([]bool, rows)
		var model []Item // the entries present, in key order
		for rid := range built {
			present[rid] = true
			model = append(model, Item{Key: appendKey(nil, tv.Get(RowID(rid)), cols), RID: RowID(rid)})
		}
		slices.SortFunc(model, cmpItem)
		if d := depth(bt.top.Load()); d != 3 {
			t.Fatalf("%d columns: built a tree of depth %d, want 3", w, d)
		}
		for i := range ops {
			var op string
			if rng.Intn(3) > 0 {
				slab := make(types.Row, 3*w)
				for range 3 {
					rid := RowID(rng.Intn(rows))
					if present[rid] {
						continue
					}
					it := Item{Key: ownKey(slab[:0:w], tv.Get(rid), cols), RID: rid}
					slab = slab[w:]
					bt.Insert(it)
					present[rid] = true
					j, _ := slices.BinarySearchFunc(model, it, cmpItem)
					model = slices.Insert(model, j, it)
					op += fmt.Sprintf("insert %v/%d ", it.Key, rid)
				}
			} else {
				j := rng.Intn(len(model))
				rid := model[j].RID
				if !bt.Delete(Item{Key: appendKey(nil, tv.Get(rid), cols), RID: rid}) {
					t.Fatalf("%d columns, op %d: delete of %v/%d found nothing", w, i, model[j].Key, rid)
				}
				present[rid] = false
				op = fmt.Sprintf("delete %v/%d", model[j].Key, rid)
				model = slices.Delete(model, j, j+1)
			}
			if err := wholeTreeAgrees(bt, model); err != nil {
				t.Fatalf("%d columns, op %d (%s): %v", w, i, op, err)
			}
			for _, key := range []types.Row{model[rng.Intn(len(model))].Key, appendKey(nil, tv.Get(RowID(rng.Intn(rows))), cols)} {
				prefix := key[:1+rng.Intn(w)]
				if err := prefixAgrees(tv, bt, cols, model, prefix); err != nil {
					t.Fatalf("%d columns, op %d (%s), prefix %v: %v", w, i, op, prefix, err)
				}
			}
		}
	}
}

// sameItems reports where got differs from want, entry by entry; every key
// handed out must be the tree's width long.
func sameItems(what string, got, want []Item) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s yields %d entries, want %d", what, len(got), len(want))
	}
	for i := range got {
		if len(got[i].Key) != len(want[i].Key) || cmpItem(got[i], want[i]) != 0 {
			return fmt.Errorf("%s entry %d: %v/%d, want %v/%d", what, i, got[i].Key, got[i].RID, want[i].Key, want[i].RID)
		}
	}
	return nil
}

// wholeTreeAgrees compares bt's Len, Min, Max and full walks either way with
// model, its entries in key order.
func wholeTreeAgrees(bt *BTree, model []Item) error {
	if bt.Len() != len(model) {
		return fmt.Errorf("Len %d, the model holds %d", bt.Len(), len(model))
	}
	mn, mx, _ := ends(bt)
	if err := sameItems("first and last", []Item{mn, mx}, []Item{model[0], model[len(model)-1]}); err != nil {
		return err
	}
	var got []Item
	collect := func(it Item) bool { got = append(got, it); return true }
	bt.AscendRange(nil, nil, collect)
	if err := sameItems("Ascend", got, model); err != nil {
		return err
	}
	got = got[:0]
	bt.descend(bt.top.Load(), nil, collect)
	slices.Reverse(got)
	return sameItems("descend", got, model)
}

// prefixAgrees probes bt, over the rows of tv on cols, by prefix through
// every reader, and compares each answer with the model's entries that carry
// the prefix.
func prefixAgrees(tv *TableView, bt *BTree, cols []int, model []Item, prefix types.Row) error {
	var want []Item
	for _, it := range model {
		if prefixCmp(it.Key, prefix) == 0 {
			want = append(want, it)
		}
	}
	top := bt.top.Load()
	var got []Item
	within := func(it Item) bool {
		if prefixCmp(it.Key, prefix) != 0 {
			return false
		}
		got = append(got, it)
		return true
	}
	bt.ascend(top, Item{Key: prefix, RID: -1 << 62}, true, within)
	if err := sameItems("ascend", got, want); err != nil {
		return err
	}
	got = got[:0]
	bt.descend(top, prefix, within)
	slices.Reverse(got)
	if err := sameItems("descend", got, want); err != nil {
		return err
	}
	first := RowID(-1)
	if len(want) > 0 {
		first = want[0].RID
	}
	if rid := bt.firstMatch(prefix, func(RowID) bool { return true }); rid != first {
		return fmt.Errorf("firstMatch: rid %d, want %d", rid, first)
	}
	rids := bt.get(prefix)
	if len(rids) != len(want) {
		return fmt.Errorf("get: %d rids, want %d", len(rids), len(want))
	}
	for i, rid := range rids {
		if rid != want[i].RID {
			return fmt.Errorf("get: rid %d is %d, want %d", i, rid, want[i].RID)
		}
	}
	iv := &IndexView{tv: *tv, id: &indexData{meta: &catalog.Index{Columns: cols}, tree: bt}}
	matched := iv.AppendMatches(nil, prefix)
	if len(matched) != len(want) {
		return fmt.Errorf("AppendMatches: %d rows, want %d", len(matched), len(want))
	}
	for i, row := range matched {
		if &row[0] != &tv.Get(want[i].RID)[0] {
			return fmt.Errorf("AppendMatches: row %d is not row %d", i, want[i].RID)
		}
	}
	for _, desc := range []bool{false, true} {
		got = got[:0]
		iv.Walk(prefix, prefix, desc, func(it Item) bool { got = append(got, it); return true })
		if desc {
			slices.Reverse(got)
		}
		if err := sameItems(fmt.Sprintf("Walk (desc=%v)", desc), got, want); err != nil {
			return err
		}
	}
	return nil
}

// TestMiddleInsertByteBudget: the bytes one leaf write allocates in a
// depth-2 tree of built 48-entry leaves, whose node headers are 48 bytes.
// Each counted write goes into another leaf, one key in from its first, and
// none into the rightmost leaf; nothing above the leaf is copied (a new top
// and its children array cost 1 480 in all).
//   - The first middle insert into a leaf finds its array full and copies it:
//     49 entries, 784 bytes in an 896-byte size class whose room the copy
//     keeps, 55 slots past the class's 8-byte malloc header (1 568 in a
//     1 792-byte class when an entry was an Item), and the header: 944.
//   - The second goes into a slot of that room and publishes the header
//     with a new 64-byte order, one 112-byte object (the parent copied the
//     896-byte array again, 944).
//   - A delete publishes the header with an order one byte shorter, over the
//     same array: 112 (the parent copied the array's 49 other entries,
//     944).
func TestMiddleInsertByteBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	const leaves = 41
	its := make([]Item, leaves*buildFill+leaves-1) // the leaves and the entries between them
	for i := range its {
		its[i] = intItem(2*int64(i), RowID(2*i))
	}
	bt := NewBTree(1)
	bt.build(entriesFrom(its))
	top := bt.top.Load()
	if depth(top) != 2 || len(top.slots()) != leaves {
		t.Fatalf("fixture: depth %d, %d leaves", depth(top), len(top.slots()))
	}
	// probes returns, for each leaf but the rightmost, the entry whose key is
	// its first's plus off.
	probes := func(off int64) []Item {
		var out []Item
		for i := range leaves - 1 {
			leaf := top.child(i)
			if leaf.count() != buildFill {
				t.Fatalf("fixture: a leaf of %d entries", leaf.count())
			}
			k := leaf.at(0).row(1)[0].Int() + off
			out = append(out, intItem(k, RowID(k)))
		}
		return out
	}
	first, second := probes(1), probes(3)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// check reports what op allocates per item of its against ceiling.
	check := func(name string, its []Item, op func(Item), ceiling uint64) {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, it := range its {
			op(it)
		}
		runtime.ReadMemStats(&after)
		per := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(its))
		t.Logf("%s: %.0f bytes (ceiling %d)", name, per, ceiling)
		if per > float64(ceiling) {
			t.Errorf("%s: %.0f bytes, want at most %d", name, per, ceiling)
		}
	}
	check("middle insert into a full 48-entry leaf", first, bt.Insert, 896+48)
	for i := range leaves - 1 {
		if leaf := bt.top.Load().child(i); leaf.count() != buildFill+1 || int(leaf.fill) != buildFill+1 || len(leaf.items) <= buildFill+1 || leaf.order != nil {
			t.Fatalf("the first insert left a leaf of %d entries in %d slots (order %v), want 49 sorted, with room", leaf.count(), len(leaf.items), leaf.order != nil)
		}
	}
	check("middle insert into a leaf with room", second, bt.Insert, 48+btreeOrder)
	check("delete from a leaf", first, func(it Item) { bt.Delete(it) }, 48+btreeOrder)
	for i := range leaves - 1 {
		if leaf := bt.top.Load().child(i); leaf.count() != buildFill+1 || leaf.fill != buildFill+2 {
			t.Fatalf("the writes left a leaf of %d entries in %d written slots, want %d in %d", leaf.count(), leaf.fill, buildFill+1, buildFill+2)
		}
	}
}
