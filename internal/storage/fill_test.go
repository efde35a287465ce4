package storage

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
	"weak"

	"mtcache/internal/catalog"
	"mtcache/internal/types"
)

// builtShape reports where the tree bt, built bottom-up, breaks the shape
// build promises: every leaf at one depth; every node below the top holding
// from minItems to buildFill entries and one child more than entries when
// inner; every array sized to its entries except the rightmost leaf's, which
// has room for a full leaf.
func builtShape(bt *BTree) error {
	top := bt.top.Load()
	last := top
	for !last.leaf() {
		last = last.child(last.count())
	}
	if len(last.items) != btreeOrder {
		return fmt.Errorf("the rightmost leaf holds %d entries in room for %d, want room for %d", last.count(), len(last.items), btreeOrder)
	}
	if err := balanced(top, top, 1, depth(top), true); err != nil {
		return err
	}
	var walk func(n *node) error
	walk = func(n *node) error {
		if k := n.count(); n != top && (k < minItems || k > buildFill) {
			return fmt.Errorf("a node below the top holds %d entries", k)
		}
		if n != last && (len(n.items) != n.count() || cap(n.items) != n.count()) {
			return fmt.Errorf("a node holds %d entries in room for %d", n.count(), cap(n.items))
		}
		if n.order != nil {
			return fmt.Errorf("a built node of %d entries has an order", n.count())
		}
		for i := range n.slots() {
			if err := walk(n.child(i)); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(top)
}

// entriesFrom returns its, which must be sorted and distinct, as the entries
// build takes.
func entriesFrom(its []Item) []entry {
	es := make([]entry, len(its))
	for i, it := range its {
		es[i] = entryOf(it)
	}
	return es
}

// TestBuildMatchesInserts: entries drawn at random with repeats, sorted and
// de-duplicated as buildIndex and Fill do, build a tree that iterates equal to
// one the same draw built by Insert, in the shape builtShape checks. The sizes
// are each side of a leaf root, of two built leaves, of the largest built
// depth-2 tree, and deeper. A churn of inserts and deletes on the built tree then keeps it equal
// to a sorted model after every op, through every reader (matchesModel).
func TestBuildMatchesInserts(t *testing.T) {
	const keys = 12000 // pairStore's rows; the draws take even keys, middle inserts odd ones
	tv := pairStore(t, keys)
	rng := rand.New(rand.NewSource(57))
	full2 := btreeOrder + (btreeOrder+1)*buildFill // the most a built depth-2 tree holds
	for _, distinct := range []int{1, 2, btreeOrder, btreeOrder + 1, 2*buildFill + 1, 2*buildFill + 2, full2, full2 + 1, 5000, 1 + rng.Intn(keys/2)} {
		model := make([]int64, 0, distinct)
		for _, k := range rng.Perm(keys / 2)[:distinct] {
			model = append(model, 2*int64(k))
		}
		drawn := make([]Item, 0, 2*distinct)
		for _, k := range model {
			drawn = append(drawn, pairItem(k))
		}
		for range distinct { // repeats
			drawn = append(drawn, pairItem(model[rng.Intn(distinct)]))
		}
		rng.Shuffle(len(drawn), func(i, j int) { drawn[i], drawn[j] = drawn[j], drawn[i] })
		slices.Sort(model)

		inserted := NewBTree(2)
		for _, it := range drawn {
			inserted.Insert(it)
		}
		sorted := slices.Clone(drawn)
		slices.SortFunc(sorted, cmpItem)
		built := NewBTree(2)
		built.build(entriesFrom(slices.CompactFunc(sorted, func(a, b Item) bool { return cmpItem(a, b) == 0 })))
		var got, want []Item
		built.AscendRange(nil, nil, func(it Item) bool { got = append(got, it); return true })
		inserted.AscendRange(nil, nil, func(it Item) bool { want = append(want, it); return true })
		if !slices.EqualFunc(got, want, func(a, b Item) bool { return cmpItem(a, b) == 0 }) {
			t.Fatalf("%d entries: the built tree yields %d entries unlike the inserted tree's %d", distinct, len(got), len(want))
		}
		if err := builtShape(built); err != nil {
			t.Fatalf("%d entries: %v", distinct, err)
		}
		if err := matchesModel(tv, built, model, nil); err != nil {
			t.Fatalf("%d entries, as built: %v", distinct, err)
		}
		for i := range 300 {
			var op string
			var k int64
			if len(model) > 1 && rng.Intn(2) == 0 {
				j := rng.Intn(len(model))
				k = model[j]
				op = fmt.Sprintf("delete %d", k)
				if !built.Delete(pairItem(k)) {
					t.Fatalf("%d entries, op %d: %s found nothing", distinct, i, op)
				}
				model = slices.Delete(model, j, j+1)
			} else {
				k = rng.Int63n(keys)
				op = fmt.Sprintf("insert %d", k)
				built.Insert(pairItem(k))
				if j, found := slices.BinarySearch(model, k); !found {
					model = slices.Insert(model, j, k)
				}
			}
			if err := matchesModel(tv, built, model, []int64{k, k + 1}); err != nil {
				t.Fatalf("%d entries, op %d (%s): %v", distinct, i, op, err)
			}
		}
	}
	empty := NewBTree(1)
	empty.build(nil)
	if _, _, ok := ends(empty); ok || empty.Len() != 0 {
		t.Fatal("a tree built from no entries is not empty")
	}
}

// fillStore returns a store whose customer table has a unique primary key
// (cid) and an index on cname.
func fillStore(t testing.TB) *Store {
	t.Helper()
	s := NewStore()
	meta := custMeta()
	meta.Indexes = []*catalog.Index{{Name: "ix_name", Table: "customer", Columns: []int{1}}}
	if err := s.CreateTable(meta); err != nil {
		t.Fatal(err)
	}
	return s
}

// custRows returns n customer rows, ids from 0, names out of key order.
func custRows(n int) []types.Row {
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i)), types.NewString(fmt.Sprintf("name_%05d", (i*7919)%n))}
	}
	return rows
}

// visible reports what tx sees of the customer table: rows scanned, rows
// found by primary key, and entries the name index yields, which must come
// in key order.
func visible(tx *Txn, n int) (scanned, found, named int, err error) {
	tv := view(tx, "customer")
	scanned = tv.Count()
	for i := range n {
		if tv.PKLookup(types.Row{types.NewInt(int64(i))}) >= 0 {
			found++
		}
	}
	var prev types.Row
	viewIndex(tv, "ix_name").Walk(nil, nil, false, func(it Item) bool {
		if prev != nil && types.CompareRows(prev, it.Key) >= 0 {
			err = fmt.Errorf("the name index yields %v after %v", it.Key, prev)
		}
		prev = it.Key
		named++
		return err == nil
	})
	return scanned, found, named, err
}

// TestFillIsAtomicToReaders: a fill is one transaction to every reader. A
// reader pinned before it commits — before it began, or after Fill returned
// — sees no row through a scan, the primary key or the name index, while
// readers running throughout see none or all; a reader after the commit sees
// every row each way. An aborted fill, and one that a duplicate key fails,
// leave every index empty.
func TestFillIsAtomicToReaders(t *testing.T) {
	const n = 3000
	s := fillStore(t)
	before := s.Begin(false)
	defer before.Abort()
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				tx := s.Begin(false)
				sc, fo, na, err := visible(tx, n)
				tx.Abort()
				if err == nil && !(sc == 0 && fo == 0 && na == 0) && !(sc == n && fo == n && na == n) {
					err = fmt.Errorf("a reader saw %d rows scanned, %d by key, %d by name", sc, fo, na)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	tx := s.Begin(true)
	if err := tx.Fill("customer", custRows(n)); err != nil {
		t.Fatal(err)
	}
	mid := s.Begin(false)
	defer mid.Abort()
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	after := s.Begin(false)
	defer after.Abort()
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for name, r := range map[string]*Txn{"before the fill": before, "after Fill returned": mid} {
		if sc, fo, na, err := visible(r, n); err != nil || sc+fo+na != 0 {
			t.Errorf("a reader pinned %s sees %d rows scanned, %d by key, %d by name (%v)", name, sc, fo, na, err)
		}
	}
	if sc, fo, na, err := visible(after, n); err != nil || sc != n || fo != n || na != n {
		t.Errorf("a reader after the commit sees %d rows scanned, %d by key, %d by name of %d (%v)", sc, fo, na, n, err)
	}

	dup := append(custRows(10), types.Row{types.NewInt(3), types.NewString("again")})
	for name, rows := range map[string][]types.Row{"aborted": custRows(n), "duplicate key": dup} {
		s := fillStore(t)
		tx := s.Begin(true)
		err := tx.Fill("customer", rows)
		if (err != nil) != (name == "duplicate key") {
			t.Fatalf("%s fill: %v", name, err)
		}
		tx.Abort()
		for _, id := range *s.Table("customer").indexes.Load() {
			if id.tree.Len() != 0 {
				t.Errorf("%s fill: index %s holds %d entries", name, id.meta.Name, id.tree.Len())
			}
		}
		r := s.Begin(false)
		if sc, fo, na, err := visible(r, n); err != nil || sc+fo+na != 0 {
			t.Errorf("%s fill: a reader sees %d rows scanned, %d by key, %d by name (%v)", name, sc, fo, na, err)
		}
		r.Abort()
	}
}

// TestFillIntoATableWithRows: a fill into a table that already has rows adds
// its entries to the existing trees in key order, checks a unique index
// against the rows there, and a CREATE INDEX afterwards builds from both.
func TestFillIntoATableWithRows(t *testing.T) {
	s := fillStore(t)
	rows := custRows(500)
	tx := s.Begin(true)
	if err := tx.Fill("customer", rows[:200]); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx = s.Begin(true)
	if err := tx.Fill("customer", rows[150:]); err == nil {
		t.Fatal("a fill repeating committed primary keys succeeded")
	}
	tx.Abort()
	tx = s.Begin(true)
	if err := tx.Fill("customer", rows[200:]); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.AddIndex("customer", &catalog.Index{Name: "ix_both", Table: "customer", Columns: []int{1, 0}}); err != nil {
		t.Fatal(err)
	}
	r := s.Begin(false)
	defer r.Abort()
	if sc, fo, na, err := visible(r, len(rows)); err != nil || sc != len(rows) || fo != len(rows) || na != len(rows) {
		t.Fatalf("after two fills: %d rows scanned, %d by key, %d by name of %d (%v)", sc, fo, na, len(rows), err)
	}
	if err := builtShape(s.Table("customer").index("ix_both").tree); err != nil {
		t.Fatalf("the index built after the fills: %v", err)
	}
}

// TestFillAllocBudget: what filling n rows into an empty table with k indexes
// allocates, commit included. Per row, its version and its share of a heap
// chunk (1 + 1/64); per node of the built trees, its header and its arrays
// (at most 3); and a constant per index and per fill. A path copy per entry,
// as an Insert loop into the trees makes, would cost more than 2 per row and
// index. Then a middle insert into a built leaf, which has room.
func TestFillAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	const n = 10000
	s := NewStore()
	meta := &catalog.Table{Name: "p", PrimaryKey: []int{1}, Columns: []catalog.Column{{Name: "g", Type: types.KindInt}, {Name: "k", Type: types.KindInt}}}
	meta.Indexes = []*catalog.Index{{Name: "ix_g", Table: "p", Columns: []int{0}}}
	if err := s.CreateTable(meta); err != nil {
		t.Fatal(err)
	}
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(n-i) / 8), types.NewInt(int64(i))}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tx := s.Begin(true)
	if err := tx.Fill("p", rows); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	nodes, k := 0, 0
	for _, id := range *s.Table("p").indexes.Load() {
		var count func(n *node)
		count = func(n *node) {
			nodes++
			for i := range n.slots() {
				count(n.child(i))
			}
		}
		count(id.tree.top.Load())
		k++
	}
	got := float64(after.Mallocs - before.Mallocs)
	budget := float64(n)*(1+1.0/slotChunk) + 3*float64(nodes) + 8*float64(k) + 16
	t.Logf("fill of %d rows, %d indexes, %d nodes: %.0f objects (%.3f per row), budget %.0f", n, k, nodes, got, got/n, budget)
	if got > budget {
		t.Errorf("fill of %d rows: %.0f objects, want at most %.0f", n, got, budget)
	}

	// A built leaf's array has no room: a middle insert into it copies the
	// array, into the room its size class gives, and stores a new header (2
	// objects, TestIndexInsertAllocBudget), and splits nothing. Each counted
	// insert goes into another leaf, one key in from its first.
	const two = 2000 // even keys: 2000 entries, a root over built leaves
	bt := NewBTree(1)
	built := make([]Item, two)
	for i := range built {
		built[i] = intItem(2*int64(i), RowID(2*i))
	}
	bt.build(entriesFrom(built))
	if depth(bt.top.Load()) != 2 {
		t.Fatalf("fixture: depth %d", depth(bt.top.Load()))
	}
	var firsts []Item
	for i := range 11 {
		k := bt.top.Load().child(i).at(0).row(1)[0].Int() + 1
		firsts = append(firsts, intItem(k, RowID(k)))
	}
	middle := testing.AllocsPerRun(len(firsts)-1, func() {
		bt.Insert(firsts[0])
		firsts = firsts[1:]
	})
	t.Logf("middle insert into a built leaf: %.0f allocs", middle)
	if middle > 2 {
		t.Errorf("middle insert into a built leaf: %.0f allocs, want at most 2", middle)
	}
}

// BenchmarkFill is a 10 000-row load into an empty table with a primary key
// and a secondary index: by Fill, and by the Insert loop it replaces.
func BenchmarkFill(b *testing.B) {
	rows := custRows(10000)
	for _, how := range []string{"fill", "insert"} {
		b.Run(how, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				s := fillStore(b)
				tx := s.Begin(true)
				if how == "fill" {
					if err := tx.Fill("customer", rows); err != nil {
						b.Fatal(err)
					}
				} else {
					for _, row := range rows {
						if _, err := tx.Insert("customer", row); err != nil {
							b.Fatal(err)
						}
					}
				}
				if err := tx.CommitUnlogged(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestIndexKeysPinOnlyThemselves: an index entry owns the strings of its
// key. Rows shaped like a replicated cv_item — their strings one allocation,
// as a decoded row's are — are seeded by Fill or inserted, and then updated:
// once with the indexed subject unchanged, so the entry the seed or insert
// made is kept; or first to a new subject, whose entry the update makes, and
// then with it unchanged. Once no snapshot holds the superseded versions and
// GC has pruned them, their strings are collectable.
func TestIndexKeysPinOnlyThemselves(t *testing.T) {
	s := NewStore()
	meta := &catalog.Table{Name: "cv_item", PrimaryKey: []int{0}, Columns: []catalog.Column{
		{Name: "i_id", Type: types.KindInt}, {Name: "i_title", Type: types.KindString}, {Name: "i_subject", Type: types.KindString}}}
	meta.Indexes = []*catalog.Index{{Name: "cvx_item_subject", Table: "cv_item", Columns: []int{2}}}
	if err := s.CreateTable(meta); err != nil {
		t.Fatal(err)
	}
	superseded := map[string]weak.Pointer[byte]{}
	// decoded returns the row (id, title, subject) with both strings in one
	// allocation, and notes a weak pointer to it under name.
	decoded := func(name string, id int64, title, subject string) types.Row {
		buf := string(append([]byte(title), subject...))
		if name != "" {
			superseded[name] = weakBytes(unsafe.Pointer(unsafe.StringData(buf)))
		}
		return types.Row{types.NewInt(id), types.NewString(buf[:len(title)]), types.NewString(buf[len(title):])}
	}
	write := func(f func(tx *Txn) error) {
		t.Helper()
		tx := s.Begin(true)
		if err := f(tx); err != nil {
			t.Fatal(err)
		}
		if err := tx.CommitUnlogged(); err != nil {
			t.Fatal(err)
		}
	}
	update := func(row types.Row) {
		write(func(tx *Txn) error {
			return tx.Update("cv_item", view(tx, "cv_item").PKLookup(row[:1]), row)
		})
	}
	write(func(tx *Txn) error {
		if err := tx.Fill("cv_item", []types.Row{decoded("the seeded row", 1, "a seeded title", "ARTS")}); err != nil {
			return err
		}
		for _, row := range []types.Row{decoded("the inserted row", 2, "an inserted title", "ARTS"), decoded("", 3, "a third title", "ARTS")} {
			if _, err := tx.Insert("cv_item", row); err != nil {
				return err
			}
		}
		return nil
	})
	update(decoded("", 1, "the seeded title, updated", "ARTS"))
	update(decoded("", 2, "the inserted title, updated", "ARTS"))
	update(decoded("the row an update re-keyed", 3, "a third title, re-keyed", "BIOGRAPHIES"))
	update(decoded("", 3, "a third title, updated", "BIOGRAPHIES"))
	if got := s.GC(); got != 4 {
		t.Fatalf("GC pruned %d versions, want the 4 superseded", got)
	}
	runtime.GC()
	runtime.GC()
	for name, w := range superseded {
		if w.Value() != nil {
			t.Errorf("an index keeps the strings of %s reachable", name)
		}
	}
	r := s.Begin(false)
	defer r.Abort()
	var subjects []string
	viewIndex(view(r, "cv_item"), "cvx_item_subject").Walk(nil, nil, false, func(it Item) bool {
		subjects = append(subjects, it.Key[0].Str())
		return true
	})
	if !slices.Equal(subjects, []string{"ARTS", "ARTS", "BIOGRAPHIES"}) {
		t.Fatalf("the subject index yields %v", subjects)
	}
	runtime.KeepAlive(s)
}
