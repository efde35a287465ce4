package storage

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"mtcache/internal/catalog"
	"mtcache/internal/types"
)

// newItemStore returns a store of one table, item (id, grp, name), keyed by
// id, with a secondary index item_grp on grp.
func newItemStore(t testing.TB) *Store {
	t.Helper()
	s := NewStore()
	meta := &catalog.Table{
		Name: "item",
		Columns: []catalog.Column{
			{Name: "id", Type: types.KindInt, NotNull: true},
			{Name: "grp", Type: types.KindInt},
			{Name: "name", Type: types.KindString},
		},
		PrimaryKey: []int{0},
		Indexes:    []*catalog.Index{{Name: "item_grp", Table: "item", Columns: []int{1}}},
	}
	if err := s.CreateTable(meta); err != nil {
		t.Fatal(err)
	}
	return s
}

// itemRow is the item row (id, grp, name), its name derived from both, so
// that a reader can tell a torn row from a whole one.
func itemRow(id, grp int64) types.Row {
	return types.Row{types.NewInt(id), types.NewInt(grp), types.NewString(fmt.Sprintf("item-%d-%d", id, grp))}
}

// TestPrunedVersionsPinNoRow: an inserted row's version is carved from its
// table's chunk, which lives while any of its versions does. So a version
// that GC prunes, and an insert's version that Abort unlinks, lets go of its
// row; a version GC keeps holds its row.
func TestPrunedVersionsPinNoRow(t *testing.T) {
	s := newItemStore(t)
	tx := s.Begin(true)
	for id := int64(1); id <= 8; id++ {
		if _, err := tx.Insert("item", itemRow(id, id)); err != nil {
			t.Fatal(err)
		}
	}
	inserted := make([]*version, len(tx.undo))
	for i, u := range tx.undo {
		inserted[i] = u.v
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if unsafe.Pointer(inserted[1]) != unsafe.Add(unsafe.Pointer(inserted[0]), unsafe.Sizeof(version{})) {
		t.Fatal("two inserts' versions are not neighbours in one chunk")
	}
	// Rows 1–4 are updated and rows 5–6 deleted: six inserted versions end.
	tx = s.Begin(true)
	tv := view(tx, "item")
	for id := int64(1); id <= 6; id++ {
		rid := tv.PKLookup(types.Row{types.NewInt(id)})
		var err error
		if id <= 4 {
			err = tx.Update("item", rid, itemRow(id, id+100))
		} else {
			err = tx.Delete("item", rid)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx = s.Begin(true)
	if _, err := tx.Insert("item", itemRow(9, 9)); err != nil {
		t.Fatal(err)
	}
	aborted := tx.undo[0].v
	tx.Abort()
	if aborted.row != nil {
		t.Error("an aborted insert's version still holds its row")
	}
	if n := s.GC(); n != 6 {
		t.Fatalf("GC reclaimed %d versions, want 6", n)
	}
	for i, v := range inserted {
		if pruned := i < 6; pruned != (v.row == nil) {
			t.Errorf("row %d: pruned %v, but its version holds row %v", i+1, pruned, v.row)
		}
	}
	rd := s.Begin(false)
	defer rd.Abort()
	if rows := view(rd, "item").Rows(); len(rows) != 6 {
		t.Errorf("after GC the table shows %d rows, want 6", len(rows))
	}
}

// TestAbortedUpdateKeepsAnOlderVersionsEntry: a row moved from one index
// key to another, then back to the first by a transaction that aborts. The
// entry under the first key is the older version's too, so the abort keeps
// it, and a snapshot that sees that version still finds the row through it.
func TestAbortedUpdateKeepsAnOlderVersionsEntry(t *testing.T) {
	s := newItemStore(t)
	write := func(commit bool, op func(tx *Txn) error) {
		t.Helper()
		tx := s.Begin(true)
		if err := op(tx); err != nil {
			t.Fatal(err)
		}
		if !commit {
			tx.Abort()
		} else if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	moveTo := func(grp int64) func(tx *Txn) error {
		return func(tx *Txn) error {
			return tx.Update("item", view(tx, "item").PKLookup(types.Row{types.NewInt(1)}), itemRow(1, grp))
		}
	}
	write(true, func(tx *Txn) error { _, err := tx.Insert("item", itemRow(1, 5)); return err })
	old := s.Begin(false)
	defer old.Abort()
	write(true, moveTo(7))
	write(false, moveTo(5))
	now := s.Begin(false)
	defer now.Abort()
	for _, c := range []struct {
		name     string
		tx       *Txn
		grp      int64
		matching int
	}{{"the older snapshot", old, 5, 1}, {"the newest snapshot", now, 7, 1}, {"the newest snapshot", now, 5, 0}} {
		iv := viewIndex(view(c.tx, "item"), "item_grp")
		if got := iv.AppendMatches(nil, types.Row{types.NewInt(c.grp)}); len(got) != c.matching {
			t.Errorf("%s finds %d rows under grp %d, want %d", c.name, len(got), c.grp, c.matching)
		}
	}
}

// TestCarvedVersionsUnderPinnedReaders: readers pin snapshots and hold them
// while one writer inserts, updates (moving rows between index keys),
// deletes and aborts over carved versions and keys, and GC prunes what no
// pinned snapshot sees. Each reader reads its snapshot twice, before and
// after the writer has moved on: by a scan, by a primary-key probe and an
// index probe per row, and by a walk of the secondary index. Both reads
// must be the same and every row whole: a carved slot written twice, or a
// row let go of while a snapshot still sees it, shows as a difference.
func TestCarvedVersionsUnderPinnedReaders(t *testing.T) {
	s := newItemStore(t)
	txns := 1500
	if raceEnabled {
		txns = 600
	}
	var (
		commits atomic.Int64
		done    atomic.Bool
		wg      sync.WaitGroup
	)
	errs := make(chan string, 1)
	fail := func(msg string) {
		select {
		case errs <- msg:
		default: // one report is enough
		}
	}
	// read returns the rows tx's snapshot shows, by id, after checking that
	// every row is whole and found again by both indexes and by a walk.
	read := func(tx *Txn) map[int64]types.Row {
		tv := view(tx, "item")
		rows := make(map[int64]types.Row)
		tv.Scan(func(_ RowID, r types.Row) bool {
			id, grp := r[0].Int(), r[1].Int()
			if r[2].Str() != fmt.Sprintf("item-%d-%d", id, grp) {
				fail(fmt.Sprintf("a row is torn: %v", r))
			}
			rows[id] = r
			return true
		})
		grp := viewIndex(tv, "item_grp")
		var walked int
		grp.Walk(nil, nil, false, func(it Item) bool {
			if r, ok := rows[tv.Get(it.RID)[0].Int()]; !ok || !sameRows(r, tv.Get(it.RID)) {
				fail("an index walk finds a row the scan does not")
			}
			walked++
			return true
		})
		if walked != len(rows) {
			fail(fmt.Sprintf("an index walk finds %d rows, the scan %d", walked, len(rows)))
		}
		for id, r := range rows {
			if rid := tv.PKLookup(r[:1]); rid < 0 || !sameRows(tv.Get(rid), r) {
				fail(fmt.Sprintf("a primary-key probe misses row %d", id))
			}
			if !slices.ContainsFunc(grp.AppendMatches(nil, r[1:2]), func(m types.Row) bool { return sameRows(m, r) }) {
				fail(fmt.Sprintf("an index probe misses row %d", id))
			}
		}
		return rows
	}
	for range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				tx := s.Begin(false)
				first := read(tx)
				for from := commits.Load(); commits.Load() < from+3 && !done.Load(); {
					runtime.Gosched()
				}
				again := read(tx)
				tx.Abort()
				if len(again) != len(first) {
					fail(fmt.Sprintf("a snapshot read %d rows, then %d", len(first), len(again)))
				}
				for id, r := range first {
					if !sameRows(again[id], r) {
						fail(fmt.Sprintf("a snapshot read row %d as %v, then %v", id, r, again[id]))
					}
				}
			}
		}()
	}

	rng := rand.New(rand.NewPCG(74, 1))
	model := make(map[int64]types.Row) // what the last commit left
	next := int64(1)
	for n := 0; n < txns; n++ {
		tx := s.Begin(true)
		tv := view(tx, "item")
		wrote := make(map[int64]types.Row)
		for range 1 + rng.IntN(5) {
			switch op := rng.IntN(10); {
			case op < 4 || len(model) < 20:
				row := itemRow(next, rng.Int64N(16))
				if _, err := tx.Insert("item", row); err != nil {
					t.Fatal(err)
				}
				wrote[next] = row
				next++
			default:
				id := next - 1 - rng.Int64N(min(next-1, 200))
				rid := tv.PKLookup(types.Row{types.NewInt(id)})
				if rid < 0 {
					continue
				}
				var err error
				if op < 5 {
					// A duplicate key: its keys are carved, then left unused.
					if _, err := tx.Insert("item", itemRow(id, 0)); err == nil {
						t.Fatal("a duplicate key was inserted")
					}
					continue
				}
				if op < 8 {
					row := itemRow(id, rng.Int64N(16))
					err, wrote[id] = tx.Update("item", rid, row), row
				} else {
					err, wrote[id] = tx.Delete("item", rid), nil
				}
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		if rng.IntN(8) == 0 {
			tx.Abort()
			continue
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		for id, row := range wrote {
			if row == nil {
				delete(model, id)
			} else {
				model[id] = row
			}
		}
		commits.Add(1)
		if n%4 == 0 {
			s.GC()
		}
	}
	done.Store(true)
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
	tx := s.Begin(false)
	defer tx.Abort()
	got := read(tx)
	if len(got) != len(model) {
		t.Fatalf("the table holds %d rows, want %d", len(got), len(model))
	}
	for id, row := range model {
		if !sameRows(got[id], row) {
			t.Fatalf("row %d reads %v, want %v", id, got[id], row)
		}
	}
}

// BenchmarkInsertCommit: a logged transaction of one insert, or of ten, into
// a table with a primary key and a secondary index, over a kept write
// transaction; each row is built in the loop (one object), as a caller
// builds the row the store keeps. Every 4 096 rows the store starts over,
// outside the timer, so a long run measures the same heap.
func BenchmarkInsertCommit(b *testing.B) {
	for _, n := range []int{1, 10} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			s := newItemStore(b)
			var tx Txn
			id := int64(0)
			for range b.N {
				if id >= 4096 {
					b.StopTimer()
					s, id = newItemStore(b), 0
					b.StartTimer()
				}
				s.BeginWrite(&tx)
				for range n {
					if _, err := tx.Insert("item", types.Row{types.NewInt(id), types.NewInt(id / 4), types.NewString("name")}); err != nil {
						b.Fatal(err)
					}
					id++
				}
				if _, err := tx.Commit(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
