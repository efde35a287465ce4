package storage

import (
	"fmt"
	"slices"
	"testing"

	"mtcache/internal/catalog"
	"mtcache/internal/types"
)

// logTables is how many tables the mixed transaction below writes: more than
// a write transaction holds latches for inline.
const logTables = 5

// newLogStore returns a store with tables t0..t4 of (id, grp, name), each
// holding ids 1..3. Every table but the last has a primary key on id; t0 and
// t1 also index grp.
func newLogStore(t *testing.T) *Store {
	t.Helper()
	s := NewStore()
	for i := range logTables {
		name := fmt.Sprint("t", i)
		meta := &catalog.Table{Name: name, Columns: []catalog.Column{
			{Name: "id", Type: types.KindInt}, {Name: "grp", Type: types.KindInt}, {Name: "name", Type: types.KindString},
		}}
		if i < logTables-1 {
			meta.PrimaryKey = []int{0}
		}
		if i < 2 {
			meta.Indexes = []*catalog.Index{{Name: "ix_grp", Table: name, Columns: []int{1}}}
		}
		if err := s.CreateTable(meta); err != nil {
			t.Fatal(err)
		}
	}
	tx := s.Begin(true)
	for i := range logTables {
		for id := int64(1); id <= 3; id++ {
			if _, err := tx.Insert(fmt.Sprint("t", i), logRow(id, id%2, "seed")); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return s
}

func logRow(id, grp int64, name string) types.Row {
	return types.Row{types.NewInt(id), types.NewInt(grp), types.NewString(name)}
}

// mixedChanges makes, in tx, ten inserts, updates and deletes over all five
// tables — more than a write transaction logs inline — and returns the
// changes the log must hold for them, each holding the very row the store
// holds.
func mixedChanges(t *testing.T, tx *Txn) []ChangeRec {
	t.Helper()
	var want []ChangeRec
	find := func(table string, id int64) (RowID, types.Row) {
		t.Helper()
		tv := view(tx, table)
		rid := RowID(-1)
		if len(tv.Meta().PrimaryKey) > 0 {
			rid = tv.PKLookup(types.Row{types.NewInt(id)})
		} else {
			tv.Scan(func(r RowID, row types.Row) bool {
				if row[0].Int() == id {
					rid = r
				}
				return rid < 0
			})
		}
		if rid < 0 {
			t.Fatalf("%s has no row %d", table, id)
		}
		return rid, tv.Get(rid)
	}
	insert := func(table string, row types.Row) {
		t.Helper()
		if _, err := tx.Insert(table, row); err != nil {
			t.Fatal(err)
		}
		want = append(want, ChangeRec{Table: table, Op: OpInsert, After: row})
	}
	update := func(table string, id int64, row types.Row) {
		t.Helper()
		rid, old := find(table, id)
		if err := tx.Update(table, rid, row); err != nil {
			t.Fatal(err)
		}
		want = append(want, ChangeRec{Table: table, Op: OpUpdate, Before: old, After: row})
	}
	del := func(table string, id int64) {
		t.Helper()
		rid, old := find(table, id)
		if err := tx.Delete(table, rid); err != nil {
			t.Fatal(err)
		}
		want = append(want, ChangeRec{Table: table, Op: OpDelete, Before: old})
	}
	insert("t0", logRow(10, 0, "new"))
	update("t1", 1, logRow(1, 7, "moved")) // a new grp key
	del("t2", 2)
	insert("t3", logRow(10, 1, "new"))
	update("t0", 10, logRow(10, 5, "twice")) // a row this transaction inserted
	del("t4", 1)
	insert("t4", logRow(10, 0, "new"))
	update("t2", 1, logRow(1, 1, "renamed")) // every key unchanged
	del("t1", 3)
	insert("t1", logRow(11, 7, "new"))
	return want
}

// heapSlots returns the number of heap slots in use across the tables.
func heapSlots(s *Store) int {
	n := 0
	for i := range logTables {
		n += int(s.Table(fmt.Sprint("t", i)).nslots.Load())
	}
	return n
}

// sameRows reports whether a and b are the same slice: one row, not two
// equal ones.
func sameRows(a, b types.Row) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// logState renders what a new snapshot sees of every table: its rows, and
// every entry of each of its index trees, stale ones included, with the row
// it resolves to.
func logState(t *testing.T, s *Store) []string {
	t.Helper()
	tx := s.Begin(false)
	defer tx.Abort()
	var out []string
	for i := range logTables {
		tv := view(tx, fmt.Sprint("t", i))
		var rows []string
		tv.Scan(func(_ RowID, row types.Row) bool {
			rows = append(rows, fmt.Sprint(row))
			return true
		})
		slices.Sort(rows)
		out = append(out, fmt.Sprintf("t%d rows %v", i, rows))
		for _, name := range []string{"__pk", "ix_grp"} {
			iv, ok := tv.Index(name)
			if !ok {
				continue
			}
			var entries []string
			iv.id.tree.AscendRange(nil, nil, func(it Item) bool {
				entries = append(entries, fmt.Sprint(it.Key, it.RID, tv.Get(it.RID)))
				return true
			})
			out = append(out, fmt.Sprintf("t%d %s %v", i, name, entries))
		}
	}
	return out
}

// TestMixedTransactionRedoAndUndo: a write transaction's one change log is
// its redo and its undo. Committed logged, the WAL record lists exactly its
// changes, in the order made, holding the versions' own rows; aborted,
// every row and index entry is as it was, and the same writes after it take
// back its slots;
// committed unlogged, the WAL gains nothing and snapshots see what a logged
// commit shows.
func TestMixedTransactionRedoAndUndo(t *testing.T) {
	t.Run("logged", func(t *testing.T) {
		s := newLogStore(t)
		tx := s.Begin(true)
		want := mixedChanges(t, tx)
		lsn, err := tx.Commit()
		if err != nil {
			t.Fatal(err)
		}
		recs := s.WAL().ReadFrom(lsn, 1)
		if len(recs) != 1 || recs[0].LSN != lsn {
			t.Fatalf("commit LSN %d: log holds %+v", lsn, recs)
		}
		got := recs[0].Changes
		if len(got) != len(want) {
			t.Fatalf("log holds %d changes, want %d: %+v", len(got), len(want), got)
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.Table != w.Table || g.Op != w.Op || !sameRows(g.Before, w.Before) || !sameRows(g.After, w.After) {
				t.Errorf("change %d: %s %s %v → %v, want %s %s %v → %v (the stored rows themselves)",
					i, g.Op, g.Table, g.Before, g.After, w.Op, w.Table, w.Before, w.After)
			}
		}
	})

	t.Run("aborted", func(t *testing.T) {
		s := newLogStore(t)
		before, end := logState(t, s), s.WAL().End()
		tx := s.Begin(true)
		mixedChanges(t, tx)
		tx.Abort()
		slots := heapSlots(s)
		if after := logState(t, s); !slices.Equal(after, before) {
			t.Errorf("after abort:\n%v\nwant\n%v", after, before)
		}
		if got := s.WAL().End(); got != end {
			t.Errorf("abort moved the log end from %d to %d", end, got)
		}
		again := s.Begin(true)
		mixedChanges(t, again)
		if _, err := again.Commit(); err != nil {
			t.Fatalf("the same transaction after the abort: %v", err)
		}
		if got := heapSlots(s); got != slots {
			t.Errorf("the heaps grew from %d to %d slots: the aborted inserts' slots were not reused", slots, got)
		}
	})

	t.Run("unlogged", func(t *testing.T) {
		logged, unlogged := newLogStore(t), newLogStore(t)
		tx := logged.Begin(true)
		mixedChanges(t, tx)
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		end, n := unlogged.WAL().End(), unlogged.WAL().Len()
		tx = unlogged.Begin(true)
		mixedChanges(t, tx)
		if err := tx.CommitUnlogged(); err != nil {
			t.Fatal(err)
		}
		if unlogged.WAL().End() != end || unlogged.WAL().Len() != n {
			t.Errorf("CommitUnlogged appended to the log: end %d → %d, %d → %d records", end, unlogged.WAL().End(), n, unlogged.WAL().Len())
		}
		if got, want := logState(t, unlogged), logState(t, logged); !slices.Equal(got, want) {
			t.Errorf("unlogged commit shows\n%v\nlogged shows\n%v", got, want)
		}
	})
}

// TestInsertCommitAllocBudget pins what a logged transaction of one
// Txn.Insert, or of ten, into a table with a primary key and a secondary
// index costs, with its commit. What it allocates is the transaction with its
// inline change log and latch list, and a copy of each row's string key; a
// ten-row one grows its change log twice, and each index splits its
// rightmost leaf about once per 63 appends (6 objects). The version, the
// index keys' slab, the redo record and the commit mark are carved from
// chunks, and so is the heap slot: one-row 2, ten-row 15 (6 and 37 while
// the four were objects of their own; one-row 11 before a tail append
// wrote in place and the transaction was one object). A warm, steady
// truncation of the log after those commits allocates nothing.
func TestInsertCommitAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	for _, g := range []struct {
		rows   int
		allocs float64
	}{{1, 2}, {10, 15}} {
		s := newNameIndexStore(t, 1000)
		const runs = 200
		rows := make([]types.Row, (runs+1)*g.rows)
		for i := range rows {
			rows[i] = types.Row{types.NewInt(1<<20 + int64(i)), types.NewString("name_new")}
		}
		allocs := testing.AllocsPerRun(runs, func() {
			tx := s.Begin(true)
			for _, row := range rows[:g.rows] {
				if _, err := tx.Insert("customer", row); err != nil {
					t.Fatal(err)
				}
			}
			rows = rows[g.rows:]
			if _, err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d-row insert and commit: %.0f allocs", g.rows, allocs)
		if allocs > g.allocs {
			t.Errorf("a %d-row insert and commit allocates %.0f objects, want at most %.0f", g.rows, allocs, g.allocs)
		}

		// The truncation pass a pull runs drops what every subscriber has
		// acknowledged: a steady, short drop reslices the log and allocates
		// nothing.
		wal := s.WAL()
		if truncs := testing.AllocsPerRun(100, func() { wal.Truncate(wal.First() + 1) }); truncs != 0 {
			t.Errorf("%.0f allocs per one-record truncation of a long log, want 0", truncs)
		}
	}
}

// TestKeptWriteTxnPinsNothing: a Txn kept between writes (BeginWrite, as a
// subscriber keeps its apply transaction) holds no change — so no version —
// and no table once a write in it commits or aborts, reuses its arrays for
// the next write, and lets go of a change array a large write grew past
// keptChanges.
func TestKeptWriteTxnPinsNothing(t *testing.T) {
	s := newCustStore(t)
	var tx Txn
	// write inserts rows from id on, updates the first and deletes the
	// second, and commits or aborts.
	write := func(id, rows int, commit bool) {
		t.Helper()
		s.BeginWrite(&tx)
		for i := id; i < id+rows; i++ {
			if _, err := tx.Insert("customer", types.Row{types.NewInt(int64(i)), types.NewString("c")}); err != nil {
				t.Fatal(err)
			}
		}
		tv := view(&tx, "customer")
		if err := tx.Update("customer", tv.PKLookup(types.Row{types.NewInt(int64(id))}), types.Row{types.NewInt(int64(id)), types.NewString("d")}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Delete("customer", tv.PKLookup(types.Row{types.NewInt(int64(id + 1))})); err != nil {
			t.Fatal(err)
		}
		if !commit {
			tx.Abort()
		} else if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// kept reports what the kept Txn still holds, in every slot of its arrays.
	kept := func(when string) {
		t.Helper()
		for i, u := range tx.undo[:cap(tx.undo)] {
			if u != (undoRec{}) {
				t.Errorf("%s: change slot %d holds a change (version %p, old %p)", when, i, u.v, u.old)
			}
		}
		for i, td := range tx.latched[:cap(tx.latched)] {
			if td != nil {
				t.Errorf("%s: latch slot %d holds table %s", when, i, td.meta.Name)
			}
		}
		if tx.Live() {
			t.Errorf("%s: the kept Txn is live", when)
		}
	}
	write(0, 20, true)
	kept("after a commit")
	changes := &tx.undo[:1][0]
	write(100, 20, false)
	kept("after an abort")
	if &tx.undo[:1][0] != changes {
		t.Error("the next write did not reuse the kept change array")
	}
	write(200, 2*keptChanges, true)
	kept("after a large commit")
	if cap(tx.undo) != 0 {
		t.Errorf("a write of %d changes left a change array of %d slots, want none past %d", 2*keptChanges+2, cap(tx.undo), keptChanges)
	}
	r := s.Begin(false)
	defer r.Abort()
	for id, want := range map[int]bool{5: true, 105: false, 205: true} {
		if got := view(r, "customer").PKLookup(types.Row{types.NewInt(int64(id))}) >= 0; got != want {
			t.Errorf("row %d visible %v, want %v", id, got, want)
		}
	}
}
