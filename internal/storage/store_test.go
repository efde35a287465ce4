package storage

import (
	"sync"
	"testing"
	"time"

	"mtcache/internal/catalog"
	"mtcache/internal/types"
)

func custMeta() *catalog.Table {
	return &catalog.Table{
		Name: "customer",
		Columns: []catalog.Column{
			{Name: "cid", Type: types.KindInt, NotNull: true},
			{Name: "cname", Type: types.KindString},
		},
		PrimaryKey: []int{0},
	}
}

func newCustStore(t testing.TB) *Store {
	t.Helper()
	s := NewStore()
	if err := s.CreateTable(custMeta()); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestInsertAndScan(t *testing.T) {
	s := newCustStore(t)
	tx := s.Begin(true)
	for i := int64(1); i <= 5; i++ {
		if _, err := tx.Insert("customer", types.Row{types.NewInt(i), types.NewString("c")}); err != nil {
			t.Fatal(err)
		}
	}
	lsn, err := tx.Commit()
	if err != nil || lsn == 0 {
		t.Fatalf("commit: lsn=%d err=%v", lsn, err)
	}
	tx = s.Begin(false)
	defer tx.Abort()
	if got := tx.Table("customer").Count(); got != 5 {
		t.Errorf("count %d", got)
	}
}

func TestPrimaryKeyUniqueness(t *testing.T) {
	s := newCustStore(t)
	tx := s.Begin(true)
	tx.Insert("customer", types.Row{types.NewInt(1), types.NewString("a")})
	if _, err := tx.Insert("customer", types.Row{types.NewInt(1), types.NewString("b")}); err == nil {
		t.Error("duplicate pk accepted")
	}
	tx.Commit()
}

func TestPKLookupAndUpdate(t *testing.T) {
	s := newCustStore(t)
	tx := s.Begin(true)
	tx.Insert("customer", types.Row{types.NewInt(1), types.NewString("a")})
	tx.Insert("customer", types.Row{types.NewInt(2), types.NewString("b")})
	td := tx.Table("customer")
	rid := td.PKLookup(types.Row{types.NewInt(2)})
	if rid < 0 {
		t.Fatal("pk lookup failed")
	}
	if err := tx.Update("customer", rid, types.Row{types.NewInt(2), types.NewString("B!")}); err != nil {
		t.Fatal(err)
	}
	if got := td.Get(rid)[1].Str(); got != "B!" {
		t.Errorf("updated value %q", got)
	}
	// PK change collides
	rid1 := td.PKLookup(types.Row{types.NewInt(1)})
	if err := tx.Update("customer", rid1, types.Row{types.NewInt(2), types.NewString("x")}); err == nil {
		t.Error("pk collision on update accepted")
	}
	tx.Commit()
}

func TestDeleteReindexes(t *testing.T) {
	s := newCustStore(t)
	tx := s.Begin(true)
	tx.Insert("customer", types.Row{types.NewInt(1), types.NewString("a")})
	td := tx.Table("customer")
	rid := td.PKLookup(types.Row{types.NewInt(1)})
	if err := tx.Delete("customer", rid); err != nil {
		t.Fatal(err)
	}
	if td.PKLookup(types.Row{types.NewInt(1)}) >= 0 {
		t.Error("deleted row still indexed")
	}
	// slot reuse
	if _, err := tx.Insert("customer", types.Row{types.NewInt(1), types.NewString("again")}); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
}

func TestAbortUndoesEverything(t *testing.T) {
	s := newCustStore(t)
	tx := s.Begin(true)
	tx.Insert("customer", types.Row{types.NewInt(1), types.NewString("keep")})
	tx.Commit()

	tx = s.Begin(true)
	td := tx.Table("customer")
	rid := td.PKLookup(types.Row{types.NewInt(1)})
	tx.Update("customer", rid, types.Row{types.NewInt(1), types.NewString("changed")})
	tx.Insert("customer", types.Row{types.NewInt(2), types.NewString("new")})
	rid1 := td.PKLookup(types.Row{types.NewInt(1)})
	tx.Delete("customer", rid1)
	tx.Abort()

	tx = s.Begin(false)
	defer tx.Abort()
	td = tx.Table("customer")
	if td.Count() != 1 {
		t.Fatalf("count after abort: %d", td.Count())
	}
	rid = td.PKLookup(types.Row{types.NewInt(1)})
	if rid < 0 || td.Get(rid)[1].Str() != "keep" {
		t.Error("abort did not restore original row")
	}
	if td.PKLookup(types.Row{types.NewInt(2)}) >= 0 {
		t.Error("aborted insert still present")
	}
}

func TestWALRecordsCommittedChanges(t *testing.T) {
	s := newCustStore(t)
	tx := s.Begin(true)
	tx.Insert("customer", types.Row{types.NewInt(1), types.NewString("a")})
	tx.Commit()

	tx = s.Begin(true)
	td := tx.Table("customer")
	rid := td.PKLookup(types.Row{types.NewInt(1)})
	tx.Update("customer", rid, types.Row{types.NewInt(1), types.NewString("b")})
	tx.Commit()

	recs := s.WAL().ReadFrom(1, 0)
	if len(recs) != 2 {
		t.Fatalf("wal records: %d", len(recs))
	}
	if recs[0].Changes[0].Op != OpInsert {
		t.Error("first change should be insert")
	}
	up := recs[1].Changes[0]
	if up.Op != OpUpdate || up.Before[1].Str() != "a" || up.After[1].Str() != "b" {
		t.Errorf("update images wrong: %+v", up)
	}
	if !recs[0].CommitTime.Before(recs[1].CommitTime.Add(time.Nanosecond)) {
		t.Error("commit times should be non-decreasing")
	}
}

func TestWALAbortedTxnNotLogged(t *testing.T) {
	s := newCustStore(t)
	tx := s.Begin(true)
	tx.Insert("customer", types.Row{types.NewInt(1), types.NewString("a")})
	tx.Abort()
	if s.WAL().Len() != 0 {
		t.Error("aborted txn reached the WAL")
	}
}

func TestWALUnloggedCommit(t *testing.T) {
	s := newCustStore(t)
	tx := s.Begin(true)
	tx.Insert("customer", types.Row{types.NewInt(1), types.NewString("a")})
	if err := tx.CommitUnlogged(); err != nil {
		t.Fatal(err)
	}
	if s.WAL().Len() != 0 {
		t.Error("unlogged commit reached the WAL (would echo replicated changes)")
	}
	tx = s.Begin(false)
	defer tx.Abort()
	if tx.Table("customer").Count() != 1 {
		t.Error("unlogged commit lost data")
	}
}

func TestWALTruncate(t *testing.T) {
	w := NewWAL()
	for i := 0; i < 5; i++ {
		w.Append(int64(i), time.Now(), []ChangeRec{{Table: "t", Op: OpInsert}})
	}
	w.Truncate(3)
	recs := w.ReadFrom(0, 0)
	if len(recs) != 3 || recs[0].LSN != 3 {
		t.Fatalf("after truncate: %d recs, first LSN %d", len(recs), recs[0].LSN)
	}
	if got := w.ReadFrom(4, 2); len(got) != 2 || got[0].LSN != 4 {
		t.Errorf("bounded read: %v", got)
	}
}

func TestReadOnlyTxnCannotWrite(t *testing.T) {
	s := newCustStore(t)
	tx := s.Begin(false)
	defer tx.Abort()
	if _, err := tx.Insert("customer", types.Row{types.NewInt(1), types.Null}); err == nil {
		t.Error("write in read txn accepted")
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	s := newCustStore(t)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(base int64) {
			defer wg.Done()
			for i := int64(0); i < 50; i++ {
				tx := s.Begin(true)
				tx.Insert("customer", types.Row{types.NewInt(base*1000 + i), types.NewString("w")})
				tx.Commit()
			}
		}(int64(w))
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tx := s.Begin(false)
				tx.Table("customer").Count()
				tx.Commit()
			}
		}()
	}
	wg.Wait()
	tx := s.Begin(false)
	defer tx.Abort()
	if tx.Table("customer").Count() != 200 {
		t.Errorf("final count %d", tx.Table("customer").Count())
	}
	if s.WAL().Len() != 200 {
		t.Errorf("wal commits %d", s.WAL().Len())
	}
}

func TestSecondaryIndexMaintenance(t *testing.T) {
	s := NewStore()
	meta := custMeta()
	meta.Indexes = []*catalog.Index{{Name: "ix_name", Table: "customer", Columns: []int{1}}}
	s.CreateTable(meta)
	tx := s.Begin(true)
	tx.Insert("customer", types.Row{types.NewInt(1), types.NewString("bob")})
	tx.Insert("customer", types.Row{types.NewInt(2), types.NewString("bob")})
	tx.Insert("customer", types.Row{types.NewInt(3), types.NewString("amy")})
	td := tx.Table("customer")
	if got := len(td.Index("ix_name").Get(types.Row{types.NewString("bob")})); got != 2 {
		t.Errorf("non-unique index lookup: %d", got)
	}
	tx.Commit()
}

func TestAddIndexBackfills(t *testing.T) {
	s := newCustStore(t)
	tx := s.Begin(true)
	tx.Insert("customer", types.Row{types.NewInt(1), types.NewString("z")})
	tx.Commit()
	if err := s.AddIndex("customer", &catalog.Index{Name: "ix2", Columns: []int{1}}); err != nil {
		t.Fatal(err)
	}
	tx = s.Begin(false)
	defer tx.Abort()
	if len(tx.Table("customer").Index("ix2").Get(types.Row{types.NewString("z")})) != 1 {
		t.Error("new index missing existing rows")
	}
}

// Apply locates the before-image by primary key when the table has one and by
// full-row equality when it has none — one of equal rows, whichever — and a
// change whose row is not there is an error, not a no-op.
func TestApplyLocatesTheBeforeImage(t *testing.T) {
	row := func(id int64, name string) types.Row { return types.Row{types.NewInt(id), types.NewString(name)} }
	for _, keyed := range []bool{true, false} {
		meta := custMeta()
		if !keyed {
			meta.PrimaryKey = nil
		}
		s := NewStore()
		if err := s.CreateTable(meta); err != nil {
			t.Fatal(err)
		}
		tx := s.Begin(true)
		steps := []ChangeRec{
			{Op: OpInsert, After: row(1, "a")},
			{Op: OpInsert, After: row(2, "b")},
			{Op: OpUpdate, Before: row(2, "b"), After: row(2, "c")},
			{Op: OpDelete, Before: row(1, "a")},
		}
		if !keyed { // equal rows: each delete removes exactly one
			steps = append(steps,
				ChangeRec{Op: OpInsert, After: row(2, "c")},
				ChangeRec{Op: OpInsert, After: row(2, "c")},
				ChangeRec{Op: OpDelete, Before: row(2, "c")})
		}
		for _, ch := range steps {
			ch.Table = "Customer"
			if err := tx.Apply(ch); err != nil {
				t.Fatalf("keyed=%v %s: %v", keyed, ch.Op, err)
			}
		}
		want := 1
		if !keyed {
			want = 2
		}
		rows := tx.Table("customer").Rows()
		if len(rows) != want || !types.RowsEqual(rows[0], row(2, "c")) {
			t.Errorf("keyed=%v: table holds %v", keyed, rows)
		}
		for _, ch := range []ChangeRec{
			{Table: "customer", Op: OpDelete, Before: row(1, "a")},
			{Table: "customer", Op: OpUpdate, Before: row(9, "x"), After: row(9, "y")},
			{Table: "nowhere", Op: OpInsert, After: row(1, "a")},
		} {
			if err := tx.Apply(ch); err == nil {
				t.Errorf("keyed=%v: %s of a row that is not there was accepted", keyed, ch.Op)
			}
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}
