package storage

import (
	"fmt"
	"slices"
	"strings"
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

// view is tx's view of the named table, which the test has created.
func view(tx *Txn, name string) *TableView {
	tv, ok := tx.Table(name)
	if !ok {
		panic("no table " + name)
	}
	return &tv
}

// viewIndex is tv's view of the named index, which the test has created.
func viewIndex(tv *TableView, name string) *IndexView {
	iv, ok := tv.Index(name)
	if !ok {
		panic("no index " + name)
	}
	return &iv
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
	if got := view(tx, "customer").Count(); got != 5 {
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
	td := view(tx, "customer")
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
	td := view(tx, "customer")
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
	td := view(tx, "customer")
	rid := td.PKLookup(types.Row{types.NewInt(1)})
	tx.Update("customer", rid, types.Row{types.NewInt(1), types.NewString("changed")})
	tx.Insert("customer", types.Row{types.NewInt(2), types.NewString("new")})
	rid1 := td.PKLookup(types.Row{types.NewInt(1)})
	tx.Delete("customer", rid1)
	tx.Abort()

	tx = s.Begin(false)
	defer tx.Abort()
	td = view(tx, "customer")
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
	td := view(tx, "customer")
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
	if view(tx, "customer").Count() != 1 {
		t.Error("unlogged commit lost data")
	}
}

func TestWALTruncate(t *testing.T) {
	w := NewWAL()
	for i := 0; i < 5; i++ {
		w.Append(int64(i), time.Now(), []ChangeRec{{Table: "t", Op: OpInsert}}, "")
	}
	w.Truncate(3)
	recs := w.ReadFrom(0, 0)
	if len(recs) != 3 || recs[0].LSN != 3 {
		t.Fatalf("after truncate: %d recs, first LSN %d", len(recs), recs[0].LSN)
	}
	if got := w.ReadFrom(4, 2); len(got) != 2 || got[0].LSN != 4 {
		t.Errorf("bounded read: %v", got)
	}

	// A view read before a truncation keeps its records through the
	// truncations and appends after it, whether a truncation reslices the
	// log or drains most of it into an array of its own.
	for i := 0; i < 3*compactAfter; i++ {
		w.Append(int64(i), time.Now(), nil, fmt.Sprint(i))
	}
	held := w.ReadFrom(0, 0)
	want := slices.Clone(held)
	w.Truncate(w.First() + 1)
	w.Truncate(w.End() - 2) // drops more than it keeps: copies the two kept
	if n := w.Len(); n != 2 {
		t.Fatalf("%d records after draining the log, want 2", n)
	}
	for i := 0; i < 3*compactAfter; i++ {
		w.Append(int64(i), time.Now(), nil, "later")
		w.Truncate(w.First() + 1)
	}
	for i := range held {
		if held[i].LSN != want[i].LSN || held[i].DDL != want[i].DDL {
			t.Fatalf("record %d of a held view changed: %+v, was %+v", i, held[i], want[i])
		}
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
				view(tx, "customer").Count()
				tx.Commit()
			}
		}()
	}
	wg.Wait()
	tx := s.Begin(false)
	defer tx.Abort()
	if view(tx, "customer").Count() != 200 {
		t.Errorf("final count %d", view(tx, "customer").Count())
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
	td := view(tx, "customer")
	if got := len(viewIndex(td, "ix_name").AppendMatches(nil, types.Row{types.NewString("bob")})); got != 2 {
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
	if len(viewIndex(view(tx, "customer"), "ix2").AppendMatches(nil, types.Row{types.NewString("z")})) != 1 {
		t.Error("new index missing existing rows")
	}
}

// Apply refuses a change it cannot carry out as given — a Before row that is
// not the table's width, an op it does not know — with an error, whether or
// not the table has a primary key (here the key is the second column, which
// a one-value row does not reach), and the table is left as it was.
func TestApplyRefusesAMalformedChange(t *testing.T) {
	for _, keyed := range []bool{true, false} {
		meta := &catalog.Table{Name: "p", Columns: []catalog.Column{
			{Name: "g", Type: types.KindInt}, {Name: "k", Type: types.KindInt},
		}}
		if keyed {
			meta.PrimaryKey = []int{1}
		}
		s := NewStore()
		if err := s.CreateTable(meta); err != nil {
			t.Fatal(err)
		}
		tx := s.Begin(true)
		full := types.Row{types.NewInt(1), types.NewInt(1)}
		if err := tx.Apply(ChangeRec{Table: "p", Op: OpInsert, After: full}); err != nil {
			t.Fatal(err)
		}
		for _, ch := range []ChangeRec{
			{Table: "p", Op: OpDelete, Before: types.Row{types.NewInt(1)}},
			{Table: "p", Op: OpUpdate, Before: types.Row{types.NewInt(1)}, After: full},
			{Table: "p", Op: OpDelete, Before: append(full.Clone(), types.NewInt(1))},
			{Table: "p", Op: ChangeOp(7), Before: full, After: full},
		} {
			err := tx.Apply(ch)
			if err == nil {
				t.Errorf("keyed=%v: %v of %v was accepted", keyed, ch.Op, ch.Before)
			} else if ch.Op <= OpUpdate && !strings.Contains(err.Error(), fmt.Sprintf("row has %d values, table has 2 columns", len(ch.Before))) {
				t.Errorf("keyed=%v: %v of %v: %v", keyed, ch.Op, ch.Before, err)
			}
		}
		if rows := view(tx, "p").Rows(); len(rows) != 1 || !types.RowsEqual(rows[0], full) {
			t.Errorf("keyed=%v: table holds %v", keyed, rows)
		}
		tx.Abort()
	}
}

// Apply finds the row of an update that carries no Before row by its After
// row's key, and the log record the write makes holds the whole row it found
// (LastChange). A key the table does not hold is an error; so is a change
// without a Before row that is not an update of a keyed table, or whose
// After row is not the table's width.
func TestApplyFindsAnUpdateByItsAfterKey(t *testing.T) {
	row := func(id int64, name string) types.Row { return types.Row{types.NewInt(id), types.NewString(name)} }
	s := NewStore()
	keyless := custMeta()
	keyless.Name, keyless.PrimaryKey = "guest", nil
	for _, meta := range []*catalog.Table{custMeta(), keyless} {
		if err := s.CreateTable(meta); err != nil {
			t.Fatal(err)
		}
	}
	tx := s.Begin(true)
	for _, ch := range []ChangeRec{
		{Table: "customer", Op: OpInsert, After: row(1, "a")},
		{Table: "customer", Op: OpInsert, After: row(2, "b")},
		{Table: "guest", Op: OpInsert, After: row(2, "b")},
	} {
		if err := tx.Apply(ch); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Apply(ChangeRec{Table: "customer", Op: OpUpdate, After: row(2, "c")}); err != nil {
		t.Fatal(err)
	}
	if got := tx.LastChange(); !types.RowsEqual(got.Before, row(2, "b")) || !types.RowsEqual(got.After, row(2, "c")) {
		t.Errorf("the update logs %v -> %v, want %v -> %v", got.Before, got.After, row(2, "b"), row(2, "c"))
	}
	for _, c := range []struct {
		ch   ChangeRec
		want string
	}{
		{ChangeRec{Table: "customer", Op: OpUpdate, After: row(3, "x")}, "is missing"},
		{ChangeRec{Table: "customer", Op: OpDelete}, "row has 0 values, table has 2 columns"},
		{ChangeRec{Table: "customer", Op: OpUpdate, After: row(1, "x")[:1]}, "row has 0 values, table has 2 columns"},
		{ChangeRec{Table: "guest", Op: OpUpdate, After: row(2, "x")}, "row has 0 values, table has 2 columns"},
	} {
		if err := tx.Apply(c.ch); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s of %s without a Before row, After %v: %v, want %q", c.ch.Op, c.ch.Table, c.ch.After, err, c.want)
		}
	}
	for table, want := range map[string][]types.Row{"customer": {row(1, "a"), row(2, "c")}, "guest": {row(2, "b")}} {
		if rows := view(tx, table).Rows(); !slices.EqualFunc(rows, want, types.RowsEqual) {
			t.Errorf("%s holds %v, want %v", table, rows, want)
		}
	}
	tx.Abort()
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
		rows := view(tx, "customer").Rows()
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

// TestApplyAllocBudget: a subscriber's warm apply — a kept write transaction
// (BeginWrite) carrying out an update that names its row by the After
// image's key and one that names it by a whole Before image, committed
// unlogged — allocates the two new versions: the key each lookup builds
// stays in a buffer on the stack, and the snapshot mark the commit
// publishes is carved from the store's chunk (3 while it was an object of
// its own).
func TestApplyAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	s := NewStore()
	if err := s.CreateTable(custMeta()); err != nil {
		t.Fatal(err)
	}
	row := func(id int64, name string) types.Row { return types.Row{types.NewInt(id), types.NewString(name)} }
	var tx Txn
	s.BeginWrite(&tx)
	for id := int64(1); id <= 2; id++ {
		if _, err := tx.Insert("customer", row(id, "a")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.CommitUnlogged(); err != nil {
		t.Fatal(err)
	}
	names := [2]string{"a", "b"}
	rows := [2][2]types.Row{}
	for i, name := range names {
		for id := range rows[i] {
			rows[i][id] = row(int64(id+1), name)
		}
	}
	n := 0
	apply := func() {
		n++
		was, now := rows[(n+1)%2], rows[n%2]
		s.BeginWrite(&tx)
		for _, ch := range []ChangeRec{
			{Table: "customer", Op: OpUpdate, After: now[0]},
			{Table: "customer", Op: OpUpdate, Before: was[1], After: now[1]},
		} {
			if err := tx.Apply(ch); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.CommitUnlogged(); err != nil {
			t.Fatal(err)
		}
	}
	apply()
	allocs := testing.AllocsPerRun(200, apply)
	t.Logf("%.0f allocs per apply of two updates", allocs)
	if allocs > 2 {
		t.Errorf("an apply of two updates allocates %.0f objects, want at most 2", allocs)
	}
}
