package storage

import (
	"errors"
	"sync"
	"testing"
	"time"

	"mtcache/internal/catalog"
	"mtcache/internal/types"
)

func insertCust(t *testing.T, s *Store, id int64, name string) {
	t.Helper()
	tx := s.Begin(true)
	if _, err := tx.Insert("customer", types.Row{types.NewInt(id), types.NewString(name)}); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func custName(t *testing.T, tx *Txn, id int64) (string, bool) {
	t.Helper()
	td := tx.Table("customer")
	rid := td.PKLookup(types.Row{types.NewInt(id)})
	if rid < 0 {
		return "", false
	}
	return td.Get(rid)[1].Str(), true
}

// TestSnapshotIsolation: a reader pinned before a commit keeps seeing the
// pre-commit state; a reader pinned after sees the new state.
func TestSnapshotIsolation(t *testing.T) {
	s := newCustStore(t)
	insertCust(t, s, 1, "old")

	before := s.Begin(false)
	defer before.Abort()

	wtx := s.Begin(true)
	td := wtx.Table("customer")
	rid := td.PKLookup(types.Row{types.NewInt(1)})
	if err := wtx.Update("customer", rid, types.Row{types.NewInt(1), types.NewString("new")}); err != nil {
		t.Fatal(err)
	}
	if _, err := wtx.Insert("customer", types.Row{types.NewInt(2), types.NewString("extra")}); err != nil {
		t.Fatal(err)
	}
	if _, err := wtx.Commit(); err != nil {
		t.Fatal(err)
	}

	if name, ok := custName(t, before, 1); !ok || name != "old" {
		t.Errorf("pinned snapshot sees %q, want old", name)
	}
	if _, ok := custName(t, before, 2); ok {
		t.Error("pinned snapshot sees a row inserted after it")
	}
	if before.Table("customer").Count() != 1 {
		t.Errorf("pinned snapshot count %d, want 1", before.Table("customer").Count())
	}

	after := s.Begin(false)
	defer after.Abort()
	if name, ok := custName(t, after, 1); !ok || name != "new" {
		t.Errorf("new snapshot sees %q, want new", name)
	}
	if after.Table("customer").Count() != 2 {
		t.Errorf("new snapshot count %d, want 2", after.Table("customer").Count())
	}
}

// TestReadersNeverBlockOnOpenWriter: with an uncommitted write transaction
// holding the table latch, read transactions still begin, scan and finish.
// Under the seed's store-wide 2PL this deadlocks (the reader waits for the
// writer's exclusive lock).
func TestReadersNeverBlockOnOpenWriter(t *testing.T) {
	s := newCustStore(t)
	insertCust(t, s, 1, "committed")

	wtx := s.Begin(true)
	if _, err := wtx.Insert("customer", types.Row{types.NewInt(2), types.NewString("uncommitted")}); err != nil {
		t.Fatal(err)
	}

	done := make(chan int, 1)
	go func() {
		rtx := s.Begin(false)
		defer rtx.Abort()
		done <- rtx.Table("customer").Count()
	}()
	select {
	case n := <-done:
		if n != 1 {
			t.Errorf("reader saw %d rows (uncommitted write leaked?)", n)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("reader blocked behind an open write transaction")
	}
	if _, err := wtx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestWriterReadsOwnWrites: a write transaction's view shows its uncommitted
// changes (latest-plus-own visibility), including through indexes.
func TestWriterReadsOwnWrites(t *testing.T) {
	s := newCustStore(t)
	wtx := s.Begin(true)
	td := wtx.Table("customer")
	if _, err := wtx.Insert("customer", types.Row{types.NewInt(7), types.NewString("mine")}); err != nil {
		t.Fatal(err)
	}
	// The view was created before the insert; PKLookup must still find it.
	rid := td.PKLookup(types.Row{types.NewInt(7)})
	if rid < 0 {
		t.Fatal("writer cannot see its own insert through the PK index")
	}
	if got := td.Get(rid)[1].Str(); got != "mine" {
		t.Errorf("writer view row %q", got)
	}
	wtx.Abort()
}

// TestDeadlockDetection: two writers latch two tables in opposite orders;
// one of them must get ErrDeadlock instead of waiting forever, and its
// commit must fail and roll back.
func TestDeadlockDetection(t *testing.T) {
	s := NewStore()
	for _, name := range []string{"t1", "t2"} {
		meta := &catalog.Table{
			Name:       name,
			Columns:    []catalog.Column{{Name: "id", Type: types.KindInt, NotNull: true}},
			PrimaryKey: []int{0},
		}
		if err := s.CreateTable(meta); err != nil {
			t.Fatal(err)
		}
	}

	txA := s.Begin(true)
	txB := s.Begin(true)
	if _, err := txA.Insert("t1", types.Row{types.NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := txB.Insert("t2", types.Row{types.NewInt(1)}); err != nil {
		t.Fatal(err)
	}

	// A requests t2 (held by B) in the background, then B requests t1 (held
	// by A) — closing the cycle. Exactly the late-arriving edge must fail.
	aDone := make(chan error, 1)
	go func() {
		_, err := txA.Insert("t2", types.Row{types.NewInt(2)})
		aDone <- err
	}()
	// Give A time to enqueue its wait before B closes the cycle.
	time.Sleep(50 * time.Millisecond)
	_, errB := txB.Insert("t1", types.Row{types.NewInt(2)})
	if !errors.Is(errB, ErrDeadlock) {
		t.Fatalf("expected ErrDeadlock for the cycle-closing request, got %v", errB)
	}
	if !errors.Is(txB.Err(), ErrDeadlock) {
		t.Error("transaction error not sticky after deadlock")
	}
	if _, err := txB.Commit(); !errors.Is(err, ErrDeadlock) {
		t.Errorf("commit of deadlocked txn: %v, want ErrDeadlock (and rollback)", err)
	}
	// B's abort released t2; A's blocked insert proceeds and commits.
	if err := <-aDone; err != nil {
		t.Fatalf("victim released, but A's insert failed: %v", err)
	}
	if _, err := txA.Commit(); err != nil {
		t.Fatal(err)
	}

	rtx := s.Begin(false)
	defer rtx.Abort()
	if n := rtx.Table("t2").Count(); n != 1 {
		t.Errorf("t2 rows %d, want 1 (B's insert rolled back, A's applied)", n)
	}
	if n := rtx.Table("t1").Count(); n != 1 {
		t.Errorf("t1 rows %d, want 1 (only A's original insert)", n)
	}
}

// TestVersionGC: overwritten versions are reclaimed once no snapshot needs
// them, and retained while one does.
func TestVersionGC(t *testing.T) {
	s := newCustStore(t)
	insertCust(t, s, 1, "v0")

	pinned := s.Begin(false) // pins the "v0" snapshot

	for i := 0; i < 10; i++ {
		wtx := s.Begin(true)
		td := wtx.Table("customer")
		rid := td.PKLookup(types.Row{types.NewInt(1)})
		if err := wtx.Update("customer", rid, types.Row{types.NewInt(1), types.NewString("v")}); err != nil {
			t.Fatal(err)
		}
		if _, err := wtx.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	// The pinned snapshot holds the oldest version; GC may trim the middle
	// of the chain but must preserve what the snapshot sees.
	s.GC()
	if name, ok := custName(t, pinned, 1); !ok || name != "v0" {
		t.Fatalf("pinned snapshot sees %q after GC, want v0", name)
	}
	pinned.Abort()

	if reclaimed := s.GC(); reclaimed == 0 {
		t.Error("GC reclaimed nothing after the last snapshot unpinned")
	}
	rtx := s.Begin(false)
	defer rtx.Abort()
	if name, ok := custName(t, rtx, 1); !ok || name != "v" {
		t.Errorf("row after GC: %q", name)
	}
}

// TestGCReclaimsDeletedRowsAndIndexEntries: a deleted row's slot and index
// entries disappear after GC, and the slot is reused by a later insert.
func TestGCReclaimsDeletedRowsAndIndexEntries(t *testing.T) {
	s := newCustStore(t)
	insertCust(t, s, 1, "doomed")

	wtx := s.Begin(true)
	td := wtx.Table("customer")
	rid := td.PKLookup(types.Row{types.NewInt(1)})
	if err := wtx.Delete("customer", rid); err != nil {
		t.Fatal(err)
	}
	if _, err := wtx.Commit(); err != nil {
		t.Fatal(err)
	}

	if reclaimed := s.GC(); reclaimed < 1 {
		t.Fatalf("GC reclaimed %d versions, want >= 1", reclaimed)
	}
	pk := s.Table("customer").index("__pk")
	if pk.tree.Len() != 0 {
		t.Errorf("PK index still has %d entries after GC of the only row", pk.tree.Len())
	}

	// The freed slot is reused.
	wtx = s.Begin(true)
	newRid, err := wtx.Insert("customer", types.Row{types.NewInt(2), types.NewString("reuse")})
	if err != nil {
		t.Fatal(err)
	}
	if newRid != rid {
		t.Errorf("insert after GC got slot %d, want reused slot %d", newRid, rid)
	}
	if _, err := wtx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestIndexScanNoDuplicatesAcrossKeyChange: after an update moves a row to a
// new index key, the stale entry under the old key must not surface the row
// twice (or at all, under its old key) — and an old snapshot still finds the
// old image under the old key.
func TestIndexScanNoDuplicatesAcrossKeyChange(t *testing.T) {
	s := NewStore()
	meta := custMeta()
	meta.Indexes = []*catalog.Index{{Name: "ix_name", Table: "customer", Columns: []int{1}}}
	if err := s.CreateTable(meta); err != nil {
		t.Fatal(err)
	}
	insertCust(t, s, 1, "aaa")

	old := s.Begin(false)
	defer old.Abort()

	wtx := s.Begin(true)
	td := wtx.Table("customer")
	rid := td.PKLookup(types.Row{types.NewInt(1)})
	if err := wtx.Update("customer", rid, types.Row{types.NewInt(1), types.NewString("zzz")}); err != nil {
		t.Fatal(err)
	}
	if _, err := wtx.Commit(); err != nil {
		t.Fatal(err)
	}

	scanNames := func(tx *Txn) []string {
		var out []string
		ix := tx.Table("customer").Index("ix_name")
		ix.Walk(types.Row{types.NewString("a")}, types.Row{types.NewString("zzzz")}, false, func(it Item) bool {
			out = append(out, tx.Table("customer").Get(it.RID)[1].Str())
			return true
		})
		return out
	}

	if got := scanNames(old); len(got) != 1 || got[0] != "aaa" {
		t.Errorf("old snapshot index scan: %v, want [aaa]", got)
	}
	fresh := s.Begin(false)
	defer fresh.Abort()
	if got := scanNames(fresh); len(got) != 1 || got[0] != "zzz" {
		t.Errorf("fresh snapshot index scan: %v, want [zzz] (stale entry leaked?)", got)
	}
	if rids := fresh.Table("customer").Index("ix_name").Get(types.Row{types.NewString("aaa")}); len(rids) != 0 {
		t.Errorf("fresh snapshot still resolves the old key: %v", rids)
	}
}

// TestAsOfLSNPairsSnapshotWithLog: a read transaction's AsOfLSN covers
// exactly the commits its snapshot sees, even with commits landing around
// Begin. The replication snapshot protocol depends on this pairing.
func TestAsOfLSNPairsSnapshotWithLog(t *testing.T) {
	s := newCustStore(t)
	insertCust(t, s, 1, "a")
	rtx := s.Begin(false)
	asOf := rtx.AsOfLSN()
	insertCust(t, s, 2, "b")

	if n := rtx.Table("customer").Count(); n != 1 {
		t.Fatalf("snapshot rows %d, want 1", n)
	}
	// Replaying the WAL from asOf over the snapshot must yield current state:
	// exactly the one commit after the snapshot.
	recs := s.WAL().ReadFrom(asOf, 0)
	if len(recs) != 1 || recs[0].Changes[0].After[0].Int() != 2 {
		t.Errorf("WAL from AsOfLSN: %d records, want exactly the post-snapshot commit", len(recs))
	}
	rtx.Abort()
}

// TestConcurrentReadersSeeCommittedCountsOnly: readers racing a stream of
// multi-row transactions must always observe a multiple of the batch size —
// never a torn partial batch. This is the storage-level version of the
// repl torn-read test.
func TestConcurrentReadersSeeCommittedCountsOnly(t *testing.T) {
	s := newCustStore(t)
	const batch = 10
	const batches = 30
	stop := make(chan struct{})
	var torn []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rtx := s.Begin(false)
				n := rtx.Table("customer").Count()
				rtx.Abort()
				if n%batch != 0 {
					mu.Lock()
					torn = append(torn, n)
					mu.Unlock()
					return
				}
			}
		}()
	}
	for b := 0; b < batches; b++ {
		wtx := s.Begin(true)
		for i := 0; i < batch; i++ {
			id := int64(b*batch + i)
			if _, err := wtx.Insert("customer", types.Row{types.NewInt(id), types.NewString("x")}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := wtx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if len(torn) > 0 {
		t.Fatalf("readers observed torn batch counts: %v", torn)
	}
}
