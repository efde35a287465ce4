package storage

import (
	"os"
	"path/filepath"
	"testing"

	"mtcache/internal/metrics"
	"mtcache/internal/types"
)

// TestLogIDsAreDrawnPerLog: every log starts under an ID of its own — two new
// stores' logs, and two fresh directories' logs.
func TestLogIDsAreDrawnPerLog(t *testing.T) {
	if a, b := NewStore().IDAt(0), NewStore().IDAt(0); a == b {
		t.Fatalf("two new stores drew ID %x both", a)
	}
	a := newDurableStore(t, t.TempDir(), DurabilityOptions{})
	defer a.Close()
	b := newDurableStore(t, t.TempDir(), DurabilityOptions{})
	defer b.Close()
	if a.IDAt(1) == b.IDAt(1) {
		t.Fatalf("two fresh directories drew ID %x both", a.IDAt(1))
	}
}

// TestRecoveredPositionsKeepTheirIDs: a restart of one data directory names
// every position it recovers by the ID of the open that wrote it, and writes
// the positions after them under an ID no earlier open had — after a clean
// shutdown; after a checkpoint and a truncation that dropped every segment
// holding a record, when the checkpoint names the position below the log;
// after a crash that left the only remaining segment without its header, when
// only the checkpoint names it; and after a recovery that cut a torn tail.
func TestRecoveredPositionsKeepTheirIDs(t *testing.T) {
	dir := t.TempDir()
	opts := DurabilityOptions{SegmentBytes: 1} // a segment per flush
	var s *Store
	named := map[LSN]uint64{} // each written position, by the ID its writer gave it
	drawn := map[uint64]bool{}
	segments := func() []string {
		t.Helper()
		segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
		if err != nil || len(segs) == 0 {
			t.Fatalf("segments %v (%v)", segs, err)
		}
		return segs
	}
	closeStore := func() {
		t.Helper()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// open opens the directory, checks every position the log still names —
	// the retained records' and the one below them — and the ID it writes under.
	open := func(what string) {
		t.Helper()
		s = newDurableStore(t, dir, opts)
		if err := s.Recover(nil); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		for lsn, id := range named {
			if lsn+1 >= s.WAL().First() && s.IDAt(lsn) != id {
				t.Fatalf("%s: position %d is named %x, its writer named it %x", what, lsn, s.IDAt(lsn), id)
			}
		}
		id := s.IDAt(s.WAL().End())
		if drawn[id] {
			t.Fatalf("%s: the open writes under %x, which an earlier open wrote under", what, id)
		}
		drawn[id] = true
	}
	commit := func(id int64, v string) {
		t.Helper()
		lsn := mustCommitInsert(t, s, id, v)
		named[lsn] = s.IDAt(lsn)
	}
	open("a fresh directory")
	commit(1, "a")
	closeStore()
	open("a clean restart")

	commit(2, "b")
	ck, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	s.WAL().Truncate(ck)
	for _, seg := range segments() {
		if first, _ := parseSeqName(filepath.Base(seg), "wal-", ".seg"); first < ck {
			t.Fatalf("segment %s outlived checkpoint %d", seg, ck)
		}
	}
	closeStore()
	open("a restart after a checkpoint dropped every record's segment")

	closeStore()
	for _, seg := range segments() {
		if err := os.Truncate(seg, int64(len(segMagic))+3); err != nil { // the ID's write torn
			t.Fatal(err)
		}
	}
	open("a restart whose segments all lost their header")

	commit(3, "c")
	closeStore()
	segs := segments()
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x40, 0, 0, 0, 0xde, 0xad}); err != nil { // a frame cut short
		t.Fatal(err)
	}
	f.Close()
	open("a recovery that cut a torn tail")
	if !s.Recovered().TornTail {
		t.Fatal("the recovery found no torn tail to cut")
	}
	if got := sortedRows(t, s); !equalStrings(got, []string{"1|a", "2|b", "3|c"}) {
		t.Fatalf("recovered %v, want every acknowledged row", got)
	}
	commit(4, "d")
	closeStore()
	open("a clean restart after a commit under the fresh ID")
	closeStore()
}

// TestEachOpenStartsASegment: an open writes in a segment of its own, so one
// that commits nothing leaves a record-less segment at the log's end, under
// its ID. The next open takes that segment's place: five opens with no
// commit between them leave one such segment, not five.
func TestEachOpenStartsASegment(t *testing.T) {
	dir := t.TempDir()
	s := newDurableStore(t, dir, DurabilityOptions{})
	mustCommitInsert(t, s, 1, "a")
	s.Close()
	for range 5 {
		s = newDurableStore(t, dir, DurabilityOptions{})
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) != 2 || filepath.Base(segs[1]) != segName(2) {
		t.Fatalf("segments %v (%v); want the commit's and one at LSN 2", segs, err)
	}
	recs, id, _, err := readSegment(OSFS(), segs[1])
	if err != nil || len(recs) != 0 || id != s.IDAt(2) {
		t.Fatalf("the last segment holds %d records under %x (%v); want none under the last open's %x", len(recs), id, err, s.IDAt(2))
	}
}

// TestCutSegmentStaysReadable: the segment a recovery cut at a torn tail is
// left in the middle of the log once the next open starts its own segment
// and commits there. The open after that reads it as a whole segment: no
// corruption is counted, no later segment is deleted, and every acknowledged
// row comes back.
func TestCutSegmentStaysReadable(t *testing.T) {
	dir := t.TempDir()
	s := newDurableStore(t, dir, DurabilityOptions{})
	for i := int64(1); i <= 3; i++ {
		mustCommitInsert(t, s, i, "before")
	}
	s.Close()
	f, err := os.OpenFile(onlySegment(t, dir), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x40, 0, 0, 0, 0xde, 0xad}); err != nil { // a frame cut short
		t.Fatal(err)
	}
	f.Close()

	s = newDurableStore(t, dir, DurabilityOptions{})
	if err := s.Recover(nil); err != nil || !s.Recovered().TornTail {
		t.Fatalf("the recovery cut no torn tail (%v)", err)
	}
	mustCommitInsert(t, s, 4, "after")
	s.Close()

	crc := metrics.Default.Counter("storage.wal_crc_errors")
	crc0 := crc.Value()
	s = newDurableStore(t, dir, DurabilityOptions{})
	defer s.Close()
	if err := s.Recover(nil); err != nil {
		t.Fatal(err)
	}
	if crc.Value() != crc0 || s.Recovered().CRCErrors != 0 || s.Recovered().TornTail {
		t.Fatalf("the open after read %d corrupt frames and a torn tail %v", crc.Value()-crc0, s.Recovered().TornTail)
	}
	for _, first := range []LSN{1, 4, 5} {
		if _, err := os.Stat(filepath.Join(dir, segName(first))); err != nil {
			t.Errorf("segment %d: %v", first, err)
		}
	}
	if got := sortedRows(t, s); !equalStrings(got, []string{"1|before", "2|before", "3|before", "4|after"}) {
		t.Fatalf("recovered %v, want every acknowledged row", got)
	}
}

// TestImageCarriesTheLogID: a cache's state file keeps the ID of its
// position, through WriteImage and ReadImage.
func TestImageCarriesTheLogID(t *testing.T) {
	dir := t.TempDir()
	img := &Image{LSN: 71, ID: 0xfedcba9876543210, Sets: []RowSet{{Name: "tires", Rows: []types.Row{{types.NewInt(4), types.NewInt(4)}}}}}
	if err := WriteImage(OSFS(), dir, "cache-state.ckpt", img); err != nil {
		t.Fatal(err)
	}
	got, err := ReadImage(OSFS(), filepath.Join(dir, "cache-state.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != img.ID || got.LSN != img.LSN || len(got.Sets) != 1 {
		t.Fatalf("read back ID %x at %d with %d sets, wrote ID %x at %d with 1", got.ID, got.LSN, len(got.Sets), img.ID, img.LSN)
	}
}
