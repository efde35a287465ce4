package storage

import (
	"os"
	"path/filepath"
	"testing"

	"mtcache/internal/types"
)

// TestLogIDsAreDrawnPerLog: every log starts under an ID of its own — two new
// stores' logs, and two fresh directories' logs.
func TestLogIDsAreDrawnPerLog(t *testing.T) {
	if a, b := NewStore().LogID(), NewStore().LogID(); a == b {
		t.Fatalf("two new stores drew log ID %x both", a)
	}
	a := newDurableStore(t, t.TempDir(), DurabilityOptions{})
	defer a.Close()
	b := newDurableStore(t, t.TempDir(), DurabilityOptions{})
	defer b.Close()
	if a.LogID() == b.LogID() {
		t.Fatalf("two fresh directories drew log ID %x both", a.LogID())
	}
}

// TestDirectoryKeepsItsLogID: a restart of one data directory goes on with the
// log it holds, under the same ID — after a clean shutdown; after a
// checkpoint and a truncation that dropped every segment holding a record;
// after a crash that left the only remaining segment without its header, when
// only the checkpoint names the log; and after a recovery that cut a torn
// tail.
func TestDirectoryKeepsItsLogID(t *testing.T) {
	dir := t.TempDir()
	opts := DurabilityOptions{SegmentBytes: 1} // a segment per flush
	s := newDurableStore(t, dir, opts)
	id := s.LogID()
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
	reopen := func(what string) {
		t.Helper()
		s = newDurableStore(t, dir, opts)
		if err := s.Recover(nil); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if s.LogID() != id {
			t.Fatalf("%s: the directory's log is named %x, it was %x", what, s.LogID(), id)
		}
	}
	mustCommitInsert(t, s, 1, "a")
	closeStore()
	reopen("a clean restart")

	mustCommitInsert(t, s, 2, "b")
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
	reopen("a restart after a checkpoint dropped every record's segment")

	closeStore()
	for _, seg := range segments() {
		if err := os.Truncate(seg, int64(len(segMagic))+3); err != nil { // the ID's write torn
			t.Fatal(err)
		}
	}
	reopen("a restart whose segments all lost their header")

	mustCommitInsert(t, s, 3, "c")
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
	reopen("a recovery that cut a torn tail")
	if !s.Recovered().TornTail {
		t.Fatal("the recovery found no torn tail to cut")
	}
	if got := sortedRows(t, s); !equalStrings(got, []string{"1|a", "2|b", "3|c"}) {
		t.Fatalf("recovered %v, want every acknowledged row", got)
	}
	closeStore()
}

// TestImageCarriesTheLogID: a cache's state file keeps the ID of the log its
// position is in, through WriteImage and ReadImage.
func TestImageCarriesTheLogID(t *testing.T) {
	dir := t.TempDir()
	img := &Image{LSN: 71, LogID: 0xfedcba9876543210, Sets: []RowSet{{Name: "tires", Rows: []types.Row{{types.NewInt(4), types.NewInt(4)}}}}}
	if err := WriteImage(OSFS(), dir, "cache-state.ckpt", img); err != nil {
		t.Fatal(err)
	}
	got, err := ReadImage(OSFS(), filepath.Join(dir, "cache-state.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if got.LogID != img.LogID || got.LSN != img.LSN || len(got.Sets) != 1 {
		t.Fatalf("read back log %x at %d with %d sets, wrote log %x at %d with 1", got.LogID, got.LSN, len(got.Sets), img.LogID, img.LSN)
	}
}
