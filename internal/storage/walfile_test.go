package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"mtcache/internal/catalog"
	"mtcache/internal/types"
)

func durTestMeta(name string) *catalog.Table {
	return &catalog.Table{
		Name: name,
		Columns: []catalog.Column{
			{Name: "id", Type: types.KindInt, NotNull: true},
			{Name: "v", Type: types.KindString},
		},
		PrimaryKey: []int{0},
	}
}

func newDurableStore(t testing.TB, dir string, opts DurabilityOptions) *Store {
	t.Helper()
	opts.Dir = dir
	s := NewStore()
	if err := s.EnableDurability(opts); err != nil {
		t.Fatalf("EnableDurability: %v", err)
	}
	if err := s.CreateTable(durTestMeta("t")); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	return s
}

func mustCommitInsert(t testing.TB, s *Store, id int64, v string) LSN {
	t.Helper()
	tx := s.Begin(true)
	if _, err := tx.Insert("t", types.Row{types.NewInt(id), types.NewString(v)}); err != nil {
		t.Fatalf("insert %d: %v", id, err)
	}
	lsn, err := tx.Commit()
	if err != nil {
		t.Fatalf("commit %d: %v", id, err)
	}
	return lsn
}

func sortedRows(t *testing.T, s *Store) []string {
	t.Helper()
	tx := s.Begin(false)
	defer tx.Abort()
	tv := view(tx, "t")
	if tv == nil {
		t.Fatal("table t missing")
	}
	var out []string
	for _, r := range tv.Rows() {
		out = append(out, fmt.Sprintf("%d|%s", r[0].Int(), r[1].Str()))
	}
	sort.Strings(out)
	return out
}

// TestDurableRoundTrip runs its case as a subtest named after the commit rule
// it exercises; group commit is the only one the WAL has.
func TestDurableRoundTrip(t *testing.T) {
	t.Run("group", testDurableRoundTrip)
}

func testDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := newDurableStore(t, dir, DurabilityOptions{})
	for i := 1; i <= 20; i++ {
		mustCommitInsert(t, s, int64(i), fmt.Sprintf("row%d", i))
	}
	// An update and a delete exercise the non-insert replay paths.
	tx := s.Begin(true)
	tv := view(tx, "t")
	rid := tv.PKLookup(types.Row{types.NewInt(3)})
	if err := tx.Update("t", rid, types.Row{types.NewInt(3), types.NewString("updated")}); err != nil {
		t.Fatalf("update: %v", err)
	}
	rid = tv.PKLookup(types.Row{types.NewInt(7)})
	if err := tx.Delete("t", rid); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	want := sortedRows(t, s)
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	r := newDurableStore(t, dir, DurabilityOptions{})
	if err := r.Recover(nil); err != nil {
		t.Fatalf("recover: %v", err)
	}
	stats := r.Recovered()
	if stats.ReplayedTxns != 21 {
		t.Fatalf("replayed %d txns, want 21", stats.ReplayedTxns)
	}
	if got := sortedRows(t, r); !equalStrings(got, want) {
		t.Fatalf("recovered rows mismatch:\n got %v\nwant %v", got, want)
	}
	if r.WAL().End() != s.WAL().End() {
		t.Fatalf("WAL end %d after recovery, want %d", r.WAL().End(), s.WAL().End())
	}
	r.Close()
}

func TestRecoveryFromCheckpointPlusTail(t *testing.T) {
	dir := t.TempDir()
	s := newDurableStore(t, dir, DurabilityOptions{})
	for i := 1; i <= 10; i++ {
		mustCommitInsert(t, s, int64(i), "pre")
	}
	ckLSN, err := s.Checkpoint()
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if ckLSN != 11 {
		t.Fatalf("checkpoint LSN %d, want 11", ckLSN)
	}
	for i := 11; i <= 15; i++ {
		mustCommitInsert(t, s, int64(i), "post")
	}
	want := sortedRows(t, s)
	s.Close()

	r := newDurableStore(t, dir, DurabilityOptions{})
	if err := r.Recover(nil); err != nil {
		t.Fatalf("recover: %v", err)
	}
	stats := r.Recovered()
	if stats.CheckpointLSN != 11 || stats.CheckpointRows != 10 {
		t.Fatalf("checkpoint stats = LSN %d rows %d, want 11/10", stats.CheckpointLSN, stats.CheckpointRows)
	}
	if stats.ReplayedTxns != 5 {
		t.Fatalf("replayed %d txns over the checkpoint, want 5", stats.ReplayedTxns)
	}
	if got := sortedRows(t, r); !equalStrings(got, want) {
		t.Fatalf("recovered rows mismatch:\n got %v\nwant %v", got, want)
	}
	// New commits must continue the LSN sequence, not reuse logged ones.
	if lsn := mustCommitInsert(t, r, 100, "new"); lsn != 16 {
		t.Fatalf("first post-recovery LSN = %d, want 16", lsn)
	}
	r.Close()
}

func TestTornTailTruncatedOnRecovery(t *testing.T) {
	dir := t.TempDir()
	s := newDurableStore(t, dir, DurabilityOptions{})
	for i := 1; i <= 5; i++ {
		mustCommitInsert(t, s, int64(i), "ok")
	}
	want := sortedRows(t, s)
	s.Close()

	// Simulate a torn write: a frame header promising more bytes than exist.
	seg := onlySegment(t, dir)
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x40, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe, 0xef, 0x01, 0x02}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r := newDurableStore(t, dir, DurabilityOptions{})
	if err := r.Recover(nil); err != nil {
		t.Fatalf("recover with torn tail: %v", err)
	}
	stats := r.Recovered()
	if !stats.TornTail {
		t.Fatal("recovery did not report the torn tail")
	}
	if stats.ReplayedTxns != 5 {
		t.Fatalf("replayed %d txns, want 5", stats.ReplayedTxns)
	}
	if got := sortedRows(t, r); !equalStrings(got, want) {
		t.Fatalf("recovered rows mismatch:\n got %v\nwant %v", got, want)
	}
	// The torn bytes are gone: appending works and a re-open is clean.
	mustCommitInsert(t, r, 6, "after")
	r.Close()
	r2 := newDurableStore(t, dir, DurabilityOptions{})
	if err := r2.Recover(nil); err != nil {
		t.Fatalf("second recover: %v", err)
	}
	stats = r2.Recovered()
	if stats.TornTail || stats.ReplayedTxns != 6 {
		t.Fatalf("second recovery: torn=%v replayed=%d, want clean 6", stats.TornTail, stats.ReplayedTxns)
	}
	r2.Close()
}

func TestCRCCorruptionStopsReplayCleanly(t *testing.T) {
	dir := t.TempDir()
	s := newDurableStore(t, dir, DurabilityOptions{})
	for i := 1; i <= 8; i++ {
		mustCommitInsert(t, s, int64(i), strings.Repeat("x", 50))
	}
	s.Close()

	// Flip a byte in the middle of the segment — inside some record's
	// payload, far from the tail.
	seg := onlySegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	r := newDurableStore(t, dir, DurabilityOptions{})
	if err := r.Recover(nil); err != nil {
		t.Fatalf("recover after corruption: %v", err)
	}
	stats := r.Recovered()
	if stats.CRCErrors == 0 {
		t.Fatal("recovery did not count the CRC error")
	}
	got := sortedRows(t, r)
	if len(got) == 0 || len(got) >= 8 {
		t.Fatalf("recovered %d rows; want a strict valid prefix (0 < n < 8)", len(got))
	}
	for i, row := range got {
		if want := fmt.Sprintf("%d|%s", i+1, strings.Repeat("x", 50)); row != want {
			t.Fatalf("row %d = %q, want %q (prefix property violated)", i, row, want)
		}
	}
	r.Close()
}

func TestTruncateClampedToCheckpointAndSnapshots(t *testing.T) {
	dir := t.TempDir()
	s := newDurableStore(t, dir, DurabilityOptions{SegmentBytes: 256})
	for i := 1; i <= 10; i++ {
		mustCommitInsert(t, s, int64(i), "seg-roll")
	}
	// No checkpoint yet: the whole log is the recovery source.
	s.WAL().Truncate(999)
	if first := s.WAL().First(); first != 1 {
		t.Fatalf("truncate before any checkpoint moved First to %d, want 1", first)
	}

	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// A pinned snapshot holds the floor below the checkpoint.
	rtx := s.Begin(false)
	pinned := rtx.AsOfLSN()
	for i := 11; i <= 14; i++ {
		mustCommitInsert(t, s, int64(i), "post-pin")
	}
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.WAL().Truncate(999)
	if first := s.WAL().First(); first > pinned {
		t.Fatalf("truncate dropped records a pinned snapshot needs: First=%d pinned=%d", first, pinned)
	}
	rtx.Abort()

	// Snapshot released: now the floor is the checkpoint LSN.
	s.WAL().Truncate(999)
	ck := s.CheckpointLSN()
	if first := s.WAL().First(); first != ck {
		t.Fatalf("truncate floor = %d, want checkpoint LSN %d", first, ck)
	}
	// Segment files strictly below the floor are gone, the rest remain.
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) == 0 {
		t.Fatal("no segments left after truncation")
	}
	s.Close()

	// The truncated log still recovers (checkpoint covers the dropped part).
	r := newDurableStore(t, dir, DurabilityOptions{SegmentBytes: 256})
	if err := r.Recover(nil); err != nil {
		t.Fatalf("recover after truncation: %v", err)
	}
	if got := len(sortedRows(t, r)); got != 14 {
		t.Fatalf("recovered %d rows, want 14", got)
	}
	r.Close()
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	s := newDurableStore(t, dir, DurabilityOptions{SegmentBytes: 200})
	for i := 1; i <= 12; i++ {
		mustCommitInsert(t, s, int64(i), "rotate")
	}
	s.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) < 2 {
		t.Fatalf("expected multiple segments at 200-byte rotation, got %d", len(segs))
	}
	r := newDurableStore(t, dir, DurabilityOptions{SegmentBytes: 200})
	if err := r.Recover(nil); err != nil {
		t.Fatalf("recover across segments: %v", err)
	}
	stats := r.Recovered()
	if stats.ReplayedTxns != 12 {
		t.Fatalf("replayed %d txns across segments, want 12", stats.ReplayedTxns)
	}
	r.Close()
}

func onlySegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want exactly one segment, got %v (%v)", segs, err)
	}
	return segs[0]
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// BenchmarkCommit is group-commit throughput with concurrent committers (4
// per core) on one durable store, one single-row insert per transaction. A
// commit returns only once the record is fsynced; fsyncs/commit shows one
// flush shared among the commits that piled up behind the previous one.
func BenchmarkCommit(b *testing.B) {
	s := newDurableStore(b, b.TempDir(), DurabilityOptions{})
	var next atomic.Int64
	b.SetParallelism(4)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			tx := s.Begin(true)
			row := types.Row{types.NewInt(next.Add(1)), types.NewString("payload-for-one-commit-record")}
			if _, err := tx.Insert("t", row); err != nil {
				tx.Abort()
				b.Error(err)
				return
			}
			if _, err := tx.Commit(); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(s.durable.fsyncCount())/float64(b.N), "fsyncs/commit")
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
}

// noSyncFS makes every fsync a no-op, so a test that needs a long log builds
// it without waiting on the disk. What it writes survives a clean close, not
// a crash.
type noSyncFS struct{ FS }

func (n noSyncFS) Create(name string) (File, error) { return noSync(n.FS.Create(name)) }

func noSync(f File, err error) (File, error) {
	if err != nil {
		return nil, err
	}
	return noSyncFile{f}, nil
}

type noSyncFile struct{ File }

func (noSyncFile) Sync() error { return nil }

// BenchmarkRecover is a store's restart-to-serving time (open the log,
// Recover) over a 2 000-commit log: replaying all of it, and from a
// checkpoint taken 50 commits before the end. A bare store has no DDL path,
// so its table is made by hand, unlogged, before Recover; a database opened
// through engine.Open recovers its tables from the log and the checkpoint.
func BenchmarkRecover(b *testing.B) {
	const commits, tail = 2000, 50
	for _, mode := range []string{"replay", "checkpoint"} {
		b.Run(mode, func(b *testing.B) {
			dir := b.TempDir()
			opts := DurabilityOptions{FS: noSyncFS{OSFS()}}
			s := newDurableStore(b, dir, opts)
			for i := 1; i <= commits; i++ {
				if mode == "checkpoint" && i == commits-tail+1 {
					if _, err := s.Checkpoint(); err != nil {
						b.Fatal(err)
					}
				}
				mustCommitInsert(b, s, int64(i), "payload-for-one-commit-record")
			}
			if err := s.Close(); err != nil {
				b.Fatal(err)
			}
			var stats *RecoveryStats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := newDurableStore(b, dir, opts)
				if err := r.Recover(nil); err != nil {
					b.Fatal(err)
				}
				stats = r.Recovered()
				if err := r.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(stats.ReplayedTxns), "replayed_txns")
		})
	}
}
