package storage

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mtcache/internal/catalog"
	"mtcache/internal/metrics"
	"mtcache/internal/types"
)

// exactValueRows are rows whose values only survive a carrier that encodes a
// types.Value as its codec bytes: gob by reflection cannot see the payload
// word or the nanoseconds, and would bring these back as zeros.
func exactValueRows() []types.Row {
	return []types.Row{
		{types.NewInt(1), types.NewFloat(math.Float64frombits(0x7ff8_0000_dead_beef)), types.NewTime(time.Date(2024, 2, 29, 23, 59, 59, 123_000_000, time.UTC)), types.NewString("")},
		{types.NewInt(2), types.NewFloat(math.Copysign(0, -1)), types.NewTime(time.Date(1, 1, 1, 0, 0, 0, 7, time.UTC)), types.Null},
		{types.NewInt(3), types.NewFloat(0.1), types.NewTime(time.Date(9999, 12, 31, 23, 59, 59, 999_999_999, time.UTC)), types.NewString("it's")},
		{types.NewInt(math.MaxInt64), types.NewFloat(math.Inf(-1)), types.NewTime(time.Date(1969, 12, 31, 23, 59, 59, 500_000_000, time.UTC)), types.NewString("x")},
		{types.NewInt(5), types.Null, types.Null, types.NewString("nulls")},
	}
}

func exactValueMeta() *catalog.Table {
	return &catalog.Table{
		Name: "vals",
		Columns: []catalog.Column{
			{Name: "id", Type: types.KindInt, NotNull: true},
			{Name: "f", Type: types.KindFloat},
			{Name: "ts", Type: types.KindTime},
			{Name: "s", Type: types.KindString},
		},
		PrimaryKey: []int{0},
	}
}

// TestCheckpointCarriesValuesExactly: rows restored from a checkpoint image
// alone (no WAL tail) are bit-identical to what was committed — NaN payload,
// -0.0, sub-second and out-of-range DATETIMEs, the empty string vs NULL.
func TestCheckpointCarriesValuesExactly(t *testing.T) {
	dir := t.TempDir()
	s := newDurableStore(t, dir, DurabilityOptions{})
	if err := s.CreateTable(exactValueMeta()); err != nil {
		t.Fatal(err)
	}
	want := exactValueRows()
	tx := s.Begin(true)
	for _, row := range want {
		if _, err := tx.Insert("vals", row); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	s.Close()

	r := newDurableStore(t, dir, DurabilityOptions{})
	defer r.Close()
	if err := r.CreateTable(exactValueMeta()); err != nil {
		t.Fatal(err)
	}
	if err := r.Recover(nil); err != nil {
		t.Fatalf("recover: %v", err)
	}
	stats := r.Recovered()
	if stats.ReplayedTxns != 0 || stats.CheckpointRows != len(want) {
		t.Fatalf("recovered %d rows from the image and replayed %d txns; want %d and 0 (the image alone must carry the rows)",
			stats.CheckpointRows, stats.ReplayedTxns, len(want))
	}
	rtx := r.Begin(false)
	defer rtx.Abort()
	tv := view(rtx, "vals")
	for _, w := range want {
		rid := tv.PKLookup(w[:1])
		if rid < 0 {
			t.Fatalf("row %v missing after recovery", w[0])
		}
		got := tv.Get(rid)
		for i := range w {
			if !types.Identical(got[i], w[i]) { // bits, (seconds, nanoseconds) and bytes
				t.Errorf("row %v col %d: committed %#v, recovered %#v", w[0], i, w[i], got[i])
			}
		}
	}
}

// TestOldCheckpointFormatIsRefusedNotSkipped: a checkpoint carrying another
// version's magic fails the open with an error that names both formats, and
// nothing in the directory is touched. Skipping it like a torn file would
// replay the truncated WAL tail onto an empty heap — silent data loss.
func TestOldCheckpointFormatIsRefusedNotSkipped(t *testing.T) {
	dir := t.TempDir()
	s := newDurableStore(t, dir, DurabilityOptions{})
	for i := 1; i <= 5; i++ {
		mustCommitInsert(t, s, int64(i), "pre")
	}
	ck, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	mustCommitInsert(t, s, 6, "post")
	s.Close()

	path := filepath.Join(dir, ckptName(ck))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const oldMagic = "MTCKPT03" // the previous checkpoint format: no catalog
	if err := os.WriteFile(path, append([]byte(oldMagic), data[len(ckptMagic):]...), 0o644); err != nil {
		t.Fatal(err)
	}
	before := dirListing(t, dir)

	err = NewStore().EnableDurability(DurabilityOptions{Dir: dir})
	if !errors.Is(err, ErrFormat) {
		t.Fatalf("open over an old-format checkpoint: err = %v, want ErrFormat", err)
	}
	for _, part := range []string{oldMagic, ckptMagic, ckptName(ck)} {
		if !strings.Contains(err.Error(), part) {
			t.Errorf("error %q does not name %q", err, part)
		}
	}
	if after := dirListing(t, dir); after != before {
		t.Errorf("a refused open changed the directory:\nbefore:\n%safter:\n%s", before, after)
	}

	// A file too damaged to carry any magic is still skipped, as before.
	if err := os.WriteFile(path, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	r := NewStore()
	if err := r.EnableDurability(DurabilityOptions{Dir: dir}); err != nil {
		t.Fatalf("a torn checkpoint must not fail the open: %v", err)
	}
	r.Close()
}

// TestOldWALFormatIsRefusedNotCut: a segment carrying another version's
// magic fails the open with an error that names the file and both formats,
// and nothing in the directory is touched. Cutting it like a damaged frame
// would delete acknowledged commits.
func TestOldWALFormatIsRefusedNotCut(t *testing.T) {
	dir := t.TempDir()
	s := newDurableStore(t, dir, DurabilityOptions{})
	for i := 1; i <= 3; i++ {
		mustCommitInsert(t, s, int64(i), "pre")
	}
	s.Close()

	path := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const oldMagic = "MTWALSG1" // the previous segment format: no DDL in a record
	if err := os.WriteFile(path, append([]byte(oldMagic), data[len(segMagic):]...), 0o644); err != nil {
		t.Fatal(err)
	}
	before := dirListing(t, dir)
	err = NewStore().EnableDurability(DurabilityOptions{Dir: dir})
	if !errors.Is(err, ErrFormat) {
		t.Fatalf("open over an old-format segment: err = %v, want ErrFormat", err)
	}
	for _, part := range []string{oldMagic, segMagic, segName(1)} {
		if !strings.Contains(err.Error(), part) {
			t.Errorf("error %q does not name %q", err, part)
		}
	}
	if after := dirListing(t, dir); after != before {
		t.Errorf("a refused open changed the directory:\nbefore:\n%safter:\n%s", before, after)
	}
}

// TestCleanRestartsKeepTheLogDense: a clean shutdown leaves a checkpoint at
// the very end of the log. The restart after it must hand out the
// checkpoint's own LSN next, not the one after — a skipped LSN is a hole in
// the retained records, which ReadFrom and Truncate index densely: the second
// such restart used to panic in Truncate (slice bounds out of range) as soon
// as the log reader ran, and a reader positioned past the hole missed records.
func TestCleanRestartsKeepTheLogDense(t *testing.T) {
	dir := t.TempDir()
	var want []string
	next := LSN(1)
	for boot := 0; boot < 4; boot++ {
		s := newDurableStore(t, dir, DurabilityOptions{})
		if err := s.Recover(nil); err != nil {
			t.Fatalf("boot %d: recover: %v", boot, err)
		}
		if got := sortedRows(t, s); !equalStrings(got, want) {
			t.Fatalf("boot %d: recovered %v, want %v", boot, got, want)
		}
		if lsn := mustCommitInsert(t, s, int64(boot), "v"); lsn != next {
			t.Fatalf("boot %d: commit got LSN %d, want %d (LSNs are dense across clean restarts)", boot, lsn, next)
		}
		next++
		want = append(want, fmt.Sprintf("%d|v", boot))
		w := s.WAL()
		for lsn := w.First(); lsn < w.End(); lsn++ {
			if recs := w.ReadFrom(lsn, 1); len(recs) != 1 || recs[0].LSN != lsn {
				t.Fatalf("boot %d: ReadFrom(%d) = %+v", boot, lsn, recs)
			}
		}
		if _, err := s.Checkpoint(); err != nil { // the clean-shutdown checkpoint
			t.Fatal(err)
		}
		w.Truncate(w.End()) // what the log reader does once every subscriber caught up
		s.Close()
	}
}

// TestEmptySegmentIsNotRotated: with segments as small as one flush, a
// flush with nothing to write (a checkpoint's) starts no segment under the
// current one's name, so a truncation below a record keeps that record's
// file and a restart recovers it.
func TestEmptySegmentIsNotRotated(t *testing.T) {
	dir := t.TempDir()
	s := newDurableStore(t, dir, DurabilityOptions{SegmentBytes: 1})
	mustCommitInsert(t, s, 1, "a")
	ck, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustCommitInsert(t, s, 2, "b")
	s.WAL().Truncate(ck)
	s.Close()

	r := newDurableStore(t, dir, DurabilityOptions{SegmentBytes: 1})
	defer r.Close()
	if err := r.Recover(nil); err != nil {
		t.Fatal(err)
	}
	if got := sortedRows(t, r); !equalStrings(got, []string{"1|a", "2|b"}) {
		t.Fatalf("recovered %v, want both acknowledged rows", got)
	}
}

// dirListing is every file in dir with its size, one per line.
func dirListing(t *testing.T, dir string) string {
	t.Helper()
	var b strings.Builder
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		info, _ := e.Info()
		fmt.Fprintf(&b, "%s %d\n", e.Name(), info.Size())
	}
	return b.String()
}

// TestReadableCheckpointIsNeverSkipped: a checkpoint whose magic is this
// build's and whose frame verifies, but whose payload does not decode, is not
// a torn file. Behind it the WAL was truncated, so falling back to no image
// would replay the tail onto empty heaps and lose every row the image held.
// Recovery fails instead, naming the file, and the directory is untouched.
func TestReadableCheckpointIsNeverSkipped(t *testing.T) {
	dir := t.TempDir()
	opts := DurabilityOptions{SegmentBytes: 256}
	s := newDurableStore(t, dir, opts)
	for i := 1; i <= 20; i++ {
		mustCommitInsert(t, s, int64(i), "pre")
	}
	ck, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	w := s.WAL()
	w.Truncate(w.End()) // as TestCleanRestartsKeepTheLogDense: every subscriber caught up
	s.Close()
	if segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg")); len(segs) < 1 || w.First() <= 1 {
		t.Fatalf("the log was not truncated behind the checkpoint (first LSN %d, %d segments)", w.First(), len(segs))
	}

	path := filepath.Join(dir, ckptName(ck))
	garbage := []byte("\xff\xff\xff\xff not an image")
	if err := os.WriteFile(path, appendFrame([]byte(ckptMagic), garbage), 0o644); err != nil {
		t.Fatal(err)
	}
	before := dirListing(t, dir)
	skipped := metrics.Default.Counter("storage.ckpt_crc_errors")
	skipped0 := skipped.Value()

	r := NewStore()
	err = r.EnableDurability(DurabilityOptions{Dir: dir, SegmentBytes: 256})
	if err == nil {
		if err = r.CreateTable(durTestMeta("t")); err != nil {
			t.Fatal(err)
		}
		if err = r.Recover(nil); err == nil {
			t.Fatalf("recovered with the image skipped: %d rows (want 20) and %d txns replayed", len(sortedRows(t, r)), r.Recovered().ReplayedTxns)
		}
		r.Close()
	}
	if !strings.Contains(err.Error(), ckptName(ck)) {
		t.Errorf("error %q does not name %s", err, ckptName(ck))
	}
	if skipped.Value() != skipped0 {
		t.Error("an undecodable image was counted as a damaged one")
	}
	if after := dirListing(t, dir); after != before {
		t.Errorf("a refused recovery changed the directory:\nbefore:\n%safter:\n%s", before, after)
	}
}

// TestImageErrorsNameTheMagic: a wrong magic is reported as a wrong magic,
// with the bytes found, not as a frame CRC mismatch.
func TestImageErrorsNameTheMagic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.ckpt")
	if err := WriteImage(OSFS(), dir, "state.ckpt", &Image{LSN: 7, Sets: []RowSet{{Name: "v", Rows: exactValueRows()}}}); err != nil {
		t.Fatal(err)
	}
	img, err := ReadImage(OSFS(), path)
	if err != nil || img.LSN != 7 || len(img.Sets) != 1 || len(img.Sets[0].Rows) != len(exactValueRows()) {
		t.Fatalf("read back %+v, %v", img, err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for magic, file := range map[string][]byte{
		"MTCCKPT3": append([]byte("MTCCKPT3"), data[len(ckptMagic):]...), // the previous cache state file magic
		"XXXXXXXX": append([]byte("XXXXXXXX"), data[len(ckptMagic):]...),
		"MT":       []byte("MT"),
	} {
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := ReadImage(OSFS(), path)
		if !errors.Is(err, errDamagedImage) || !strings.Contains(err.Error(), fmt.Sprintf("%q", magic)) ||
			!strings.Contains(err.Error(), "state.ckpt") || strings.Contains(err.Error(), "CRC") {
			t.Errorf("magic %q: %v", magic, err)
		}
	}
}
