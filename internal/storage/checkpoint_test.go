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
	s := newDurableStore(t, dir, DurabilityOptions{Policy: SyncGroup})
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

	r := newDurableStore(t, dir, DurabilityOptions{Policy: SyncGroup})
	defer r.Close()
	if err := r.CreateTable(exactValueMeta()); err != nil {
		t.Fatal(err)
	}
	stats, err := r.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if stats.ReplayedTxns != 0 || stats.CheckpointRows != len(want) {
		t.Fatalf("recovered %d rows from the image and replayed %d txns; want %d and 0 (the image alone must carry the rows)",
			stats.CheckpointRows, stats.ReplayedTxns, len(want))
	}
	rtx := r.Begin(false)
	defer rtx.Abort()
	tv := rtx.Table("vals")
	for _, w := range want {
		rid := tv.PKLookup(w[:1])
		if rid < 0 {
			t.Fatalf("row %v missing after recovery", w[0])
		}
		got := tv.Get(rid)
		for i := range w {
			if got[i] != w[i] { // struct equality: bits and (seconds, nanoseconds)
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
	s := newDurableStore(t, dir, DurabilityOptions{Policy: SyncGroup})
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
	const oldMagic = "MTCKPT01"
	if err := os.WriteFile(path, append([]byte(oldMagic), data[len(ckptMagic):]...), 0o644); err != nil {
		t.Fatal(err)
	}
	listing := func() string {
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
	before := listing()

	err = NewStore().EnableDurability(DurabilityOptions{Dir: dir, Policy: SyncGroup})
	if !errors.Is(err, ErrCheckpointFormat) {
		t.Fatalf("open over an old-format checkpoint: err = %v, want ErrCheckpointFormat", err)
	}
	for _, part := range []string{oldMagic, ckptMagic, ckptName(ck)} {
		if !strings.Contains(err.Error(), part) {
			t.Errorf("error %q does not name %q", err, part)
		}
	}
	if after := listing(); after != before {
		t.Errorf("a refused open changed the directory:\nbefore:\n%safter:\n%s", before, after)
	}

	// A file too damaged to carry any magic is still skipped, as before.
	if err := os.WriteFile(path, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	r := NewStore()
	if err := r.EnableDurability(DurabilityOptions{Dir: dir, Policy: SyncGroup}); err != nil {
		t.Fatalf("a torn checkpoint must not fail the open: %v", err)
	}
	r.Close()
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
		s := newDurableStore(t, dir, DurabilityOptions{Policy: SyncGroup})
		if _, err := s.Recover(); err != nil {
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
