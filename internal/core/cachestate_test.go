package core

import (
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"mtcache/internal/engine"
	"mtcache/internal/metrics"
	"mtcache/internal/types"
)

const eventsDDL = `CREATE TABLE events (id INT PRIMARY KEY, f FLOAT, ts DATETIME, s VARCHAR(20));`
const eventsView = `CREATE CACHED VIEW ev AS SELECT id, f, ts, s FROM events`

// exactEventRows are rows only a carrier that encodes a types.Value as its
// codec bytes keeps intact: gob by reflection cannot see the payload word or
// the nanoseconds.
func exactEventRows() []types.Row {
	return []types.Row{
		{types.NewInt(1), types.NewFloat(math.Float64frombits(0x7ff8_0000_dead_beef)), types.NewTime(time.Date(2024, 2, 29, 23, 59, 59, 123_000_000, time.UTC)), types.NewString("")},
		{types.NewInt(2), types.NewFloat(math.Copysign(0, -1)), types.NewTime(time.Date(1, 1, 1, 0, 0, 0, 7, time.UTC)), types.Null},
		{types.NewInt(3), types.NewFloat(0.1), types.NewTime(time.Date(9999, 12, 31, 23, 59, 59, 999_999_999, time.UTC)), types.NewString("it's")},
		{types.NewInt(4), types.Null, types.NewTime(time.Date(1969, 12, 31, 23, 59, 59, 500_000_000, time.UTC)), types.NewString("x")},
	}
}

func newEventsBackend(t *testing.T) *BackendServer {
	t.Helper()
	b := NewBackend("backend")
	if err := b.ExecScript(eventsDDL); err != nil {
		t.Fatal(err)
	}
	insertEvents(t, b, exactEventRows()...)
	return b
}

// insertEvents commits rows through the storage layer: SQL text has no
// literal for a NaN payload or a year-1 DATETIME.
func insertEvents(t *testing.T, b *BackendServer, rows ...types.Row) {
	t.Helper()
	tx := b.DB.Store().Begin(true)
	for _, row := range rows {
		if _, err := tx.Insert("events", row); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func durableEventsCache(t *testing.T, b *BackendServer, dir string) *CacheServer {
	t.Helper()
	c, err := NewCacheOver("cache", link{engine.NewLink(b.DB), b}, nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CreateCachedView(eventsView); err != nil {
		t.Fatal(err)
	}
	return c
}

func tableRowsByID(t *testing.T, db *engine.Database, table string) []types.Row {
	t.Helper()
	tx := db.Store().Begin(false)
	defer tx.Abort()
	tv := tx.Table(table)
	if tv == nil {
		t.Fatalf("table %s missing", table)
	}
	rows := tv.Rows()
	sort.Slice(rows, func(i, j int) bool { return rows[i][0].Int() < rows[j][0].Int() })
	return rows
}

func requireSameRows(t *testing.T, what string, got, want []types.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] { // struct equality: bits and (seconds, nanoseconds)
				t.Errorf("%s: row %v col %d is %#v, want %#v", what, want[i][0], j, got[i][j], want[i][j])
			}
		}
	}
}

// TestCacheStateCarriesValuesExactly: a cache restarted on its state file
// resumes (no reseed) with rows bit-identical to the backend's — NaN payload,
// -0.0, sub-second and out-of-range DATETIMEs, the empty string vs NULL.
func TestCacheStateCarriesValuesExactly(t *testing.T) {
	b := newEventsBackend(t)
	dir := t.TempDir()
	c1 := durableEventsCache(t, b, dir)
	if err := c1.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	resumed := metrics.Default.Counter("wire.view_resumed")
	seeded := metrics.Default.Counter("wire.view_seeded")
	resumed0, seeded0 := resumed.Value(), seeded.Value()
	c2 := durableEventsCache(t, b, dir)
	if resumed.Value() != resumed0+1 || seeded.Value() != seeded0 {
		t.Fatalf("restart resumed %d and seeded %d views, want 1 and 0: the rows below must come from the state file",
			resumed.Value()-resumed0, seeded.Value()-seeded0)
	}
	requireSameRows(t, "resumed view", tableRowsByID(t, c2.DB, "ev"), tableRowsByID(t, b.DB, "events"))
}

// TestOldCacheStateFormatReseeds: a state file with the previous magic is
// treated like a damaged one — counted, ignored, the view reseeded from the
// backend — and the cache then converges through the change stream as usual.
func TestOldCacheStateFormatReseeds(t *testing.T) {
	b := newEventsBackend(t)
	dir := t.TempDir()
	c1 := durableEventsCache(t, b, dir)
	if err := c1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, cacheCkptFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append([]byte("MTCCKPT1"), data[len(cacheCkptMagic):]...), 0o644); err != nil {
		t.Fatal(err)
	}

	ckptErrs := metrics.Default.Counter("wire.cache_ckpt_errors")
	resumed := metrics.Default.Counter("wire.view_resumed")
	seeded := metrics.Default.Counter("wire.view_seeded")
	errs0, resumed0, seeded0 := ckptErrs.Value(), resumed.Value(), seeded.Value()
	c2 := durableEventsCache(t, b, dir)
	if ckptErrs.Value() != errs0+1 || seeded.Value() != seeded0+1 || resumed.Value() != resumed0 {
		t.Fatalf("old-format state file: errors +%d, seeded +%d, resumed +%d; want 1, 1, 0",
			ckptErrs.Value()-errs0, seeded.Value()-seeded0, resumed.Value()-resumed0)
	}

	insertEvents(t, b, types.Row{types.NewInt(5), types.NewFloat(2.5), types.NewTime(time.Unix(1, 1)), types.NewString("later")})
	b.Repl.RunLogReader()
	if _, err := c2.Pull(); err != nil {
		t.Fatal(err)
	}
	requireSameRows(t, "reseeded view", tableRowsByID(t, c2.DB, "ev"), tableRowsByID(t, b.DB, "events"))

	// The next checkpoint replaces the old file with one this build reads.
	if err := c2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if ck, err := loadCacheCheckpoint(dir); err != nil || ck == nil || len(ck.Views) != 1 || len(ck.Views[0].Rows) != 5 {
		t.Fatalf("state file after the reseeded cache checkpointed: %+v, %v", ck, err)
	}
}
