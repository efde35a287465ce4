package core

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"mtcache/internal/engine"
	"mtcache/internal/exec"
	"mtcache/internal/metrics"
	"mtcache/internal/repl"
	"mtcache/internal/storage"
	"mtcache/internal/trace"
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
	tv, ok := tx.Table(table)
	if !ok {
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
			if !types.Identical(got[i][j], want[i][j]) { // bits, (seconds, nanoseconds) and bytes
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
// treated like a damaged one — counted, recorded with the magic it found,
// ignored, the view reseeded from the backend — and the cache then converges
// through the change stream as usual.
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
	const oldMagic = "MTCCKPT3" // the previous state file format: its own magic, a gob payload
	if err := os.WriteFile(path, append([]byte(oldMagic), data[len(oldMagic):]...), 0o644); err != nil {
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
	if ev := lastEvent("wire.cache_ckpt_errors"); !strings.Contains(ev, oldMagic) || !strings.Contains(ev, cacheCkptFile) {
		t.Errorf("recorded error %q does not name the file and the magic %s it found", ev, oldMagic)
	}

	insertEvents(t, b, types.Row{types.NewInt(5), types.NewFloat(2.5), types.NewTime(time.Unix(1, 1)), types.NewString("later")})
	if _, err := c2.Pull(); err != nil {
		t.Fatal(err)
	}
	requireSameRows(t, "reseeded view", tableRowsByID(t, c2.DB, "ev"), tableRowsByID(t, b.DB, "events"))

	// The next checkpoint replaces the old file with one this build reads.
	if err := c2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if ck, err := loadCacheCheckpoint(dir); err != nil || ck == nil || len(ck.Sets) != 1 || len(ck.Sets[0].Rows) != 5 {
		t.Fatalf("state file after the reseeded cache checkpointed: %+v, %v", ck, err)
	}
}

// lastEvent renders the newest event of kind on the process-wide registry
// ("" when there is none).
func lastEvent(kind string) string {
	for _, e := range metrics.Default.Events(0) {
		if e.Kind == kind {
			return e.Detail()
		}
	}
	return ""
}

// counting is a BackendClient that counts the requests its cache makes.
type counting struct {
	BackendClient
	requests int
}

func (c *counting) Query(text string, params exec.Params) (*exec.ResultSet, error) {
	c.requests++
	return c.BackendClient.Query(text, params)
}

func (c *counting) QueryTraced(text string, params exec.Params, traceID string) (*exec.ResultSet, *trace.WireSpan, error) {
	c.requests++
	return c.BackendClient.QueryTraced(text, params, traceID)
}

func (c *counting) Snapshot() ([]byte, error) {
	c.requests++
	return c.BackendClient.Snapshot()
}

func (c *counting) Provision(table string, columns []string, filter, subName, target string, id uint64, from storage.LSN) (repl.Attachment, error) {
	c.requests++
	return c.BackendClient.Provision(table, columns, filter, subName, target, id, from)
}

func (c *counting) Pull(subID, max int, ack storage.LSN) ([]repl.TxnBatch, storage.LSN, error) {
	c.requests++
	return c.BackendClient.Pull(subID, max, ack)
}

// failAfterProvision is a BackendClient whose pulls fail once a Provision is
// made after armed is set: the pull that follows a re-attach fails.
type failAfterProvision struct {
	BackendClient
	armed, provisioned bool
}

func (c *failAfterProvision) Provision(table string, columns []string, filter, subName, target string, id uint64, from storage.LSN) (repl.Attachment, error) {
	c.provisioned = c.provisioned || c.armed
	return c.BackendClient.Provision(table, columns, filter, subName, target, id, from)
}

func (c *failAfterProvision) Pull(subID, max int, ack storage.LSN) ([]repl.TxnBatch, storage.LSN, error) {
	if c.provisioned {
		return nil, 0, errors.New("backend unreachable")
	}
	return c.BackendClient.Pull(subID, max, ack)
}

// TestResumedReattachKeepsItsStaleness: a re-attach that resumes every view
// fetches no rows, so the views are only as current as the last round that
// applied everything. The cache's staleness must not drop until a pull
// applies the stream — not even when the pull after the re-attach fails,
// which would let bounded reads be served from views missing a commit. Here a
// durable backend's replication runtime starts over, forgetting the
// subscription, and commits a row the cache has not seen.
func TestResumedReattachKeepsItsStaleness(t *testing.T) {
	b, err := NewBackendDurable("backend", storage.DurabilityOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.DB.CloseStore() }) //nolint:errcheck
	if err := b.ExecScript(eventsDDL); err != nil {
		t.Fatal(err)
	}
	insertEvents(t, b, exactEventRows()...)
	client := &failAfterProvision{BackendClient: link{engine.NewLink(b.DB), b}}
	c, err := NewCacheOver("cache", client, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, view := range []string{eventsView, `CREATE CACHED VIEW ev_late AS SELECT id, s FROM events WHERE id > 2`} {
		if err := c.CreateCachedView(view); err != nil {
			t.Fatal(err)
		}
	}
	for range 2 { // apply, then acknowledge
		if _, err := c.Pull(); err != nil {
			t.Fatal(err)
		}
	}
	asOf := c.sub.Status().CurrentAsOf

	b.Repl = repl.NewServer(b.DB)
	insertEvents(t, b, types.Row{types.NewInt(5), types.NewFloat(2.5), types.NewTime(time.Unix(1, 1)), types.NewString("later")})
	resumed := metrics.Default.Counter("wire.view_resumed")
	resumed0 := resumed.Value()
	client.armed = true
	if _, err := c.Pull(); err == nil {
		t.Fatal("the pull after the re-attach succeeded through a client that fails it")
	}
	if n := resumed.Value() - resumed0; n != 2 {
		t.Fatalf("the re-attach resumed %d views, want both", n)
	}
	since := time.Since(asOf)
	if lag, ok := c.Staleness(); !ok || lag < since {
		t.Fatalf("after a re-attach that applied nothing the cache reports staleness %v (known %v); its last round was %v ago", lag, ok, since)
	}

	client.armed, client.provisioned = false, false
	if _, err := c.Pull(); err != nil {
		t.Fatal(err)
	}
	if got := c.sub.Status().CurrentAsOf; !got.After(asOf) {
		t.Fatalf("a round that applied the stream left the views current as of %v, as before it", got)
	}
	requireSameRows(t, "view after the round", tableRowsByID(t, c.DB, "ev"), tableRowsByID(t, b.DB, "events"))
}

// TestRestartPastTheLogReseedsInOneRequest: a cache restarted on a state
// file whose position the backend's log no longer holds reseeds each of its
// views with one backend request, the same one that asks to resume it.
func TestRestartPastTheLogReseedsInOneRequest(t *testing.T) {
	views := []string{eventsView, `CREATE CACHED VIEW ev_late AS SELECT id, s FROM events WHERE id > 2`}
	b := newEventsBackend(t)
	dir := t.TempDir()
	c1 := durableEventsCache(t, b, dir)
	if err := c1.CreateCachedView(views[1]); err != nil {
		t.Fatal(err)
	}
	if err := c1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	insertEvents(t, b, types.Row{types.NewInt(5), types.NewFloat(2.5), types.NewTime(time.Unix(1, 1)), types.NewString("later")})
	for range 2 { // apply, then acknowledge
		if _, err := c1.Pull(); err != nil {
			t.Fatal(err)
		}
	}
	b.Repl.TruncateLog()

	client := &counting{BackendClient: link{engine.NewLink(b.DB), b}}
	c2, err := NewCacheOver("cache", client, nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	resumed := metrics.Default.Counter("wire.view_resumed")
	seeded := metrics.Default.Counter("wire.view_seeded")
	resumed0, seeded0, requests0 := resumed.Value(), seeded.Value(), client.requests
	for _, view := range views {
		if err := c2.CreateCachedView(view); err != nil {
			t.Fatal(err)
		}
	}
	if n := client.requests - requests0; n != len(views) || seeded.Value() != seeded0+2 || resumed.Value() != resumed0 {
		t.Fatalf("restart past the log: %d backend requests, %d views seeded and %d resumed; want %d, 2 and 0",
			n, seeded.Value()-seeded0, resumed.Value()-resumed0, len(views))
	}
	requireSameRows(t, "reseeded view", tableRowsByID(t, c2.DB, "ev"), tableRowsByID(t, b.DB, "events"))
	if got := tableRowsByID(t, c2.DB, "ev_late"); len(got) != 3 {
		t.Fatalf("reseeded ev_late holds %d rows, want 3", len(got))
	}
}

// TestDroppedViewLeavesTheOthersAdvancing: DROP VIEW of one of a cache's two
// cached views takes it out of the cache's subscription. The next pull
// succeeds and the other view advances: right after the drop, and when the
// backend has forgotten the subscription meanwhile, so that the pull first
// re-attaches the view that is left.
func TestDroppedViewLeavesTheOthersAdvancing(t *testing.T) {
	for _, forget := range []bool{false, true} {
		b := newEventsBackend(t)
		c, err := NewCacheOver("cache", link{engine.NewLink(b.DB), b}, nil, "")
		if err != nil {
			t.Fatal(err)
		}
		for _, view := range []string{eventsView, `CREATE CACHED VIEW ev_late AS SELECT id, s FROM events WHERE id > 2`} {
			if err := c.CreateCachedView(view); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.Exec("DROP VIEW ev_late", nil); err != nil {
			t.Fatal(err)
		}
		if forget {
			b.Repl = repl.NewServer(b.DB)
		}
		for id := int64(5); id <= 6; id++ {
			insertEvents(t, b, types.Row{types.NewInt(id), types.NewFloat(2.5), types.NewTime(time.Unix(1, 1)), types.NewString("later")})
			for range 2 { // apply, then acknowledge
				if _, err := c.Pull(); err != nil {
					t.Fatalf("re-attach %v: the pull after the drop: %v", forget, err)
				}
			}
			requireSameRows(t, "ev after the drop", tableRowsByID(t, c.DB, "ev"), tableRowsByID(t, b.DB, "events"))
		}
		if views := c.sub.Views(); len(views) != 1 || views[0] != "ev" {
			t.Errorf("re-attach %v: the subscriber holds views %v after the drop, want [ev]", forget, views)
		}
		if st := c.sub.Status(); st.ApplyErrors != 0 {
			t.Errorf("re-attach %v: %d rounds failed to apply: %s", forget, st.ApplyErrors, st.LastError)
		}
	}
}
