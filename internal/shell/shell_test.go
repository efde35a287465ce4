package shell

import (
	"strings"
	"testing"
	"time"

	"mtcache/internal/engine"
	"mtcache/internal/metrics"
	"mtcache/internal/trace"
)

func newShellDB(t *testing.T) *engine.Database {
	t.Helper()
	db := engine.New(engine.Config{Name: "shelltest", Role: engine.Backend})
	if err := db.ExecScript(`CREATE TABLE item (i_id INT PRIMARY KEY, i_title VARCHAR);
		INSERT INTO item (i_id, i_title) VALUES (1, 'a');
		INSERT INTO item (i_id, i_title) VALUES (2, 'b')`); err != nil {
		t.Fatal(err)
	}
	return db
}

func run(t *testing.T, db *engine.Database, input string) string {
	t.Helper()
	var out strings.Builder
	Run(Config{
		Name:    "shelltest",
		Exec:    func(q string) (*engine.Result, error) { return db.Exec(q, nil) },
		Explain: db.Explain,
		Trace:   db.LastTrace,
		In:      strings.NewReader(input),
		Out:     &out,
	})
	return out.String()
}

func TestShellSQLAndTop(t *testing.T) {
	db := newShellDB(t)
	got := run(t, db, "SELECT i_title FROM item WHERE i_id = 1\n\\top 5\n\\quit\n")
	if !strings.Contains(got, "a") {
		t.Fatalf("SELECT result missing:\n%s", got)
	}
	if !strings.Contains(got, "shape | executions") {
		t.Fatalf("\\top header missing:\n%s", got)
	}
	if !strings.Contains(got, "i_title") {
		t.Fatalf("\\top should list the recorded shape:\n%s", got)
	}
}

func TestShellEventsAndSlow(t *testing.T) {
	db := newShellDB(t)
	metrics.Default.Event("storage.gc_runs", "versions", "7")
	db.SetSlowThreshold(time.Nanosecond)
	got := run(t, db,
		"SELECT COUNT(*) FROM item\nSELECT COUNT(*) FROM item\n\\events\n\\slow\n\\quit\n")
	if !strings.Contains(got, "storage.gc_runs") || !strings.Contains(got, "versions=7") {
		t.Fatalf("\\events missing the emitted event:\n%s", got)
	}
	if !strings.Contains(got, "rows=") {
		t.Fatalf("\\slow missing the EXPLAIN ANALYZE capture:\n%s", got)
	}
}

func TestShellUnavailableHooks(t *testing.T) {
	db := newShellDB(t)
	got := run(t, db, "\\pull\n\\checkpoint\n\\quit\n")
	if !strings.Contains(got, "\\pull is not available") ||
		!strings.Contains(got, "\\checkpoint is not available") {
		t.Fatalf("nil hooks should print a clear message:\n%s", got)
	}
}

// TestShellTraceShowsItsServersLastStatement: \trace renders the last record
// of the shell's own server, read through the Trace hook, even when another
// server in the process ran a statement after it. Without the hook the
// command says so.
func TestShellTraceShowsItsServersLastStatement(t *testing.T) {
	db, other := newShellDB(t), engine.New(engine.Config{Name: "other", Role: engine.Backend})
	var out strings.Builder
	cfg := Config{
		Name: "shelltest",
		Exec: func(q string) (*engine.Result, error) {
			res, err := db.Exec(q, nil)
			if _, err := other.Exec("SELECT 1", nil); err != nil {
				t.Fatal(err)
			}
			return res, err
		},
		Trace: db.LastTrace,
		In:    strings.NewReader("SELECT i_title FROM item WHERE i_id = 2\n\\trace\n\\quit\n"),
		Out:   &out,
	}
	Run(cfg)
	last := db.Traces().Last()
	if got := out.String(); last == nil || !strings.Contains(got, "trace "+trace.FormatID(last.ID)) ||
		!strings.Contains(got, "shelltest.exec") || !strings.Contains(got, "i_id = 2") || strings.Contains(got, "other.exec") {
		t.Fatalf("\\trace does not show the server's last statement:\n%s", got)
	}
	out.Reset()
	cfg.Trace, cfg.In = nil, strings.NewReader("\\trace\n\\quit\n")
	Run(cfg)
	if !strings.Contains(out.String(), "\\trace is not available") {
		t.Fatalf("a nil Trace hook should print a clear message:\n%s", out.String())
	}
}

// TestShellTraceStitchesTheBackendsHalf: on a cache, \trace after a
// statement the backend answered shows the backend's record of the round
// trip under the cache's remote span, read back from the backend's
// sys.traces by the statement's trace ID.
func TestShellTraceStitchesTheBackendsHalf(t *testing.T) {
	backend := newShellDB(t)
	cache := engine.New(engine.Config{Name: "cache1", Role: engine.Cache, Remote: engine.NewLink(backend)})
	if _, err := cache.Exec("CREATE TABLE item (i_id INT PRIMARY KEY, i_title VARCHAR)", nil); err != nil {
		t.Fatal(err)
	}
	got := run(t, cache, "SELECT i_title FROM item WHERE i_id = 2\n\\trace\n\\quit\n")
	for _, want := range []string{"\n  execute", "\n    remote", "\n      shelltest.exec", "\n        execute"} {
		if !strings.Contains(got, want) {
			t.Fatalf("\\trace is missing %q:\n%s", want, got)
		}
	}
}
