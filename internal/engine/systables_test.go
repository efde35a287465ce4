package engine

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"mtcache/internal/advisor"
	"mtcache/internal/querystore"
	"mtcache/internal/sql"
	"mtcache/internal/types"
)

// resetQueryStore isolates a test from the process-global query store and
// event log.
func resetQueryStore(t *testing.T) {
	t.Helper()
	querystore.Default.Reset()
	querystore.Default.SetEnabled(true)
	querystore.Events.Reset()
	t.Cleanup(func() {
		querystore.Default.Reset()
		querystore.Default.SetSlowThreshold(100 * time.Millisecond)
		querystore.Events.Reset()
	})
}

func TestSysQueryStatsLiveOnBackend(t *testing.T) {
	resetQueryStore(t)
	db := newBackendDB(t)
	querystore.Default.Reset() // drop shapes recorded during data load
	for i := 0; i < 5; i++ {
		if _, err := db.Exec("SELECT i_title FROM item WHERE i_id = @id",
			map[string]types.Value{"id": types.NewInt(int64(i + 1))}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := db.Exec(`SELECT shape, executions, local_execs, remote_execs, p95_ms
		FROM sys.query_stats ORDER BY executions DESC LIMIT 5`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("sys.query_stats is empty after queries ran")
	}
	top := res.Rows[0]
	if !strings.Contains(top[0].Str(), "i_title") {
		t.Fatalf("hot shape = %q, want the point query", top[0].Str())
	}
	if top[1].Int() != 5 {
		t.Fatalf("executions = %d, want 5", top[1].Int())
	}
	if top[2].Int() != 5 || top[3].Int() != 0 {
		t.Fatalf("local/remote = %d/%d, want 5/0 on a backend", top[2].Int(), top[3].Int())
	}
}

func TestSysQueryStatsSplitsLocalRemoteOnCache(t *testing.T) {
	resetQueryStore(t)
	_, cache := newCachePair(t)
	querystore.Default.Reset()
	// This shape has no local data on the cache: it runs remotely, and every
	// literal of it is the same shape.
	const n = 4
	for i := 1; i <= n; i++ {
		if _, err := cache.Exec(fmt.Sprintf("SELECT i_title FROM item WHERE i_id = %d", 17*i), nil); err != nil {
			t.Fatal(err)
		}
	}
	res, err := cache.Exec("SELECT shape, remote_execs, local_execs FROM sys.query_stats", nil)
	if err != nil {
		t.Fatal(err)
	}
	// The forwarded text is re-executed by the backend engine, which records
	// its own (local) shape into the shared store — so the cache's remote
	// executions must appear as one more shape, with remote_execs = n.
	var remote, point int
	for _, row := range res.Rows {
		if !strings.Contains(row[0].Str(), "i_id = @__p0") {
			continue
		}
		point++
		if row[1].Int() == n && row[2].Int() == 0 {
			remote++
		}
	}
	if remote != 1 || point != 2 {
		t.Fatalf("want the point query as two shapes (cache, backend), one of them with remote_execs = %d: %+v", n, res.Rows)
	}
}

func TestSysTablesReadOnly(t *testing.T) {
	resetQueryStore(t)
	backend, cache := newCachePair(t)
	for _, db := range []*Database{backend, cache} {
		for _, stmt := range []string{
			"INSERT INTO sys.query_stats (shape) VALUES ('x')",
			"UPDATE sys.query_stats SET shape = 'x'",
			"DELETE FROM sys.query_stats",
			"DELETE FROM sys.events",
		} {
			_, err := db.Exec(stmt, nil)
			if err == nil {
				t.Fatalf("%s: %q succeeded on a system table", db.Name, stmt)
			}
			if !strings.Contains(err.Error(), "read-only system table") {
				t.Fatalf("%s: %q: unclear error %v", db.Name, stmt, err)
			}
		}
	}
	// A typo'd sys name is rejected too, not forwarded to the backend.
	if _, err := cache.Exec("DELETE FROM sys.nonexistent", nil); err == nil ||
		!strings.Contains(err.Error(), "read-only") {
		t.Fatalf("sys typo not rejected: %v", err)
	}
}

func TestVirtualTablesHiddenFromListings(t *testing.T) {
	resetQueryStore(t)
	db := newBackendDB(t)
	for _, tbl := range db.Catalog().Tables() {
		if tbl.Virtual || strings.HasPrefix(strings.ToLower(tbl.Name), "sys.") {
			t.Fatalf("virtual table %s leaked into Tables()", tbl.Name)
		}
	}
	if len(db.Catalog().VirtualTables()) < 6 {
		t.Fatalf("expected ≥6 registered sys tables, got %d", len(db.Catalog().VirtualTables()))
	}
	// Resolvable by full name, absent under the bare name.
	if db.Catalog().Table("sys.query_stats") == nil {
		t.Fatal("sys.query_stats not resolvable by full name")
	}
	if db.Catalog().Table("query_stats") != nil {
		t.Fatal("bare name query_stats resolves; listing-hiding is broken")
	}
}

func TestVirtualTablesInvisibleToAdvisor(t *testing.T) {
	resetQueryStore(t)
	db := newBackendDB(t)
	advice, err := advisor.Analyze(db.Catalog(), []advisor.WorkloadItem{
		{SQL: "SELECT i_title FROM item WHERE i_id = 5", Weight: 100},
		{SQL: "SELECT shape, total_ms FROM sys.query_stats ORDER BY total_ms DESC LIMIT 10", Weight: 100},
		{SQL: "SELECT seq, kind FROM sys.events", Weight: 50},
	}, advisor.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range advice.Views {
		low := strings.ToLower(v.Table)
		if strings.HasPrefix(low, "sys.") || low == "query_stats" || low == "events" {
			t.Fatalf("advisor recommended caching a system table: %+v", v)
		}
	}
}

func TestVirtualTablesInvisibleToViewMatching(t *testing.T) {
	resetQueryStore(t)
	db := newBackendDB(t)
	// A materialized view over item must still be matched; sys tables must
	// never appear as UsedViews nor break matching.
	if err := db.ExecScript(`CREATE MATERIALIZED VIEW cheap_items AS
		SELECT i_id, i_title FROM item WHERE i_id <= 50`); err != nil {
		t.Fatal(err)
	}
	plan, err := db.Plan(sql.MustParseSelect("SELECT i_title FROM item WHERE i_id = 7"))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range plan.UsedViews {
		if strings.HasPrefix(strings.ToLower(v), "sys.") {
			t.Fatalf("plan used a system table as a view: %v", plan.UsedViews)
		}
	}
	// And a sys query itself plans as a plain local VirtualScan.
	text, err := db.Explain("SELECT shape FROM sys.query_stats")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "VirtualScan sys.query_stats") {
		t.Fatalf("sys query did not plan a VirtualScan:\n%s", text)
	}
}

func TestSysEventsAndSlowCapture(t *testing.T) {
	resetQueryStore(t)
	db := newBackendDB(t)
	querystore.Default.Reset()
	querystore.Emit("test_event", "detail", "abc")
	res, err := db.Exec("SELECT seq, kind, detail FROM sys.events ORDER BY seq DESC LIMIT 1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][1].Str() != "test_event" {
		t.Fatalf("sys.events = %+v", res.Rows)
	}
	if res.Rows[0][2].Str() != "detail=abc" {
		t.Fatalf("detail = %q", res.Rows[0][2].Str())
	}

	// Everything is "slow" at a zero-ish threshold: the second run of the
	// shape executes instrumented and retains its EXPLAIN ANALYZE tree.
	querystore.Default.SetSlowThreshold(time.Nanosecond)
	q := "SELECT COUNT(*) FROM item"
	if _, err := db.Exec(q, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(q, nil); err != nil {
		t.Fatal(err)
	}
	pres, err := db.Exec("SELECT shape, analyzed FROM sys.query_plans WHERE analyzed <> ''", nil)
	if err != nil {
		t.Fatal(err)
	}
	var captured string
	for _, row := range pres.Rows {
		if strings.Contains(row[0].Str(), "COUNT") {
			captured = row[1].Str()
		}
	}
	if !strings.Contains(captured, "rows=") {
		t.Fatalf("no EXPLAIN ANALYZE capture for the slow shape: %q", captured)
	}
}

func TestSysTablesStableUnderConcurrentTraffic(t *testing.T) {
	resetQueryStore(t)
	db := newBackendDB(t)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				if _, err := db.Exec("SELECT i_title FROM item WHERE i_id = @id",
					map[string]types.Value{"id": types.NewInt(int64(i%200 + 1))}); err != nil {
					errs <- err
					return
				}
				if _, err := db.Exec("SELECT shape, executions FROM sys.query_stats ORDER BY total_ms DESC LIMIT 5", nil); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestQueryStoreDisableSwitch(t *testing.T) {
	resetQueryStore(t)
	db := newBackendDB(t)
	querystore.Default.Reset()
	querystore.Default.SetEnabled(false)
	if _, err := db.Exec("SELECT COUNT(*) FROM item", nil); err != nil {
		t.Fatal(err)
	}
	if n := querystore.Default.Len(); n != 0 {
		t.Fatalf("disabled store recorded %d shapes", n)
	}
	querystore.Default.SetEnabled(true)
	// sys tables still answer while disabled-then-reenabled.
	res, err := db.Exec("SELECT shape FROM sys.query_stats", nil)
	if err != nil {
		t.Fatal(err)
	}
	// The sys query itself is now the only recorded shape (recorded after
	// its own execution completes, so the result set above may be empty).
	_ = res
	if _, err := db.Exec("SELECT COUNT(*) FROM item", nil); err != nil {
		t.Fatal(err)
	}
	if querystore.Default.Len() == 0 {
		t.Fatal("re-enabled store did not record")
	}
}

func TestSysWalStatsAndCachedViews(t *testing.T) {
	resetQueryStore(t)
	db := newBackendDB(t)
	res, err := db.Exec("SELECT name, value FROM sys.wal_stats ORDER BY name", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if !strings.HasPrefix(row[0].Str(), "storage.") {
			t.Fatalf("non-storage instrument in sys.wal_stats: %q", row[0].Str())
		}
	}
	// Backend has no cached views; the table answers (empty), not errors.
	if _, err := db.Exec("SELECT name, rows, hits, staleness_seconds FROM sys.cached_views", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("SELECT name, staleness_seconds FROM sys.repl_status", nil); err != nil {
		t.Fatal(err)
	}
}
