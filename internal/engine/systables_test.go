package engine

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"mtcache/internal/advisor"
	"mtcache/internal/metrics"
	"mtcache/internal/sql"
	"mtcache/internal/types"
)

func TestSysQueryStatsLiveOnBackend(t *testing.T) {
	db := newBackendDB(t)
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
	backend, cache := newCachePair(t)
	// This shape has no local data on the cache: it runs remotely, and every
	// literal of it is the same shape.
	const n = 4
	for i := 1; i <= n; i++ {
		if _, err := cache.Exec(fmt.Sprintf("SELECT i_title FROM item WHERE i_id = %d", 17*i), nil); err != nil {
			t.Fatal(err)
		}
	}
	// Each server lists its own executions: the cache ran the shape remotely
	// n times, and the backend ran the forwarded text locally n times.
	for _, c := range []struct {
		db            *Database
		remote, local int64
	}{{cache, n, 0}, {backend, 0, n}} {
		res, err := c.db.Exec("SELECT shape, remote_execs, local_execs FROM sys.query_stats", nil)
		if err != nil {
			t.Fatal(err)
		}
		var point []types.Row
		for _, row := range res.Rows {
			if strings.Contains(row[0].Str(), "i_id = @__p0") {
				point = append(point, row)
			}
		}
		if len(point) != 1 || point[0][1].Int() != c.remote || point[0][2].Int() != c.local {
			t.Fatalf("%s: want the point query as one shape with remote_execs = %d, local_execs = %d: %+v",
				c.db.Name, c.remote, c.local, res.Rows)
		}
	}
}

func TestSysTablesReadOnly(t *testing.T) {
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
	db := newBackendDB(t)
	for _, tbl := range db.Catalog().Tables() {
		if tbl.Virtual || strings.HasPrefix(strings.ToLower(tbl.Name), "sys.") {
			t.Fatalf("virtual table %s leaked into Tables()", tbl.Name)
		}
	}
	// Resolvable by full name, absent under the bare name.
	for _, name := range []string{"sys.query_stats", "sys.query_plans", "sys.events", "sys.wal_stats",
		"sys.cached_views", "sys.repl_status", "sys.traces", "sys.intermediate_results"} {
		if tbl := db.Catalog().Table(name); tbl == nil || !tbl.Virtual {
			t.Fatalf("%s not resolvable by full name as a virtual table", name)
		}
	}
	if db.Catalog().Table("query_stats") != nil {
		t.Fatal("bare name query_stats resolves; listing-hiding is broken")
	}
}

func TestVirtualTablesInvisibleToAdvisor(t *testing.T) {
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
	db := newBackendDB(t)
	metrics.Default.Event("storage.gc_runs", "versions", "7")
	res, err := db.Exec("SELECT seq, kind, detail FROM sys.events ORDER BY seq DESC LIMIT 1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][1].Str() != "storage.gc_runs" {
		t.Fatalf("sys.events = %+v", res.Rows)
	}
	if res.Rows[0][2].Str() != "versions=7" {
		t.Fatalf("detail = %q", res.Rows[0][2].Str())
	}

	// Everything is "slow" at a zero-ish threshold: the second run of the
	// shape executes instrumented and retains its EXPLAIN ANALYZE tree.
	db.SetSlowThreshold(time.Nanosecond)
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

func TestSysWalStatsAndCachedViews(t *testing.T) {
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
