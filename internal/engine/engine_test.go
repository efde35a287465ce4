package engine

import (
	"fmt"
	"strings"
	"testing"
	"unicode/utf8"

	"mtcache/internal/catalog"
	"mtcache/internal/metrics"
	"mtcache/internal/storage"
	"mtcache/internal/types"
)

func newBackendDB(t *testing.T) *Database {
	t.Helper()
	db := New(Config{Name: "backend", Role: Backend})
	err := db.ExecScript(`
		CREATE TABLE item (
			i_id INT PRIMARY KEY,
			i_title VARCHAR(60) NOT NULL,
			i_cost FLOAT,
			i_stock INT DEFAULT 100
		);
		CREATE INDEX ix_item_title ON item (i_title);
		CREATE TABLE orders (
			o_id INT PRIMARY KEY,
			o_i_id INT,
			o_qty INT
		);
	`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 200; i++ {
		title := "'book" + strings.Repeat("x", i%3) + "'"
		_, err := db.Exec(
			"INSERT INTO item (i_id, i_title, i_cost) VALUES ("+itoa(i)+", "+title+", "+itoa(i)+".5)", nil)
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	return db
}

func itoa(i int) string {
	return string(rune('0'+i/100%10)) + string(rune('0'+i/10%10)) + string(rune('0'+i%10))
}

func TestDDLAndInsertSelect(t *testing.T) {
	db := newBackendDB(t)
	res, err := db.Exec("SELECT COUNT(*) FROM item", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 200 {
		t.Fatalf("count: %v", res.Rows[0][0])
	}
}

func TestInsertDefaultsAndNotNull(t *testing.T) {
	db := newBackendDB(t)
	if _, err := db.Exec("INSERT INTO item (i_id, i_title) VALUES (999, 'x')", nil); err != nil {
		t.Fatal(err)
	}
	res, _ := db.Exec("SELECT i_stock, i_cost FROM item WHERE i_id = 999", nil)
	if res.Rows[0][0].Int() != 100 {
		t.Errorf("default not applied: %v", res.Rows[0])
	}
	if !res.Rows[0][1].IsNull() {
		t.Errorf("missing nullable column should be NULL: %v", res.Rows[0])
	}
	if _, err := db.Exec("INSERT INTO item (i_id) VALUES (1000)", nil); err == nil {
		t.Error("NOT NULL without default should fail")
	}
}

func TestInsertCastsValues(t *testing.T) {
	db := newBackendDB(t)
	// i_cost is FLOAT; give an INT literal. i_id INT; give a string.
	if _, err := db.Exec("INSERT INTO item (i_id, i_title, i_cost) VALUES ('777', 't', 3)", nil); err != nil {
		t.Fatal(err)
	}
	res, _ := db.Exec("SELECT i_cost FROM item WHERE i_id = 777", nil)
	if res.Rows[0][0].K != types.KindFloat || res.Rows[0][0].Float() != 3 {
		t.Errorf("cast on insert: %v", res.Rows[0][0])
	}
}

func TestUpdateByPrimaryKey(t *testing.T) {
	db := newBackendDB(t)
	res, err := db.Exec("UPDATE item SET i_cost = i_cost + 1 WHERE i_id = 5", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 1 {
		t.Fatalf("affected: %d", res.RowsAffected)
	}
	check, _ := db.Exec("SELECT i_cost FROM item WHERE i_id = 5", nil)
	if check.Rows[0][0].Float() != 6.5 {
		t.Errorf("value: %v", check.Rows[0][0])
	}
}

func TestUpdateWithParams(t *testing.T) {
	db := newBackendDB(t)
	res, err := db.Exec("UPDATE item SET i_stock = @s WHERE i_id = @id", map[string]types.Value{
		"s": types.NewInt(42), "id": types.NewInt(7),
	})
	if err != nil || res.RowsAffected != 1 {
		t.Fatalf("update: %v affected=%d", err, res.RowsAffected)
	}
	check, _ := db.Exec("SELECT i_stock FROM item WHERE i_id = 7", nil)
	if check.Rows[0][0].Int() != 42 {
		t.Errorf("value: %v", check.Rows[0][0])
	}
}

func TestDeleteWithPredicate(t *testing.T) {
	db := newBackendDB(t)
	res, err := db.Exec("DELETE FROM item WHERE i_id > 190", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 10 {
		t.Fatalf("deleted: %d", res.RowsAffected)
	}
	check, _ := db.Exec("SELECT COUNT(*) FROM item", nil)
	if check.Rows[0][0].Int() != 190 {
		t.Errorf("remaining: %v", check.Rows[0][0])
	}
}

func TestDMLWritesWAL(t *testing.T) {
	db := newBackendDB(t)
	before := db.Store().WAL().End()
	db.Exec("INSERT INTO orders (o_id, o_i_id, o_qty) VALUES (1, 2, 3)", nil)
	db.Exec("UPDATE orders SET o_qty = 4 WHERE o_id = 1", nil)
	db.Exec("DELETE FROM orders WHERE o_id = 1", nil)
	recs := db.Store().WAL().ReadFrom(before, 0)
	if len(recs) != 3 {
		t.Fatalf("wal records: %d", len(recs))
	}
	if recs[0].Changes[0].Op != storage.OpInsert ||
		recs[1].Changes[0].Op != storage.OpUpdate ||
		recs[2].Changes[0].Op != storage.OpDelete {
		t.Error("op sequence wrong")
	}
}

func TestMaterializedViewMaintenance(t *testing.T) {
	db := newBackendDB(t)
	if err := db.ExecScript(`CREATE MATERIALIZED VIEW cheap AS SELECT i_id, i_title, i_cost FROM item WHERE i_cost <= 50`); err != nil {
		t.Fatal(err)
	}
	res, _ := db.Exec("SELECT COUNT(*) FROM cheap", nil)
	initial := res.Rows[0][0].Int()
	if initial != 50 { // costs 1.5 .. 200.5; <= 50 → ids 1..49? 49.5 for id 49 → 49 rows... compute: cost = id + .5 <= 50 → id <= 49.5 → 49 rows
		if initial != 49 {
			t.Fatalf("initial view rows: %d", initial)
		}
	}

	// Insert into the view's range.
	db.Exec("INSERT INTO item (i_id, i_title, i_cost) VALUES (500, 'new', 10)", nil)
	res, _ = db.Exec("SELECT COUNT(*) FROM cheap", nil)
	if res.Rows[0][0].Int() != initial+1 {
		t.Error("insert not reflected in MV")
	}
	// Update moving a row out of the view.
	db.Exec("UPDATE item SET i_cost = 1000 WHERE i_id = 500", nil)
	res, _ = db.Exec("SELECT COUNT(*) FROM cheap", nil)
	if res.Rows[0][0].Int() != initial {
		t.Error("update-out not reflected in MV")
	}
	// Update moving a row back in, with changed payload.
	db.Exec("UPDATE item SET i_cost = 20, i_title = 'back' WHERE i_id = 500", nil)
	res, _ = db.Exec("SELECT i_title FROM cheap WHERE i_id = 500", nil)
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "back" {
		t.Errorf("update-in not reflected: %v", res.Rows)
	}
	// Delete.
	db.Exec("DELETE FROM item WHERE i_id = 500", nil)
	res, _ = db.Exec("SELECT COUNT(*) FROM cheap WHERE i_id = 500", nil)
	if res.Rows[0][0].Int() != 0 {
		t.Error("delete not reflected in MV")
	}
	// In-place update within the view.
	db.Exec("UPDATE item SET i_title = 'retitled' WHERE i_id = 10", nil)
	res, _ = db.Exec("SELECT i_title FROM cheap WHERE i_id = 10", nil)
	if res.Rows[0][0].Str() != "retitled" {
		t.Error("in-place update not reflected in MV")
	}
}

func TestMVChangesAppearInWALUnderViewName(t *testing.T) {
	db := newBackendDB(t)
	db.ExecScript(`CREATE MATERIALIZED VIEW cheap AS SELECT i_id, i_cost FROM item WHERE i_cost <= 50`)
	before := db.Store().WAL().End()
	db.Exec("INSERT INTO item (i_id, i_title, i_cost) VALUES (600, 'z', 5)", nil)
	recs := db.Store().WAL().ReadFrom(before, 0)
	if len(recs) != 1 {
		t.Fatalf("expected one commit record, got %d", len(recs))
	}
	names := map[string]bool{}
	for _, c := range recs[0].Changes {
		names[c.Table] = true
	}
	if !names["item"] || !names["cheap"] {
		t.Errorf("MV change must be logged in the same transaction: %v", names)
	}
}

func TestStoredProcedureAtomicity(t *testing.T) {
	db := newBackendDB(t)
	err := db.ExecScript(`CREATE PROCEDURE placeOrder @oid INT, @iid INT, @qty INT AS BEGIN
		INSERT INTO orders (o_id, o_i_id, o_qty) VALUES (@oid, @iid, @qty);
		UPDATE item SET i_stock = i_stock - @qty WHERE i_id = @iid;
	END`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("EXEC placeOrder @oid = 1, @iid = 3, @qty = 5", nil); err != nil {
		t.Fatal(err)
	}
	res, _ := db.Exec("SELECT i_stock FROM item WHERE i_id = 3", nil)
	if res.Rows[0][0].Int() != 95 {
		t.Errorf("stock: %v", res.Rows[0][0])
	}
	// The procedure body must commit as ONE transaction.
	recs := db.Store().WAL().ReadFrom(db.Store().WAL().End()-1, 1)
	if len(recs) != 1 || len(recs[0].Changes) != 2 {
		t.Errorf("procedure changes should share a commit record: %+v", recs)
	}
	// Failing procedure rolls back entirely: duplicate o_id.
	if _, err := db.Exec("EXEC placeOrder @oid = 1, @iid = 3, @qty = 5", nil); err == nil {
		t.Fatal("duplicate order should fail")
	}
	res, _ = db.Exec("SELECT i_stock FROM item WHERE i_id = 3", nil)
	if res.Rows[0][0].Int() != 95 {
		t.Error("failed procedure partially applied")
	}
}

// TestProcedureSelectReadsInItsTransaction: a SELECT in a procedure that also
// writes runs through runPlan like any other read — it is counted and timed —
// but inside the procedure's write transaction, so it sees the rows the
// statements before it wrote.
func TestProcedureSelectReadsInItsTransaction(t *testing.T) {
	db := newBackendDB(t)
	err := db.ExecScript(`CREATE PROCEDURE addOrder @oid INT AS BEGIN
		INSERT INTO orders (o_id, o_i_id, o_qty) VALUES (@oid, 3, 1);
		SELECT COUNT(*) FROM orders WHERE o_id = @oid;
	END`)
	if err != nil {
		t.Fatal(err)
	}
	executions := metrics.Default.Histogram("engine.execute_seconds")
	before := executions.Count()
	res, err := db.Exec("EXEC addOrder @oid = 7", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 1 {
		t.Errorf("the SELECT should count the order its procedure just inserted: %v", res.Rows)
	}
	if res.RowsAffected != 1 || res.CommitLSN == 0 || res.Counters.RowsScanned == 0 {
		t.Errorf("affected %d, commit LSN %d, counters %+v", res.RowsAffected, res.CommitLSN, res.Counters)
	}
	if got := executions.Count() - before; got != 1 {
		t.Errorf("engine.execute_seconds observed %d executions, want the procedure's one SELECT", got)
	}
}

func TestProcedurePositionalArgs(t *testing.T) {
	db := newBackendDB(t)
	db.ExecScript(`CREATE PROCEDURE getItem @id INT AS SELECT i_title FROM item WHERE i_id = @id`)
	res, err := db.Exec("EXEC getItem 11", nil)
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("positional exec: %v %v", err, res)
	}
}

func TestPlanCacheReuse(t *testing.T) {
	db := newBackendDB(t)
	db.Exec("SELECT i_title FROM item WHERE i_id = @id", map[string]types.Value{"id": types.NewInt(1)})
	n := db.PlanCacheSize()
	db.Exec("SELECT i_title FROM item WHERE i_id = @id", map[string]types.Value{"id": types.NewInt(2)})
	if db.PlanCacheSize() != n {
		t.Error("same statement text should reuse the cached plan")
	}
	db.Exec("INSERT INTO orders (o_id, o_i_id, o_qty) VALUES (99, 1, 1)", nil)
}

func TestExplainOutput(t *testing.T) {
	db := newBackendDB(t)
	text, err := db.Explain("SELECT i_title FROM item WHERE i_id = 5")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "IndexSeek") {
		t.Errorf("explain should show an index seek:\n%s", text)
	}
}

// ---- cache-role engine tests (in-process link) ----

func newCachePair(t *testing.T) (backend, cache *Database) {
	t.Helper()
	backend = newBackendDB(t)
	cache = New(Config{Name: "cache1", Role: Cache, Remote: NewLink(backend)})
	// Shadow schema: same DDL, no data.
	err := cache.ExecScript(`
		CREATE TABLE item (
			i_id INT PRIMARY KEY,
			i_title VARCHAR(60) NOT NULL,
			i_cost FLOAT,
			i_stock INT DEFAULT 100
		);
		CREATE INDEX ix_item_title ON item (i_title);
		CREATE TABLE orders (
			o_id INT PRIMARY KEY,
			o_i_id INT,
			o_qty INT
		);
	`)
	if err != nil {
		t.Fatal(err)
	}
	// Shadowed statistics.
	for _, name := range []string{"item", "orders"} {
		cache.Catalog().Table(name).Stats.Store(backend.Catalog().Table(name).Stats.Load().Clone())
	}
	return backend, cache
}

func TestCacheForwardsQueriesRemotely(t *testing.T) {
	_, cache := newCachePair(t)
	res, err := cache.Exec("SELECT i_title FROM item WHERE i_id = 17", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows: %d", len(res.Rows))
	}
	if res.Counters.RemoteQueries != 1 {
		t.Errorf("remote queries: %d", res.Counters.RemoteQueries)
	}
}

func TestCacheForwardsDML(t *testing.T) {
	backend, cache := newCachePair(t)
	res, err := cache.Exec("INSERT INTO orders (o_id, o_i_id, o_qty) VALUES (42, 1, 2)", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 1 {
		t.Errorf("affected: %d", res.RowsAffected)
	}
	// The row must land on the backend, not the cache.
	if backend.TableRowCount("orders") != 1 {
		t.Error("forwarded insert missing on backend")
	}
	if cache.TableRowCount("orders") != 0 {
		t.Error("shadow table must stay empty")
	}
	// Parameterized update forwarding.
	_, err = cache.Exec("UPDATE orders SET o_qty = @q WHERE o_id = @id",
		map[string]types.Value{"q": types.NewInt(9), "id": types.NewInt(42)})
	if err != nil {
		t.Fatal(err)
	}
	chk, _ := backend.Exec("SELECT o_qty FROM orders WHERE o_id = 42", nil)
	if chk.Rows[0][0].Int() != 9 {
		t.Error("forwarded update not applied")
	}
}

func TestCacheForwardsUnknownProcedure(t *testing.T) {
	backend, cache := newCachePair(t)
	backend.ExecScript(`CREATE PROCEDURE remoteOnly @id INT AS SELECT i_title FROM item WHERE i_id = @id`)
	res, err := cache.Exec("EXEC remoteOnly @id = 3", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Errorf("forwarded proc rows: %d", len(res.Rows))
	}
}

func TestCacheLocalProcedureRemoteData(t *testing.T) {
	backend, cache := newCachePair(t)
	_ = backend
	// Copy the procedure to the cache; its query still computes remotely.
	if err := cache.CopyProcedureFrom(`CREATE PROCEDURE getItem @id INT AS SELECT i_title FROM item WHERE i_id = @id`); err != nil {
		t.Fatal(err)
	}
	res, err := cache.Exec("EXEC getItem @id = 3", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows: %d", len(res.Rows))
	}
	if res.Counters.RemoteQueries != 1 {
		t.Errorf("local proc should have fetched remotely: %+v", res.Counters)
	}
}

func TestCachedViewRequiresCacheRole(t *testing.T) {
	db := newBackendDB(t)
	if _, err := db.Exec("CREATE CACHED VIEW v AS SELECT i_id FROM item", nil); err == nil {
		t.Error("CACHED VIEW on backend should fail")
	}
}

func TestCachedViewCreateHookRuns(t *testing.T) {
	_, cache := newCachePair(t)
	called := ""
	cache.OnCachedViewCreate(func(v *catalog.Table) error {
		called = v.Name
		return nil
	})
	if _, err := cache.Exec("CREATE CACHED VIEW items100 AS SELECT i_id, i_title FROM item WHERE i_id <= 100", nil); err != nil {
		t.Fatal(err)
	}
	if called != "items100" {
		t.Errorf("hook not called: %q", called)
	}
	v := cache.Catalog().Table("items100")
	if v == nil || !v.Cached || !v.Materialized {
		t.Error("cached view catalog entry wrong")
	}
	if len(v.PrimaryKey) != 1 {
		t.Errorf("pk not derived: %v", v.PrimaryKey)
	}
}

func TestPlanCacheLRUEviction(t *testing.T) {
	// Auto-parameterization would fold the literal-distinct statements below
	// into one shape (one plan); disable it so each text gets its own plan
	// and the LRU actually evicts. A backend has no result cache, so the
	// re-run below reaches the plan cache.
	db := New(Config{Name: "backend", Role: Backend})
	db.plans.cap = 4
	db.autoOff = true
	if err := db.ExecScript("CREATE TABLE tiny (id INT PRIMARY KEY, v INT);"); err != nil {
		t.Fatal(err)
	}
	before := metrics.Default.Counter("engine.plan_cache_evictions").Value()
	for i := 0; i < 10; i++ {
		q := fmt.Sprintf("SELECT v FROM tiny WHERE id = %d", i)
		if _, err := db.Exec(q, nil); err != nil {
			t.Fatal(err)
		}
	}
	if n := db.PlanCacheSize(); n > 4 {
		t.Fatalf("plan cache size %d exceeds cap 4", n)
	}
	evicted := metrics.Default.Counter("engine.plan_cache_evictions").Value() - before
	if evicted < 6 {
		t.Fatalf("evictions %d, want >= 6", evicted)
	}
	// Re-running the most recent statement must hit the cache (no growth).
	sz := db.PlanCacheSize()
	if _, err := db.Exec("SELECT v FROM tiny WHERE id = 9", nil); err != nil {
		t.Fatal(err)
	}
	if db.PlanCacheSize() != sz {
		t.Fatalf("cache grew on a repeat statement: %d -> %d", sz, db.PlanCacheSize())
	}
}

// TestEvictedShapeCutAtACharacter: an evicted entry's event carries its
// shape cut to 120 bytes, and the cut never splits a character, so sys.events
// and /debug/events hold valid UTF-8. The two texts put an é across byte 120
// at one parity or the other, wherever the key starts.
func TestEvictedShapeCutAtACharacter(t *testing.T) {
	db := New(Config{Name: "backend", Role: Backend})
	db.plans.cap = 1
	db.autoOff = true
	if err := db.ExecScript("CREATE TABLE tiny (id INT PRIMARY KEY, v INT);"); err != nil {
		t.Fatal(err)
	}
	for _, zs := range []int{100, 101, 1} {
		q := "SELECT v AS [" + strings.Repeat("z", zs) + strings.Repeat("é", 30) + "] FROM tiny WHERE id = 1"
		if _, err := db.Exec(q, nil); err != nil {
			t.Fatal(err)
		}
	}
	res, err := db.Exec("SELECT detail FROM sys.events", nil)
	if err != nil {
		t.Fatal(err)
	}
	cut := 0
	for _, row := range res.Rows {
		detail := row[0].Str()
		if !strings.Contains(detail, "zzzz") {
			continue
		}
		cut++
		if !utf8.ValidString(detail) {
			t.Errorf("evicted shape is not valid UTF-8: %q", detail)
		}
	}
	if cut < 2 {
		t.Fatalf("%d eviction events for the two long texts, want 2", cut)
	}
}

func TestPlanCacheDefaultCapBounded(t *testing.T) {
	db := New(Config{Name: "backend", Role: Backend})
	db.autoOff = true
	if err := db.ExecScript("CREATE TABLE tiny (id INT PRIMARY KEY, v INT);"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < planCacheCap+50; i++ {
		q := fmt.Sprintf("SELECT v FROM tiny WHERE id = %d", i)
		if _, err := db.Exec(q, nil); err != nil {
			t.Fatal(err)
		}
	}
	if n := db.PlanCacheSize(); n > planCacheCap {
		t.Fatalf("plan cache size %d exceeds cap %d", n, planCacheCap)
	}
}
