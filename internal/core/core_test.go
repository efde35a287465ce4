package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"mtcache/internal/engine"
	"mtcache/internal/exec"
	"mtcache/internal/types"
)

const shopDDL = `
	CREATE TABLE customer (
		cid INT PRIMARY KEY,
		cname VARCHAR(40) NOT NULL,
		caddress VARCHAR(80),
		csegment INT
	);
	CREATE TABLE orders (
		okey INT PRIMARY KEY,
		ckey INT,
		total FLOAT
	);
	CREATE INDEX ix_orders_ckey ON orders (ckey);
	CREATE PROCEDURE getCustomer @cid INT AS
		SELECT cid, cname, caddress FROM customer WHERE cid = @cid;
	CREATE PROCEDURE newOrder @okey INT, @ckey INT, @total FLOAT AS
		INSERT INTO orders (okey, ckey, total) VALUES (@okey, @ckey, @total);
`

func newShop(t *testing.T) *BackendServer {
	t.Helper()
	b := NewBackend("backend")
	if err := b.ExecScript(shopDDL); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3000; i++ {
		stmt := fmt.Sprintf("INSERT INTO customer (cid, cname, caddress, csegment) VALUES (%d, 'cust%d', 'addr%d', %d)", i, i, i, i%5)
		if _, err := b.Exec(stmt, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 500; i++ {
		stmt := fmt.Sprintf("INSERT INTO orders (okey, ckey, total) VALUES (%d, %d, %d.25)", i, i%3000+1, i)
		if _, err := b.Exec(stmt, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.DB.Analyze(); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestShadowDatabaseSetup(t *testing.T) {
	b := newShop(t)
	c, err := NewCache("cache1", b, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Shadow tables exist, are empty, and carry backend statistics.
	ct := c.DB.Catalog().Table("customer")
	if ct == nil {
		t.Fatal("shadow table missing")
	}
	if c.DB.TableRowCount("customer") != 0 {
		t.Error("shadow table must be empty")
	}
	if ct.Stats.Load().RowCount != 3000 {
		t.Errorf("shadowed stats: %d", ct.Stats.Load().RowCount)
	}
	if len(ct.Indexes) == 0 && len(ct.PrimaryKey) == 0 {
		t.Error("shadow table lost its key")
	}
	// Shadow index on orders.
	ot := c.DB.Catalog().Table("orders")
	if len(ot.Indexes) != 1 || !strings.EqualFold(ot.Indexes[0].Name, "ix_orders_ckey") {
		t.Errorf("shadow indexes: %+v", ot.Indexes)
	}
}

func TestCachedViewAutoSubscription(t *testing.T) {
	b := newShop(t)
	c, err := NewCache("cache1", b, nil)
	if err != nil {
		t.Fatal(err)
	}
	err = c.CreateCachedView(`CREATE CACHED VIEW Cust1000 AS
		SELECT cid, cname, caddress FROM customer WHERE cid <= 1000`)
	if err != nil {
		t.Fatal(err)
	}
	// Populated immediately by the subscription snapshot.
	if got := c.DB.TableRowCount("Cust1000"); got != 1000 {
		t.Fatalf("view rows after create: %d", got)
	}
	if _, ok := c.ViewStaleness("cust1000"); !ok {
		t.Error("subscription not registered")
	}
	// Changes flow through replication.
	b.Exec("UPDATE customer SET cname = 'updated' WHERE cid = 5", nil)
	b.Exec("INSERT INTO customer (cid, cname, caddress, csegment) VALUES (10000, 'outside', 'a', 0)", nil)
	if err := b.SyncReplication(); err != nil {
		t.Fatal(err)
	}
	res, _ := c.Exec("SELECT cname FROM customer WHERE cid = 5", nil)
	if res.Rows[0][0].Str() != "updated" {
		t.Error("replicated update not visible through the cache")
	}
	if res.Counters.RemoteQueries != 0 {
		t.Error("query inside the view should be local")
	}
}

func TestTransparencySameAppCodeBothConns(t *testing.T) {
	b := newShop(t)
	c, _ := NewCache("cache1", b, nil)
	c.CreateCachedView(`CREATE CACHED VIEW AllCust AS SELECT cid, cname, caddress, csegment FROM customer`)
	c.CopyProcedure("getCustomer")

	app := func(conn *Conn) (string, error) {
		res, err := conn.Call("getCustomer", exec.Params{"cid": types.NewInt(42)})
		if err != nil {
			return "", err
		}
		return res.Rows[0][1].Str(), nil
	}
	// Identical application code against backend and cache.
	viaBackend, err := app(ConnectBackend(b))
	if err != nil {
		t.Fatal(err)
	}
	viaCache, err := app(ConnectCache(c))
	if err != nil {
		t.Fatal(err)
	}
	if viaBackend != viaCache || viaBackend != "cust42" {
		t.Errorf("results differ: backend=%q cache=%q", viaBackend, viaCache)
	}
}

func TestUpdateForwardingAndReplicationRoundTrip(t *testing.T) {
	b := newShop(t)
	c, _ := NewCache("cache1", b, nil)
	c.CreateCachedView(`CREATE CACHED VIEW AllOrders AS SELECT okey, ckey, total FROM orders`)

	// The application writes through the CACHE; the write lands on the
	// backend and flows back into the cached view via replication.
	conn := ConnectCache(c)
	if _, err := conn.Exec("INSERT INTO orders (okey, ckey, total) VALUES (9999, 1, 55.5)", nil); err != nil {
		t.Fatal(err)
	}
	if b.DB.TableRowCount("orders") != 501 {
		t.Error("forwarded insert missing on backend")
	}
	if err := b.SyncReplication(); err != nil {
		t.Fatal(err)
	}
	res, _ := c.Exec("SELECT total FROM orders WHERE okey = 9999", nil)
	if len(res.Rows) != 1 || res.Rows[0][0].Float() != 55.5 {
		t.Fatalf("round trip failed: %v", res.Rows)
	}
	if res.Counters.RemoteQueries != 0 {
		t.Error("read-after-replicate should be local")
	}
}

func TestProcedureCopySelective(t *testing.T) {
	b := newShop(t)
	c, _ := NewCache("cache1", b, nil)
	if err := c.CopyAllProceduresExcept("newOrder"); err != nil {
		t.Fatal(err)
	}
	if c.DB.Catalog().Procedure("getCustomer") == nil {
		t.Error("getCustomer should be copied")
	}
	if c.DB.Catalog().Procedure("newOrder") != nil {
		t.Error("newOrder should be skipped")
	}
	// Forwarded call still works transparently.
	res, err := ConnectCache(c).Call("newOrder", exec.Params{
		"okey": types.NewInt(777), "ckey": types.NewInt(1), "total": types.NewFloat(9),
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	if b.DB.TableRowCount("orders") != 501 {
		t.Error("forwarded procedure did not run on backend")
	}
}

func TestMultipleCaches(t *testing.T) {
	b := newShop(t)
	var caches []*CacheServer
	for i := 0; i < 3; i++ {
		c, err := NewCache(fmt.Sprintf("cache%d", i), b, nil)
		if err != nil {
			t.Fatal(err)
		}
		c.CreateCachedView(`CREATE CACHED VIEW C500 AS SELECT cid, cname FROM customer WHERE cid <= 500`)
		c.CreateCachedView(`CREATE CACHED VIEW O100 AS SELECT okey, ckey, total FROM orders WHERE okey <= 100`)
		caches = append(caches, c)
	}
	if n := len(b.Repl.Subscriptions()); n != len(caches) {
		t.Fatalf("%d subscriptions for %d caches of two views each: a cache is one subscriber", n, len(caches))
	}
	b.Exec("UPDATE customer SET cname = 'fanout' WHERE cid = 100", nil)
	b.SyncReplication()
	for i, c := range caches {
		res, _ := c.Exec("SELECT cname FROM customer WHERE cid = 100", nil)
		if res.Rows[0][0].Str() != "fanout" {
			t.Errorf("cache %d did not receive the update", i)
		}
	}
}

func TestBackgroundReplicationLatency(t *testing.T) {
	b := newShop(t)
	c, _ := NewCache("cache1", b, nil)
	c.CreateCachedView(`CREATE CACHED VIEW AllCust AS SELECT cid, cname FROM customer`)
	b.StartReplication(2*time.Millisecond, 2*time.Millisecond)
	defer b.StopReplication()

	b.Exec("UPDATE customer SET cname = 'async' WHERE cid = 1", nil)
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		res, _ := c.Exec("SELECT cname FROM customer WHERE cid = 1", nil)
		if len(res.Rows) == 1 && res.Rows[0][0].Str() == "async" {
			if c.Stats.Latency.Count() == 0 {
				t.Error("latency not recorded")
			}
			return
		}
		time.Sleep(3 * time.Millisecond)
	}
	t.Fatal("async replication did not converge")
}

func TestCachedViewOverBackendMaterializedView(t *testing.T) {
	b := newShop(t)
	// Backend materialized view, maintained synchronously there.
	if err := b.ExecScript(`CREATE MATERIALIZED VIEW bigspenders AS
		SELECT okey, ckey, total FROM orders WHERE total >= 250`); err != nil {
		t.Fatal(err)
	}
	c, err := NewCache("cache1", b, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Cache subscribes to the backend MV — the paper allows articles over
	// materialized views (§2.2, §3).
	if err := c.CreateCachedView(`CREATE CACHED VIEW spenders AS
		SELECT okey, ckey, total FROM bigspenders`); err != nil {
		t.Fatal(err)
	}
	want := b.DB.TableRowCount("bigspenders")
	if got := c.DB.TableRowCount("spenders"); got != want {
		t.Fatalf("cached-over-MV rows: %d want %d", got, want)
	}
	// A base-table change updates the backend MV, which replicates onward.
	b.Exec("INSERT INTO orders (okey, ckey, total) VALUES (8888, 2, 400.0)", nil)
	b.SyncReplication()
	if got := c.DB.TableRowCount("spenders"); got != want+1 {
		t.Fatalf("MV change did not cascade: %d want %d", got, want+1)
	}
}

func TestStatsRefresh(t *testing.T) {
	b := newShop(t)
	c, _ := NewCache("cache1", b, nil)
	before := c.DB.Catalog().Table("customer").Stats.Load().RowCount
	for i := 20000; i < 21000; i++ {
		b.Exec(fmt.Sprintf("INSERT INTO customer (cid, cname, caddress, csegment) VALUES (%d, 'n', 'a', 1)", i), nil)
	}
	b.DB.Analyze()
	if err := c.RefreshStats(); err != nil {
		t.Fatal(err)
	}
	after := c.DB.Catalog().Table("customer").Stats.Load().RowCount
	if after != before+1000 {
		t.Errorf("stats refresh: before=%d after=%d", before, after)
	}
}

// TestInProcessCacheReadsItsOwnWrites: an in-process cache is the fleet's
// cache, so a session-gated read waits for the session's write to arrive
// (kicking a pull) instead of answering ErrSessionStale.
func TestInProcessCacheReadsItsOwnWrites(t *testing.T) {
	b := newShop(t)
	c, err := NewCache("cache1", b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CreateCachedView(`CREATE CACHED VIEW AllCust AS SELECT cid, cname FROM customer`); err != nil {
		t.Fatal(err)
	}
	res, err := b.Exec("UPDATE customer SET cname = 'mine' WHERE cid = 9", nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.AppliedLSN() >= res.CommitLSN {
		t.Fatalf("cache applied %d before any pull; commit was %d", c.AppliedLSN(), res.CommitLSN)
	}
	got, err := c.DB.ExecSession("SELECT cname FROM customer WHERE cid = 9", nil, res.CommitLSN, 150*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows[0][0].Str() != "mine" || got.Counters.RemoteQueries != 0 {
		t.Fatalf("gated read: %v (remote=%d)", got.Rows, got.Counters.RemoteQueries)
	}
	if c.AppliedLSN() < res.CommitLSN {
		t.Errorf("applied %d still below the session watermark %d", c.AppliedLSN(), res.CommitLSN)
	}
}

// TestApplyFailureVisibleOnTheCache: a view that cannot apply a transaction
// says so in sys.repl_status, stops advancing its applied position and its
// freshness, and recovers — in order — once the conflict is repaired.
func TestApplyFailureVisibleOnTheCache(t *testing.T) {
	b := newShop(t)
	c, _ := NewCache("cache1", b, nil)
	if err := c.CreateCachedView(`CREATE CACHED VIEW AllOrders AS SELECT okey, ckey, total FROM orders`); err != nil {
		t.Fatal(err)
	}
	// Sabotage the view: a row the next replicated insert collides with.
	tx := c.DB.Store().Begin(true)
	rid, err := tx.Insert("AllOrders", types.Row{types.NewInt(7000), types.NewInt(1), types.NewFloat(0)})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.CommitUnlogged(); err != nil {
		t.Fatal(err)
	}
	res, _ := b.Exec("INSERT INTO orders (okey, ckey, total) VALUES (7000, 2, 70.0)", nil)
	b.Exec("UPDATE orders SET total = 1.5 WHERE okey = 1", nil)
	time.Sleep(20 * time.Millisecond)

	if err := b.SyncReplication(); err == nil {
		t.Fatal("expected the conflicting apply to fail")
	}
	status, err := c.Exec("SELECT apply_errors, last_error, last_lsn FROM sys.repl_status WHERE name = 'AllOrders'", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(status.Rows) != 1 || status.Rows[0][0].Int() != 1 || status.Rows[0][1].Str() == "" {
		t.Fatalf("sys.repl_status after a failed apply: %v", status.Rows)
	}
	if c.AppliedLSN() >= res.CommitLSN {
		t.Errorf("applied position %d passed the failed transaction %d", c.AppliedLSN(), res.CommitLSN)
	}
	if s, _ := c.ViewStaleness("AllOrders"); s < 15*time.Millisecond {
		t.Errorf("a failed round must not refresh the view's staleness: %v", s)
	}

	tx = c.DB.Store().Begin(true)
	if err := tx.Delete("AllOrders", rid); err != nil {
		t.Fatal(err)
	}
	if err := tx.CommitUnlogged(); err != nil {
		t.Fatal(err)
	}
	if err := b.SyncReplication(); err != nil {
		t.Fatal(err)
	}
	got, _ := c.Exec("SELECT total FROM orders WHERE okey = 7000", nil)
	if len(got.Rows) != 1 || got.Rows[0][0].Float() != 70 || got.Counters.RemoteQueries != 0 {
		t.Fatalf("repaired view: %v", got.Rows)
	}
	got, _ = c.Exec("SELECT total FROM orders WHERE okey = 1", nil)
	if got.Rows[0][0].Float() != 1.5 {
		t.Error("transaction after the failed one lost")
	}
}

// newLinesShop is newShop plus an order-lines table and a procedure that
// writes an order and its line in one backend transaction, and a cache with a
// view over each table.
func newLinesShop(t *testing.T, views ...string) (*BackendServer, *CacheServer) {
	t.Helper()
	b := newShop(t)
	if err := b.ExecScript(`
		CREATE TABLE lines (lkey INT PRIMARY KEY, okey INT, qty INT);
		CREATE PROCEDURE placeOrder @okey INT, @lkey INT AS BEGIN
			INSERT INTO orders (okey, ckey, total) VALUES (@okey, 1, 1.0);
			INSERT INTO lines (lkey, okey, qty) VALUES (@lkey, @okey, 1);
		END`); err != nil {
		t.Fatal(err)
	}
	c, err := NewCache("cache1", b, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, ddl := range views {
		if err := c.CreateCachedView(ddl); err != nil {
			t.Fatal(err)
		}
	}
	return b, c
}

const (
	ordersView = `CREATE CACHED VIEW cv_o AS SELECT okey, ckey, total FROM orders`
	linesView  = `CREATE CACHED VIEW cv_l AS SELECT lkey, okey, qty FROM lines`
	// viewsAgree reads both views in one statement, so in one snapshot: the
	// orders placed through placeOrder and the orders that have a line.
	viewsAgree = `SELECT o.n, l.n FROM (SELECT COUNT(*) AS n FROM cv_o WHERE okey >= 9000) o,
		(SELECT COUNT(DISTINCT okey) AS n FROM cv_l) l`
)

func placeOrder(t *testing.T, b *BackendServer, okey, lkey int) *engine.Result {
	t.Helper()
	res, err := b.DB.CallProcedure("placeOrder", exec.Params{"okey": types.NewInt(int64(okey)), "lkey": types.NewInt(int64(lkey))})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func requireViewsAgree(t *testing.T, c *CacheServer, want int64, when string) {
	t.Helper()
	res, err := c.DB.Exec(viewsAgree, nil)
	if err != nil {
		t.Fatal(err)
	}
	if o, l := res.Rows[0][0].Int(), res.Rows[0][1].Int(); o != want || l != want {
		t.Fatalf("%s: cv_o holds %d placed orders, cv_l lines of %d; want %d and %d", when, o, l, want, want)
	}
}

// TestBackendTransactionAppliesToAllViewsOrNone: after any single Pull
// returns, with or without an error, two views fed by one backend transaction
// agree. A change one view cannot apply leaves every view and the cursor
// where they were, and once the conflict is gone the next pull applies the
// whole transaction — and the one queued behind it.
func TestBackendTransactionAppliesToAllViewsOrNone(t *testing.T) {
	b, c := newLinesShop(t, ordersView, linesView)
	if n := len(b.Repl.Subscriptions()); n != 1 {
		t.Fatalf("a cache with two views holds %d subscriptions on the backend, want 1", n)
	}
	placeOrder(t, b, 9001, 1)
	if n, err := c.Pull(); err != nil || n != 1 {
		t.Fatalf("pull applied %d transactions, err %v; want the one backend transaction", n, err)
	}
	requireViewsAgree(t, c, 1, "after a clean pull")

	// Sabotage the lines view only: the next order's line collides.
	tx := c.DB.Store().Begin(true)
	rid, err := tx.Insert("cv_l", types.Row{types.NewInt(2), types.NewInt(0), types.NewInt(0)})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.CommitUnlogged(); err != nil {
		t.Fatal(err)
	}
	before := c.AppliedLSN()
	failed := placeOrder(t, b, 9002, 2)
	placeOrder(t, b, 9003, 3)
	if _, err := c.Pull(); err == nil {
		t.Fatal("expected the conflicting apply to fail")
	}
	res, err := c.DB.Exec("SELECT COUNT(*) FROM cv_o WHERE okey >= 9002", nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Rows[0][0].Int(); n != 0 {
		t.Fatalf("cv_o took %d orders of a transaction cv_l could not apply", n)
	}
	if got := c.AppliedLSN(); got != before || got >= failed.CommitLSN {
		t.Fatalf("applied position %d after the failed pull; it was %d, the failed transaction is %d", got, before, failed.CommitLSN)
	}

	tx = c.DB.Store().Begin(true)
	if err := tx.Delete("cv_l", rid); err != nil {
		t.Fatal(err)
	}
	if err := tx.CommitUnlogged(); err != nil {
		t.Fatal(err)
	}
	if n, err := c.Pull(); err != nil || n != 2 {
		t.Fatalf("pull after the repair applied %d transactions, err %v; want 2", n, err)
	}
	requireViewsAgree(t, c, 3, "after the repair")
}

// TestCreateCachedViewWhilePullingJoinsAtOnePrefix: a view created on a cache
// that is already pulling, under a writer, becomes visible at the position the
// older views are moved to in the same transaction — a reader never sees an
// order in one view and not its line in the other — and the cache then
// converges to the backend.
func TestCreateCachedViewWhilePullingJoinsAtOnePrefix(t *testing.T) {
	b, c := newLinesShop(t, ordersView)
	b.StartReplication(time.Millisecond, time.Millisecond)
	defer b.StopReplication()

	stop := make(chan struct{})
	done := make(chan int)
	go func() { // the writer: one order and its line per backend transaction
		n := 0
		defer func() { done <- n }()
		for ; n < 4000; n++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := b.DB.CallProcedure("placeOrder", exec.Params{"okey": types.NewInt(int64(9000 + n)), "lkey": types.NewInt(int64(n))}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	time.Sleep(10 * time.Millisecond)
	if err := c.CreateCachedView(linesView); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		res, err := c.DB.Exec(viewsAgree, nil)
		if err != nil {
			t.Fatal(err)
		}
		if o, l := res.Rows[0][0].Int(), res.Rows[0][1].Int(); o != l {
			t.Fatalf("read %d: cv_o holds %d placed orders, cv_l lines of %d — the views are at different prefixes", i, o, l)
		}
	}
	close(stop)
	placed := <-done
	b.StopReplication()
	if err := b.SyncReplication(); err != nil {
		t.Fatal(err)
	}
	requireViewsAgree(t, c, int64(placed), "at quiescence")
	if n := len(b.Repl.Subscriptions()); n != 1 {
		t.Fatalf("%d subscriptions after adding a view to a live cache, want 1", n)
	}
}

// TestTwoViewsOverOneTableGetTheirOwnRows: two articles over the same source
// table travel in one stream; each change reaches the view whose filter it
// satisfies, and a row crossing the boundary leaves one view and enters the
// other in the same transaction.
func TestTwoViewsOverOneTableGetTheirOwnRows(t *testing.T) {
	b := newShop(t)
	c, _ := NewCache("cache1", b, nil)
	for _, ddl := range []string{
		`CREATE CACHED VIEW cheap AS SELECT okey, ckey, total FROM orders WHERE total < 100`,
		`CREATE CACHED VIEW pricey AS SELECT okey, ckey, total FROM orders WHERE total >= 100`,
	} {
		if err := c.CreateCachedView(ddl); err != nil {
			t.Fatal(err)
		}
	}
	for _, stmt := range []string{
		"INSERT INTO orders (okey, ckey, total) VALUES (8001, 1, 5.0)",
		"INSERT INTO orders (okey, ckey, total) VALUES (8002, 1, 500.0)",
		"UPDATE orders SET total = 999.0 WHERE okey = 1", // cheap → pricey
		"UPDATE orders SET total = 1.0 WHERE okey = 400", // pricey → cheap
		"DELETE FROM orders WHERE okey = 2",
		"DELETE FROM orders WHERE okey = 401",
	} {
		if _, err := b.Exec(stmt, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Pull(); err != nil {
		t.Fatal(err)
	}
	for view, where := range map[string]string{"cheap": "total < 100", "pricey": "total >= 100"} {
		want, err := b.Exec("SELECT COUNT(*), SUM(okey) FROM orders WHERE "+where, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.DB.Exec("SELECT COUNT(*), SUM(okey) FROM "+view, nil)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
			t.Errorf("%s holds %v, the backend's %s is %v", view, got.Rows, where, want.Rows)
		}
	}
}

// TestCopiedMultiStatementProcedureIsOneBackendTransaction: a procedure that
// writes in two statements is one backend transaction whether the application
// calls it on the backend or on a cache holding a copy — one commit record on
// success, nothing applied when the second statement fails.
func TestCopiedMultiStatementProcedureIsOneBackendTransaction(t *testing.T) {
	b, c := newLinesShop(t)
	if err := c.CopyProcedure("placeOrder"); err != nil {
		t.Fatal(err)
	}
	call := func(okey, lkey int64) (*engine.Result, error) {
		return ConnectCache(c).Call("placeOrder", exec.Params{"okey": types.NewInt(okey), "lkey": types.NewInt(lkey)})
	}
	wal := b.DB.Store().WAL()
	before := wal.End()
	res, err := call(9001, 1)
	if err != nil {
		t.Fatal(err)
	}
	if end := wal.End(); end != before+1 || res.CommitLSN != before {
		t.Fatalf("the call wrote %d commit records (LSN %d reported); want one, at %d", end-before, res.CommitLSN, before)
	}

	if _, err := b.Exec("INSERT INTO lines (lkey, okey, qty) VALUES (2, 0, 0)", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := call(9002, 2); err == nil {
		t.Fatal("expected the second statement's key collision to fail the call")
	}
	got, err := b.Exec("SELECT COUNT(*) FROM orders WHERE okey = 9002", nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := got.Rows[0][0].Int(); n != 0 {
		t.Fatalf("the failed call left %d order rows applied on the backend", n)
	}
}
