package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

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
	if ct.Stats.RowCount != 3000 {
		t.Errorf("shadowed stats: %d", ct.Stats.RowCount)
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
		caches = append(caches, c)
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
	before := c.DB.Catalog().Table("customer").Stats.RowCount
	for i := 20000; i < 21000; i++ {
		b.Exec(fmt.Sprintf("INSERT INTO customer (cid, cname, caddress, csegment) VALUES (%d, 'n', 'a', 1)", i), nil)
	}
	b.DB.Analyze()
	if err := c.RefreshStats(); err != nil {
		t.Fatal(err)
	}
	after := c.DB.Catalog().Table("customer").Stats.RowCount
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
