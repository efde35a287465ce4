package core

import (
	"strings"
	"testing"
	"time"

	"mtcache/internal/exec"
	"mtcache/internal/trace"
	"mtcache/internal/types"
)

// Tests for the WITH FRESHNESS extension — the paper's §7 proposal that a
// query should be able to declare how stale a result it tolerates, which
// lets the cache use its views (or obliges it to bypass them).

func freshnessSetup(t *testing.T) (*BackendServer, *CacheServer) {
	t.Helper()
	b := newShop(t)
	c, err := NewCache("cache1", b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CreateCachedView(`CREATE CACHED VIEW AllCust AS
		SELECT cid, cname, caddress, csegment FROM customer`); err != nil {
		t.Fatal(err)
	}
	return b, c
}

func TestFreshnessParseAndDeparse(t *testing.T) {
	_, c := freshnessSetup(t)
	// The clause must parse and execute.
	res, err := c.Exec("SELECT cname FROM customer WHERE cid = 1 WITH FRESHNESS 30", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows: %d", len(res.Rows))
	}
}

func TestFreshnessBoundAllowsFreshView(t *testing.T) {
	b, c := freshnessSetup(t)
	if err := b.SyncReplication(); err != nil {
		t.Fatal(err)
	}
	// View just synchronized: staleness ≈ 0 → a generous bound keeps the
	// query local.
	res, err := c.Exec("SELECT cname FROM customer WHERE cid = 7 WITH FRESHNESS 60", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.RemoteQueries != 0 {
		t.Errorf("fresh view within bound should serve locally (remote=%d)", res.Counters.RemoteQueries)
	}
}

func TestFreshnessZeroForcesBackend(t *testing.T) {
	b, c := freshnessSetup(t)
	b.SyncReplication()
	// FRESHNESS 0 demands the current state: only the backend has it.
	res, err := c.Exec("SELECT cname FROM customer WHERE cid = 7 WITH FRESHNESS 0", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.RemoteQueries != 1 {
		t.Errorf("FRESHNESS 0 must bypass the cache (remote=%d)", res.Counters.RemoteQueries)
	}
}

func TestFreshnessStaleViewRoutesRemoteAndSeesNewData(t *testing.T) {
	b, c := freshnessSetup(t)
	b.SyncReplication()

	// Commit a change but do NOT propagate it: the view is now stale.
	if _, err := b.Exec("UPDATE customer SET cname = 'NEW VALUE' WHERE cid = 7", nil); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)

	// Unbounded query: cached (stale) answer is acceptable — paper default.
	res, err := c.Exec("SELECT cname FROM customer WHERE cid = 7", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Str() == "NEW VALUE" {
		t.Fatal("unbounded query should have read the (stale) view")
	}

	// Tight bound: staleness (≥30 ms, pending txn) exceeds 10 ms → remote,
	// and the result reflects the un-propagated update.
	res, err = c.Exec("SELECT cname FROM customer WHERE cid = 7 WITH FRESHNESS 0.01", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.RemoteQueries != 1 {
		t.Errorf("stale view must be bypassed (remote=%d)", res.Counters.RemoteQueries)
	}
	if res.Rows[0][0].Str() != "NEW VALUE" {
		t.Errorf("backend answer expected, got %q", res.Rows[0][0].Str())
	}

	// After propagation the same bounded query is local again.
	if err := b.SyncReplication(); err != nil {
		t.Fatal(err)
	}
	res, err = c.Exec("SELECT cname FROM customer WHERE cid = 7 WITH FRESHNESS 60", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.RemoteQueries != 0 || res.Rows[0][0].Str() != "NEW VALUE" {
		t.Errorf("post-sync bounded query: remote=%d value=%q",
			res.Counters.RemoteQueries, res.Rows[0][0].Str())
	}
}

func TestFreshnessParameterizedBound(t *testing.T) {
	b, c := freshnessSetup(t)
	b.SyncReplication()
	res, err := c.Exec("SELECT cname FROM customer WHERE cid = 3 WITH FRESHNESS @f",
		exec.Params{"f": types.NewFloat(120)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.RemoteQueries != 0 {
		t.Errorf("parameterized generous bound should stay local (remote=%d)", res.Counters.RemoteQueries)
	}
	res, err = c.Exec("SELECT cname FROM customer WHERE cid = 3 WITH FRESHNESS @f",
		exec.Params{"f": types.NewFloat(0)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.RemoteQueries != 1 {
		t.Errorf("parameterized zero bound should go remote (remote=%d)", res.Counters.RemoteQueries)
	}
}

func TestFreshnessNegativeRejected(t *testing.T) {
	_, c := freshnessSetup(t)
	if _, err := c.Exec("SELECT cname FROM customer WHERE cid = 1 WITH FRESHNESS -5", nil); err == nil {
		t.Fatal("negative freshness bound must be rejected")
	}
}

// TestViewStalenessReporting: a cache's views share one staleness, which a
// cache holding no views does not have.
func TestViewStalenessReporting(t *testing.T) {
	b := newShop(t)
	c, err := NewCache("cache1", b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Staleness(); ok {
		t.Error("a cache with no views should report no staleness")
	}
	if err := c.CreateCachedView(`CREATE CACHED VIEW AllCust AS SELECT cid, cname FROM customer`); err != nil {
		t.Fatal(err)
	}
	b.SyncReplication()
	s, ok := c.Staleness()
	if !ok {
		t.Fatal("staleness unavailable")
	}
	if s < 0 || s > 5*time.Second {
		t.Errorf("staleness implausible: %v", s)
	}
}

// TestFreshnessBoundHoldsForANamedCachedView: a statement that names a cached
// view reads it as surely as one the view matched, so the view counts as read,
// for the served staleness as for a WITH FRESHNESS bound. Outside the bound
// such a statement cannot go to the backend, which has no AllCust: it fails,
// naming the view, rather than answering from it.
func TestFreshnessBoundHoldsForANamedCachedView(t *testing.T) {
	b, c := freshnessSetup(t)
	if err := b.SyncReplication(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Exec("UPDATE customer SET cname = 'NEW VALUE' WHERE cid = 7", nil); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)

	res, rec, err := c.DB.ExecSessionTraced("SELECT cname FROM AllCust WHERE cid = 7", nil, 0, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Str() == "NEW VALUE" {
		t.Fatal("fixture: the view is not stale")
	}
	if rec.Tier != trace.TierLocal || rec.Staleness < 0 {
		t.Errorf("unbounded read of the named view: tier %s, staleness %v; want local and the cache's staleness", rec.Tier, rec.Staleness)
	}

	res, rec, err = c.DB.ExecSessionTraced("SELECT cname FROM AllCust WHERE cid = 7 WITH FRESHNESS 0.01", nil, 0, 0, "")
	if err == nil {
		t.Fatalf("bounded read of the stale named view answered %v (tier %s, staleness %v); want an error", res.Rows, rec.Tier, rec.Staleness)
	}
	if !strings.Contains(err.Error(), "AllCust") {
		t.Errorf("error %q does not name the view", err)
	}
}

// TestServedStalenessOnlyWhenAViewAnswered: a dynamic plan serves the cache's
// staleness when its guard picks the cached view, and none (-1) when it picks
// the backend, which is current.
func TestServedStalenessOnlyWhenAViewAnswered(t *testing.T) {
	b := newShop(t)
	c, err := NewCache("cache1", b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CreateCachedView(`CREATE CACHED VIEW Cust1000 AS
		SELECT cid, cname, caddress FROM customer WHERE cid <= 1000`); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		x      int64
		tier   trace.Tier
		served bool
	}{{7, trace.TierDynamicLocal, true}, {1500, trace.TierDynamicRemote, false}} {
		_, rec, err := c.DB.ExecSessionTraced("SELECT cname FROM customer WHERE cid = @x", exec.Params{"x": types.NewInt(tc.x)}, 0, 0, "")
		if err != nil {
			t.Fatal(err)
		}
		if rec.Tier != tc.tier || (rec.Staleness >= 0) != tc.served {
			t.Errorf("cid = %d: tier %s, served staleness %v; want tier %s, and a staleness served: %v", tc.x, rec.Tier, rec.Staleness, tc.tier, tc.served)
		}
	}
}
