package core

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mtcache/internal/exec"
	"mtcache/internal/metrics"
	"mtcache/internal/sql"
	"mtcache/internal/types"
)

// Tests for replication-driven invalidation of intermediate results: a
// cache-side materialized result whose lineage includes a cached view must
// stop being served (without a freshness allowance) as soon as replication
// applies a write to that view.

func imcacheSetup(t *testing.T) (*BackendServer, *CacheServer) {
	t.Helper()
	b := newShop(t)
	c, err := NewCache("imcache1", b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CreateCachedView(`CREATE CACHED VIEW AllCust AS
		SELECT cid, cname, caddress, csegment FROM customer`); err != nil {
		t.Fatal(err)
	}
	if err := b.SyncReplication(); err != nil {
		t.Fatal(err)
	}
	return b, c
}

// TestIMCacheInvalidatedByReplicationApply: an intermediate admitted over a
// cached view goes stale when the distribution agent applies a backend
// write, and the next plain execution recomputes against the updated view.
func TestIMCacheInvalidatedByReplicationApply(t *testing.T) {
	b, c := imcacheSetup(t)
	const q = "SELECT COUNT(*) AS n FROM customer WHERE csegment = 2"
	var baseN int64
	for i := 0; i < 3; i++ {
		res, err := c.Exec(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		baseN = res.Rows[0][0].Int()
	}
	if baseN == 0 {
		t.Fatal("baseline count is zero; fixture changed?")
	}

	invBefore := metrics.Default.Counter("imcache.invalidations").Value()
	if _, err := b.Exec("INSERT INTO customer (cid, cname, caddress, csegment) VALUES (9001, 'new', 'addr', 2)", nil); err != nil {
		t.Fatal(err)
	}
	if err := b.SyncReplication(); err != nil {
		t.Fatal(err)
	}
	if got := metrics.Default.Counter("imcache.invalidations").Value(); got == invBefore {
		t.Fatal("replication apply did not invalidate the intermediate")
	}

	res, err := c.Exec(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Rows[0][0].Int(); n != baseN+1 {
		t.Fatalf("cache served a stale intermediate after replication apply: %d, want %d", n, baseN+1)
	}
}

// gateExpr is a pass-everything predicate that, once armed, parks the
// executor evaluating it until release is closed.
type gateExpr struct {
	armed            atomic.Bool
	entered, release chan struct{}
}

func (g *gateExpr) Eval(types.Row, *exec.Env) (types.Value, error) {
	if g.armed.CompareAndSwap(true, false) {
		close(g.entered)
		<-g.release
	}
	return types.NewBool(true), nil
}

// TestIMCacheDropsResultRacingReplicationApply: an execution that opened its
// snapshot before a replication apply and observes its result after that
// apply's invalidation must not have its pre-apply rows admitted as fresh.
// The executor is parked between the two by a gate predicate planted on top
// of the statement's cached plan.
func TestIMCacheDropsResultRacingReplicationApply(t *testing.T) {
	b, c := imcacheSetup(t)
	const q = "SELECT COUNT(*) AS n FROM customer"
	plan, err := c.DB.Plan(sql.MustParseSelect(q))
	if err != nil {
		t.Fatal(err)
	}
	gate := &gateExpr{entered: make(chan struct{}), release: make(chan struct{})}
	plan.Root = &exec.Filter{Input: plan.Root, Pred: gate}

	first, err := c.Exec(q, nil) // one execution on record: the next admits
	if err != nil {
		t.Fatal(err)
	}
	baseN := first.Rows[0][0].Int()

	gate.armed.Store(true)
	type answer struct {
		n   int64
		err error
	}
	done := make(chan answer, 1)
	go func() {
		res, err := c.Exec(q, nil)
		if err != nil {
			done <- answer{err: err}
			return
		}
		done <- answer{n: res.Rows[0][0].Int()}
	}()
	<-gate.entered // COUNT(*) computed over the pre-apply snapshot

	if _, err := b.Exec("INSERT INTO customer (cid, cname, caddress, csegment) VALUES (9003, 'new', 'addr', 1)", nil); err != nil {
		t.Fatal(err)
	}
	if err := b.SyncReplication(); err != nil { // apply + invalidate land
		t.Fatal(err)
	}
	close(gate.release)
	if a := <-done; a.err != nil || a.n != baseN {
		t.Fatalf("parked execution: n=%d err=%v, want its snapshot's %d", a.n, a.err, baseN)
	}

	res, err := c.Exec(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Rows[0][0].Int(); n != baseN+1 {
		t.Fatalf("pre-apply rows admitted as fresh: next read saw %d, want %d", n, baseN+1)
	}
}

// TestIMCacheStaleServedUnderFreshnessBound: after replication invalidates
// the intermediate, a WITH FRESHNESS execution within its bound may still
// serve the stale materialized result — the paper's bounded-staleness
// semantics composing with result caching.
func TestIMCacheStaleServedUnderFreshnessBound(t *testing.T) {
	b, c := imcacheSetup(t)
	const q = "SELECT COUNT(*) AS n FROM customer WHERE csegment = 3"
	var baseN int64
	for i := 0; i < 3; i++ {
		res, err := c.Exec(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		baseN = res.Rows[0][0].Int()
	}
	if _, err := b.Exec("INSERT INTO customer (cid, cname, caddress, csegment) VALUES (9002, 'new', 'addr', 3)", nil); err != nil {
		t.Fatal(err)
	}
	if err := b.SyncReplication(); err != nil {
		t.Fatal(err)
	}

	stale, err := c.Exec(q+" WITH FRESHNESS 300", nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := stale.Rows[0][0].Int(); n != baseN {
		t.Fatalf("WITH FRESHNESS 300 recomputed (%d); want the stale intermediate (%d)", n, baseN)
	}
	fresh, err := c.Exec(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := fresh.Rows[0][0].Int(); n != baseN+1 {
		t.Fatalf("plain execution served stale data: %d, want %d", n, baseN+1)
	}
}

// TestIMCacheNoSubsumption: an admitted result answers its own statement and
// nothing else. A narrower query the admitted one subsumes is planned against
// the cached view like any other, so after replication applies an update it
// sees the new row — with or without a freshness allowance that the stale
// admitted entry itself would still satisfy.
func TestIMCacheNoSubsumption(t *testing.T) {
	b, c := imcacheSetup(t)
	const wide = "SELECT cname, caddress FROM customer WHERE cid = 7"
	const narrow = "SELECT cname FROM customer WHERE cid = 7"
	var old string
	for i := 0; i < 3; i++ {
		res, err := c.Exec(wide, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 {
			t.Fatalf("fixture has %d customers with cid 7", len(res.Rows))
		}
		old = res.Rows[0][0].Str()
	}
	if _, err := b.Exec("UPDATE customer SET cname = 'renamed' WHERE cid = 7", nil); err != nil {
		t.Fatal(err)
	}
	if err := b.SyncReplication(); err != nil {
		t.Fatal(err)
	}

	// The admitted entry is stale but inside a 300 s bound: its own text may
	// still be served from it.
	res, err := c.Exec(wide+" WITH FRESHNESS 300", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Str(); got != old {
		t.Fatalf("admitted statement under its bound: got %q, want the stale %q", got, old)
	}
	for _, q := range []string{narrow, narrow + " WITH FRESHNESS 300"} {
		res, err := c.Exec(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Counters.RemoteQueries != 0 {
			t.Errorf("%s: went to the backend; want the cached view", q)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].Str() != "renamed" {
			t.Errorf("%s: got %v, want the replicated update", q, res.Rows)
		}
	}
}

// Admission reads what an execution did, not the shape of its plan: a
// guarded shape's plan contains a remote branch, but an execution whose guard
// chose the cached view made no remote call and is admitted — and invalidated
// by a replication apply — like its literal twin always was. An execution the
// backend answered is never admitted.
func TestIMCacheAdmitsGuardedLocalExecutions(t *testing.T) {
	b := newShop(t)
	c, err := NewCache("imguard", b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CreateCachedView(`CREATE CACHED VIEW Cust1000 AS
		SELECT cid, cname FROM customer WHERE cid <= 1000`); err != nil {
		t.Fatal(err)
	}
	if err := b.SyncReplication(); err != nil {
		t.Fatal(err)
	}
	const inGuard, outOfGuard = "SELECT cname FROM customer WHERE cid = 7", "SELECT cname FROM customer WHERE cid = 2007"
	for i := 0; i < 4; i++ {
		for _, q := range []string{inGuard, outOfGuard} {
			if _, err := c.Exec(q, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	entries := c.DB.IMCache().Snapshot(time.Now())
	if len(entries) != 1 || !strings.Contains(entries[0].Args, "= 7") || entries[0].Hits == 0 {
		t.Fatalf("want one entry, for the in-guard literal, with hits; got %+v", entries)
	}

	if _, err := b.Exec("UPDATE customer SET cname = 'renamed' WHERE cid = 7", nil); err != nil {
		t.Fatal(err)
	}
	if err := b.SyncReplication(); err != nil {
		t.Fatal(err)
	}
	res, err := c.Exec(inGuard, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Str(); got != "renamed" {
		t.Fatalf("served %q from a stale intermediate after the replication apply", got)
	}
}
