package core

import (
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"mtcache/internal/exec"
	"mtcache/internal/metrics"
	"mtcache/internal/sql"
	"mtcache/internal/trace"
	"mtcache/internal/types"
)

// Tests for replication-driven invalidation of intermediate results: a
// cache-side materialized result whose lineage includes a cached view must
// stop being served — under any freshness bound — as soon as replication
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
	if _, err := c.Pull(); err != nil {
		t.Fatal(err)
	}
	return b, c
}

// TestIMCacheInvalidatedByReplicationApply: an intermediate admitted over a
// cached view goes stale when the distribution agent applies a backend
// write, and the next plain execution recomputes against the updated view.
// The write is sent through the cache, which forwards it and changes nothing
// of its own: until apply, the cache answers as it does with no result cache.
func TestIMCacheInvalidatedByReplicationApply(t *testing.T) {
	_, c := imcacheSetup(t)
	const q = "SELECT COUNT(*) AS n FROM customer WHERE csegment = 2"
	count := func() int64 {
		t.Helper()
		res, err := c.Exec(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows[0][0].Int()
	}
	var baseN int64
	for i := 0; i < 3; i++ {
		baseN = count()
	}
	if baseN == 0 {
		t.Fatal("baseline count is zero; fixture changed?")
	}

	if _, err := c.Exec("INSERT INTO customer (cid, cname, caddress, csegment) VALUES (9001, 'new', 'addr', 2)", nil); err != nil {
		t.Fatal(err)
	}
	served := count()
	c.DB.SetIMCacheEnabled(false)
	computed := count()
	c.DB.SetIMCacheEnabled(true)
	if served != computed {
		t.Fatalf("before apply the cache answered %d, and %d with the result cache off", served, computed)
	}
	for i := 0; i < 2; i++ {
		count() // admitted again
	}

	invBefore := metrics.Default.Counter("imcache.invalidations").Value()
	if _, err := c.Pull(); err != nil {
		t.Fatal(err)
	}
	if got := metrics.Default.Counter("imcache.invalidations").Value(); got == invBefore {
		t.Fatal("replication apply did not invalidate the intermediate")
	}
	if n := count(); n != baseN+1 {
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
// of the statement's cached plan: the one its deparse keys, which every
// ExecStmt of the statement runs.
func TestIMCacheDropsResultRacingReplicationApply(t *testing.T) {
	b, c := imcacheSetup(t)
	stmt := sql.MustParseSelect("SELECT COUNT(*) AS n FROM customer")
	plan, err := c.DB.Plan(stmt)
	if err != nil {
		t.Fatal(err)
	}
	gate := &gateExpr{entered: make(chan struct{}), release: make(chan struct{})}
	plan.Root = &exec.Filter{Input: plan.Root, Pred: gate}

	first, err := c.DB.ExecStmt(stmt, nil) // one execution on record: the next admits
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
		res, err := c.DB.ExecStmt(stmt, nil)
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
	if _, err := c.Pull(); err != nil { // apply + invalidate land
		t.Fatal(err)
	}
	close(gate.release)
	if a := <-done; a.err != nil || a.n != baseN {
		t.Fatalf("parked execution: n=%d err=%v, want its snapshot's %d", a.n, a.err, baseN)
	}

	res, err := c.DB.ExecStmt(stmt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Rows[0][0].Int(); n != baseN+1 {
		t.Fatalf("pre-apply rows admitted as fresh: next read saw %d, want %d", n, baseN+1)
	}
}

// TestInvalidatedResultNeverServed: once replication has applied a write to
// a result's lineage, the result is not served again, whatever bound a
// statement accepts. The cache's views are current, so a bounded read answers
// from them — with the write — rather than from a result older than they are.
func TestInvalidatedResultNeverServed(t *testing.T) {
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
	if _, err := c.Pull(); err != nil {
		t.Fatal(err)
	}

	for _, bound := range []string{" WITH FRESHNESS 300", " WITH FRESHNESS 0.1", ""} {
		res, err := c.Exec(q+bound, nil)
		if err != nil {
			t.Fatal(err)
		}
		if n := res.Rows[0][0].Int(); n != baseN+1 {
			t.Fatalf("%q after the apply: %d, want %d", bound, n, baseN+1)
		}
	}
}

// TestResultCacheHitReportsCacheStaleness: a result-cache hit on a cache was
// read from its cached views, so it reports the cache's staleness — what a
// plan run of the statement would — not the age of the entry.
func TestResultCacheHitReportsCacheStaleness(t *testing.T) {
	_, c := imcacheSetup(t)
	const q = "SELECT COUNT(*) AS n FROM customer WHERE csegment = 1"
	for i := 0; i < 2; i++ { // the second execution admits
		if _, err := c.Exec(q, nil); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(30 * time.Millisecond) // no pull: the cache falls behind
	_, rec, err := c.DB.ExecSessionTraced(q, nil, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Tier != trace.TierIMCache || rec.Staleness < 0.03 {
		t.Fatalf("hit: tier %s, staleness %v; want imcache and at least the 30 ms without a pull", rec.Tier, rec.Staleness)
	}
}

// TestIMCacheNoSubsumption: an admitted result answers its own statement and
// nothing else. A narrower query the admitted one subsumes is planned against
// the cached view like any other, so after replication applies an update it
// sees the new row, with or without a freshness allowance — as does the
// admitted statement itself, whose invalidated entry is never served.
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
	if _, err := c.Pull(); err != nil {
		t.Fatal(err)
	}

	res, err := c.Exec(wide+" WITH FRESHNESS 300", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Str(); got != "renamed" {
		t.Fatalf("admitted statement under a bound: got %q, want the replicated update, not the invalidated %q", got, old)
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
	if _, err := c.Pull(); err != nil {
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
	entries := c.DB.IMCache().Snapshot()
	if len(entries) != 1 || !slices.EqualFunc(entries[0].Vals, []types.Value{types.NewInt(7)}, types.Identical) || entries[0].Hits == 0 {
		t.Fatalf("want one entry, for the in-guard literal, with hits; got %+v", entries)
	}
	if res, err := c.DB.Exec("SELECT literals FROM sys.intermediate_results", nil); err != nil ||
		len(res.Rows) != 1 || res.Rows[0][0].Str() != "7" {
		t.Fatalf("sys.intermediate_results literals: %v, %v; want one row reading 7", res, err)
	}

	if _, err := b.Exec("UPDATE customer SET cname = 'renamed' WHERE cid = 7", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Pull(); err != nil {
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
