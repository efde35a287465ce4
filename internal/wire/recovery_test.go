package wire

import (
	"fmt"
	"testing"
	"time"

	"mtcache/internal/core"
	"mtcache/internal/metrics"
)

// TestCacheRestartResumesFromCheckpoint is the deployed-pair recovery test:
// a cache with a data directory checkpoints its state, "crashes" (the
// process object is discarded), and a replacement cache over the same data
// directory re-creates the same cached view. The replacement must restore
// the view from its local checkpoint and resume the change stream at the
// checkpointed LSN — observable as a wire.view_resumed count with no new
// wire.view_seeded — and immediately serve every pre-crash commit
// (read-your-writes across the restart). Commits made while the cache was
// down arrive through the resumed stream, not a reseed.
func TestCacheRestartResumesFromCheckpoint(t *testing.T) {
	b, srv := newWiredBackend(t)
	dir := t.TempDir()
	ddl := "CREATE CACHED VIEW tires AS SELECT id, name, qty FROM part WHERE type = 'Tire'"

	seeded := metrics.Default.Counter("wire.view_seeded")
	resumed := metrics.Default.Counter("wire.view_resumed")
	seeded0, resumed0 := seeded.Value(), resumed.Value()

	c1 := dial(t, srv)
	rc1, err := NewRemoteCacheDurable("cache", c1, nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := rc1.CreateCachedView(ddl); err != nil {
		t.Fatal(err)
	}
	if seeded.Value() != seeded0+1 {
		t.Fatalf("fresh cache did not seed: %d", seeded.Value()-seeded0)
	}

	// Commit through the cache (forwarded DML), pull it back, checkpoint.
	if _, err := rc1.DB.Exec("INSERT INTO part (id, name, type, qty) VALUES (5001, 'precrash', 'Tire', 42)", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := rc1.Pull(); err != nil {
		t.Fatal(err)
	}
	preLSN := rc1.AppliedLSN()
	if preLSN == 0 {
		t.Fatal("no LSN applied before the checkpoint")
	}
	if err := rc1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Crash: no graceful shutdown, just drop the process state. (The wire
	// connection closing is the only thing the backend observes.)
	c1.Close()

	// A commit lands while the cache is down.
	if _, err := b.Exec("INSERT INTO part (id, name, type, qty) VALUES (5002, 'downtime', 'Tire', 43)", nil); err != nil {
		t.Fatal(err)
	}

	// Replacement process: same name, same data directory, same view DDL.
	c2 := dial(t, srv)
	rc2, err := NewRemoteCacheDurable("cache", c2, nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := rc2.CreateCachedView(ddl); err != nil {
		t.Fatal(err)
	}
	if resumed.Value() != resumed0+1 {
		t.Fatalf("restarted cache did not resume (resumed=%d)", resumed.Value()-resumed0)
	}
	if seeded.Value() != seeded0+1 {
		t.Fatalf("restarted cache reseeded instead of resuming (seeded=%d)", seeded.Value()-seeded0)
	}
	if got := rc2.AppliedLSN(); got != preLSN {
		t.Fatalf("resume cursor %d, want checkpointed %d", got, preLSN)
	}

	// Read-your-writes for pre-crash commits, straight from the local
	// checkpoint — before any pull.
	res, err := rc2.DB.Exec("SELECT qty FROM part WHERE type = 'Tire' AND id = 5001", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 42 {
		t.Fatalf("pre-crash commit not visible after restart: %v", res.Rows)
	}
	if res.Counters.RemoteQueries != 0 {
		t.Fatalf("pre-crash read went remote (%d remote queries)", res.Counters.RemoteQueries)
	}
	// How old the checkpoint is, is not known: a bounded read goes to the
	// backend, and sees the downtime commit, until the first pull round.
	res, err = rc2.DB.Exec("SELECT qty FROM part WHERE type = 'Tire' AND id = 5002 WITH FRESHNESS 60", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 43 {
		t.Fatalf("bounded read before any pull answered from the checkpoint: %v, want the downtime row", res.Rows)
	}

	// The downtime commit arrives through the resumed stream.
	if _, err := rc2.Pull(); err != nil {
		t.Fatal(err)
	}
	res, err = rc2.DB.Exec("SELECT qty FROM part WHERE type = 'Tire' AND id = 5002", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 43 {
		t.Fatalf("downtime commit not delivered on the resumed stream: %v", res.Rows)
	}
	if got, want := rc2.DB.TableRowCount("tires"), 252; got != want {
		t.Fatalf("view has %d rows after resume, want %d", got, want)
	}
}

// TestCacheRestartReseedsWhenBackendForgot covers the fallback: when the
// backend restarted too (losing subscriptions and log), resume is refused
// and the cache transparently reseeds from a fresh snapshot.
func TestCacheRestartReseedsWhenBackendForgot(t *testing.T) {
	_, srv := newWiredBackend(t)
	dir := t.TempDir()
	ddl := "CREATE CACHED VIEW tires AS SELECT id, name, qty FROM part WHERE type = 'Tire'"

	c1 := dial(t, srv)
	rc1, err := NewRemoteCacheDurable("cache", c1, nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := rc1.CreateCachedView(ddl); err != nil {
		t.Fatal(err)
	}
	if _, err := rc1.Pull(); err != nil {
		t.Fatal(err)
	}
	if err := rc1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	c1.Close()

	// Replace the whole backend: a brand-new server with the same schema but
	// no subscriptions and a much shorter log (100 rows, so the old
	// checkpoint's ~1000 LSN lies past its WAL end). The cache's resume
	// position is meaningless here and must be refused.
	b2 := core.NewBackend("backend")
	if err := b2.ExecScript(`
		CREATE TABLE part (
			id INT PRIMARY KEY,
			name VARCHAR(40) NOT NULL,
			type VARCHAR(20),
			qty INT
		);
	`); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 100; i++ {
		typ := "Tire"
		if i%4 != 0 {
			typ = "Bolt"
		}
		stmt := fmt.Sprintf("INSERT INTO part (id, name, type, qty) VALUES (%d, 'part%d', '%s', %d)", i, i, typ, i)
		if _, err := b2.Exec(stmt, nil); err != nil {
			t.Fatal(err)
		}
	}
	b2.DB.Analyze()
	srv2, err := Serve(b2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv2.Close)

	seeded := metrics.Default.Counter("wire.view_seeded")
	seeded0 := seeded.Value()
	c2 := dial(t, srv2)
	rc2, err := NewRemoteCacheDurable("cache", c2, nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := rc2.CreateCachedView(ddl); err != nil {
		t.Fatal(err)
	}
	if seeded.Value() != seeded0+1 {
		t.Fatal("cache did not reseed against the replaced backend")
	}
	if got := rc2.DB.TableRowCount("tires"); got != 25 {
		t.Fatalf("reseeded view has %d rows, want 25", got)
	}
	// And the reseeded subscription streams normally.
	if _, err := b2.Exec("UPDATE part SET qty = 777 WHERE id = 4", nil); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := rc2.Pull(); err != nil {
			t.Fatal(err)
		}
		res, err := rc2.DB.Exec("SELECT qty FROM part WHERE type = 'Tire' AND id = 4", nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) == 1 && res.Rows[0][0].Int() == 777 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("update never arrived on the reseeded subscription")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCacheRestartResumesEveryViewFromTheOneLSN: a checkpoint holds one LSN
// for all of a cache's views, and a restart resumes each of them there — no
// reseed — onto one subscription. A transaction committed while the cache was
// down that moves a row from one view to the other arrives whole.
func TestCacheRestartResumesEveryViewFromTheOneLSN(t *testing.T) {
	b, srv := newWiredBackend(t)
	dir := t.TempDir()
	ddls := []string{
		"CREATE CACHED VIEW tires AS SELECT id, name, qty FROM part WHERE type = 'Tire'",
		"CREATE CACHED VIEW bolts AS SELECT id, name, qty FROM part WHERE type = 'Bolt'",
	}
	start := func() *RemoteCache {
		t.Helper()
		rc, err := NewRemoteCacheDurable("cache", dial(t, srv), nil, dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, ddl := range ddls {
			if err := rc.CreateCachedView(ddl); err != nil {
				t.Fatal(err)
			}
		}
		return rc
	}
	rc1 := start()
	if _, err := b.Exec("UPDATE part SET type = 'Tire' WHERE id = 1", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := rc1.Pull(); err != nil {
		t.Fatal(err)
	}
	preLSN := rc1.AppliedLSN()
	if err := rc1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Crash, and a commit lands while the cache is down.
	if _, err := b.Exec("UPDATE part SET type = 'Tire' WHERE id = 2", nil); err != nil {
		t.Fatal(err)
	}

	seeded := metrics.Default.Counter("wire.view_seeded")
	resumed := metrics.Default.Counter("wire.view_resumed")
	seeded0, resumed0 := seeded.Value(), resumed.Value()
	rc2 := start()
	if resumed.Value() != resumed0+2 || seeded.Value() != seeded0 {
		t.Fatalf("restart resumed %d and seeded %d views, want 2 and 0", resumed.Value()-resumed0, seeded.Value()-seeded0)
	}
	if got := rc2.AppliedLSN(); got != preLSN {
		t.Fatalf("resume cursor %d, want the checkpointed %d", got, preLSN)
	}
	if n := len(b.Repl.Health(time.Now())); n != 1 {
		t.Fatalf("%d subscriptions after the restart, want the cache's one", n)
	}
	if n, err := rc2.Pull(); err != nil || n != 1 {
		t.Fatalf("pull after the restart applied %d transactions, err %v; want the one downtime commit", n, err)
	}
	if tires, bolts := rc2.DB.TableRowCount("tires"), rc2.DB.TableRowCount("bolts"); tires != 252 || bolts != 748 {
		t.Fatalf("views hold %d tires and %d bolts after the resume, want 252 and 748", tires, bolts)
	}
}

// TestCacheRestartBehindItsAcknowledgements: a cache that checkpoints, then
// applies and acknowledges a later transaction, then crashes, restarts from a
// checkpoint that is behind what the backend has already dropped from its
// queue. It must get that transaction again (or reseed) — not reattach to the
// queue after it and report itself current with a row missing.
func TestCacheRestartBehindItsAcknowledgements(t *testing.T) {
	b, srv := newWiredBackend(t)
	dir := t.TempDir()
	ddl := "CREATE CACHED VIEW tires AS SELECT id, name, qty FROM part WHERE type = 'Tire'"
	start := func() *RemoteCache {
		t.Helper()
		rc, err := NewRemoteCacheDurable("cache", dial(t, srv), nil, dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := rc.CreateCachedView(ddl); err != nil {
			t.Fatal(err)
		}
		return rc
	}
	rc1 := start()
	if err := rc1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	res, err := b.Exec("INSERT INTO part (id, name, type, qty) VALUES (5001, 'acked', 'Tire', 1)", nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // apply, then acknowledge
		if _, err := rc1.Pull(); err != nil {
			t.Fatal(err)
		}
	}

	rc2 := start()
	for i := 0; i < 3; i++ {
		if _, err := rc2.Pull(); err != nil {
			t.Fatal(err)
		}
	}
	if rc2.AppliedLSN() < res.CommitLSN {
		t.Fatalf("restarted cache applied through %d, the acknowledged commit is %d", rc2.AppliedLSN(), res.CommitLSN)
	}
	if got := rc2.DB.TableRowCount("tires"); got != 251 {
		t.Fatalf("restarted cache holds %d tires and reports itself current; the backend has 251", got)
	}
}
