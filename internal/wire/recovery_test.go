package wire

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mtcache/internal/core"
	"mtcache/internal/metrics"
	"mtcache/internal/resilience"
	"mtcache/internal/storage"
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

// TestDurableBackendRestartReattaches: a backend restarted from its directory
// forgets its subscriptions but keeps its log. A cache on a resilient client
// pulls across the restart, is told it has no subscription, and attaches
// its view again: resumed, with no seed, while the log still holds the
// cache's next LSN, and seeded once a checkpoint and truncation have dropped
// it. Either way the view ends equal to what the backend selects.
func TestDurableBackendRestartReattaches(t *testing.T) {
	dir := t.TempDir()
	open := func() *core.BackendServer {
		t.Helper()
		b, err := core.NewBackendDurable("backend", storage.DurabilityOptions{Dir: dir, SegmentBytes: 1})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	b := open()
	exec := func(text string) {
		t.Helper()
		if _, err := b.Exec(text, nil); err != nil {
			t.Fatal(err)
		}
	}
	exec("CREATE TABLE part (id INT PRIMARY KEY, name VARCHAR(40) NOT NULL, type VARCHAR(20), qty INT)")
	for i := 1; i <= 40; i++ {
		exec(fmt.Sprintf("INSERT INTO part (id, name, type, qty) VALUES (%d, 'part%d', 'Tire', %d)", i, i, i))
	}
	srv, err := Serve(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	// restart stops the backend and serves the one its directory recovers on
	// the same address.
	restart := func() {
		t.Helper()
		srv.Close()
		if err := b.DB.CloseStore(); err != nil {
			t.Fatal(err)
		}
		b = open()
		if srv, err = Serve(b, addr); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		srv.Close()
		b.DB.CloseStore() //nolint:errcheck
	})

	policy := resilience.DefaultPolicy()
	policy.MaxAttempts = 20
	policy.BaseDelay = 2 * time.Millisecond
	policy.MaxDelay = 20 * time.Millisecond
	client, err := DialResilient(addr, policy, metrics.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	rc, err := NewRemoteCache("cache", client, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := rc.CreateCachedView("CREATE CACHED VIEW tires AS SELECT id, qty FROM part WHERE type = 'Tire'"); err != nil {
		t.Fatal(err)
	}
	current := func(what string) {
		t.Helper()
		for range 2 { // apply, then acknowledge
			if _, err := rc.Pull(); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		}
		if got, want := rc.DB.TableRowCount("tires"), b.DB.TableRowCount("part"); got != want {
			t.Fatalf("%s: the view holds %d rows, the backend %d", what, got, want)
		}
		if got, want := rc.AppliedLSN(), b.DB.Store().VisibleEnd()-1; got != want {
			t.Fatalf("%s: the cache stands at %d, the backend's log ends at %d", what, got, want)
		}
	}
	exec("INSERT INTO part (id, name, type, qty) VALUES (41, 'p', 'Tire', 1)")
	current("before any restart")

	seeded := metrics.Default.Counter("wire.view_seeded")
	resumed := metrics.Default.Counter("wire.view_resumed")
	reattached := metrics.Default.Counter("wire.views_reattached")
	seeded0, resumed0, reattached0 := seeded.Value(), resumed.Value(), reattached.Value()
	restart()
	exec("INSERT INTO part (id, name, type, qty) VALUES (42, 'p', 'Tire', 1)")
	if _, err := rc.Pull(); err != nil {
		t.Fatal(err)
	}
	if got, want := rc.AppliedLSN(), b.DB.Store().VisibleEnd()-1; got != want {
		t.Fatalf("the pull that re-attached left the cache at %d, the backend's log ends at %d", got, want)
	}
	current("after a restart that kept the cache's position")
	if seeded.Value() != seeded0 || resumed.Value() != resumed0+1 || reattached.Value() != reattached0+1 {
		t.Fatalf("re-attached %d times, resuming %d views and seeding %d; want 1, 1 and 0",
			reattached.Value()-reattached0, resumed.Value()-resumed0, seeded.Value()-seeded0)
	}

	exec("INSERT INTO part (id, name, type, qty) VALUES (43, 'p', 'Tire', 1)")
	if _, err := b.DB.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	restart()
	b.Repl.TruncateLog() // no subscription holds the log: down to the checkpoint
	if first := b.DB.Store().WAL().First(); first <= rc.AppliedLSN()+1 {
		t.Fatalf("the log still holds %d, the cache's next LSN is %d", first, rc.AppliedLSN()+1)
	}
	current("after a restart past the cache's position")
	if seeded.Value() != seeded0+1 || resumed.Value() != resumed0+1 || reattached.Value() != reattached0+2 {
		t.Fatalf("re-attached %d times, resuming %d views and seeding %d; want 2, 1 and 1",
			reattached.Value()-reattached0, resumed.Value()-resumed0, seeded.Value()-seeded0)
	}

	// Two restarts, each with a commit, while the cache pulls nothing: the
	// re-attach resumes, and its answer names the positions both incarnations
	// wrote past the cache, so that after a third restart the cache resumes
	// again from a position the last of them wrote.
	seeded0, resumed0, reattached0 = seeded.Value(), resumed.Value(), reattached.Value()
	for id := 44; id <= 45; id++ {
		restart()
		exec(fmt.Sprintf("INSERT INTO part (id, name, type, qty) VALUES (%d, 'p', 'Tire', 1)", id))
	}
	current("after two restarts, each with a commit")
	restart()
	exec("INSERT INTO part (id, name, type, qty) VALUES (46, 'p', 'Tire', 1)")
	current("after a third restart")
	if seeded.Value() != seeded0 || resumed.Value() != resumed0+2 || reattached.Value() != reattached0+2 {
		t.Fatalf("re-attached %d times, resuming %d views and seeding %d; want 2, 2 and 0",
			reattached.Value()-reattached0, resumed.Value()-resumed0, seeded.Value()-seeded0)
	}
}

// TestRestoredBackendReseedsACacheAheadOfIt: durable backend A holds 50 parts,
// qty = id, and its closed directory is copied — the backup. A cache of A
// pulls ten updates (qty = 1000 + id for ids 1–10), and A closes. Backend B
// opens the backup, commits 20 other updates and serves on A's address. When
// the backup was taken before the cache's position, B's log holds that
// position with other commits in it, written under an ID the cache never saw:
// the re-attach seeds the view from B, and the cache reads B's qty. When the
// backup was taken after it, B's log holds the commits the cache applied, and
// the cache resumes.
func TestRestoredBackendReseedsACacheAheadOfIt(t *testing.T) {
	for _, tc := range []struct {
		name        string
		backupAfter bool
		qty1        int64 // id 1's qty in B
	}{
		{"backup before the cache's position", false, 1},
		{"backup after the cache's position", true, 1001},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir, backup := t.TempDir(), t.TempDir()
			open := func(dir string) *core.BackendServer {
				t.Helper()
				b, err := core.NewBackendDurable("backend", storage.DurabilityOptions{Dir: dir})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { b.DB.CloseStore() }) //nolint:errcheck
				return b
			}
			exec := func(b *core.BackendServer, text string) {
				t.Helper()
				if _, err := b.Exec(text, nil); err != nil {
					t.Fatal(err)
				}
			}
			copyDir := func() {
				t.Helper()
				names, err := os.ReadDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range names {
					data, err := os.ReadFile(filepath.Join(dir, e.Name()))
					if err == nil {
						err = os.WriteFile(filepath.Join(backup, e.Name()), data, 0o644)
					}
					if err != nil {
						t.Fatal(err)
					}
				}
			}
			a := open(dir)
			exec(a, "CREATE TABLE part (id INT PRIMARY KEY, name VARCHAR(40) NOT NULL, type VARCHAR(20), qty INT)")
			for i := 1; i <= 50; i++ {
				exec(a, fmt.Sprintf("INSERT INTO part (id, name, type, qty) VALUES (%d, 'p', 'Tire', %d)", i, i))
			}
			if !tc.backupAfter {
				if err := a.DB.CloseStore(); err != nil {
					t.Fatal(err)
				}
				copyDir()
				a = open(dir)
			}
			srv, err := Serve(a, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			addr := srv.Addr()
			policy := resilience.DefaultPolicy()
			policy.MaxAttempts = 20
			policy.BaseDelay = 2 * time.Millisecond
			policy.MaxDelay = 20 * time.Millisecond
			client, err := DialResilient(addr, policy, metrics.NewRegistry())
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			rc, err := NewRemoteCache("cache", client, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := rc.CreateCachedView("CREATE CACHED VIEW tires AS SELECT id, qty FROM part WHERE type = 'Tire'"); err != nil {
				t.Fatal(err)
			}
			for i := 1; i <= 10; i++ {
				exec(a, fmt.Sprintf("UPDATE part SET qty = %d WHERE id = %d", 1000+i, i))
			}
			for range 2 { // apply, then acknowledge
				if _, err := rc.Pull(); err != nil {
					t.Fatal(err)
				}
			}
			if got, end := rc.AppliedLSN(), a.DB.Store().VisibleEnd(); got != end-1 {
				t.Fatalf("the cache stands at %d, A's log ends at %d", got, end)
			}
			srv.Close()
			if err := a.DB.CloseStore(); err != nil {
				t.Fatal(err)
			}
			if tc.backupAfter {
				copyDir()
			}

			b := open(backup)
			for i := 21; i <= 40; i++ {
				exec(b, fmt.Sprintf("UPDATE part SET qty = %d WHERE id = %d", 2000+i, i))
			}
			if end := b.DB.Store().VisibleEnd(); end <= rc.AppliedLSN()+1 {
				t.Fatalf("B's log ends at %d, the cache stands at %d: the case lost its point", end, rc.AppliedLSN())
			}
			srv2, err := Serve(b, addr)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(srv2.Close)

			seeded := metrics.Default.Counter("wire.view_seeded")
			resumed := metrics.Default.Counter("wire.view_resumed")
			seeded0, resumed0 := seeded.Value(), resumed.Value()
			for range 2 {
				if _, err := rc.Pull(); err != nil {
					t.Fatal(err)
				}
			}
			want := [2]int64{1, 0} // seeded, resumed
			if tc.backupAfter {
				want = [2]int64{0, 1}
			}
			if got := [2]int64{seeded.Value() - seeded0, resumed.Value() - resumed0}; got != want {
				t.Fatalf("the re-attach to B seeded %d views and resumed %d; want %d and %d", got[0], got[1], want[0], want[1])
			}
			for _, id := range []int{1, 30} {
				res, err := rc.DB.Exec(fmt.Sprintf("SELECT qty FROM tires WHERE id = %d", id), nil)
				if err != nil {
					t.Fatal(err)
				}
				bres, err := b.Exec(fmt.Sprintf("SELECT qty FROM part WHERE id = %d", id), nil)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Rows) != 1 || len(bres.Rows) != 1 || res.Rows[0][0].Int() != bres.Rows[0][0].Int() {
					t.Fatalf("the cache reads qty %v for id %d; B holds %v", res.Rows, id, bres.Rows)
				}
			}
			if res, err := rc.DB.Exec("SELECT qty FROM tires WHERE id = 1", nil); err != nil || len(res.Rows) != 1 || res.Rows[0][0].Int() != tc.qty1 {
				t.Fatalf("the cache reads qty %v for id 1 (%v); want %d", res.Rows, err, tc.qty1)
			}
		})
	}
}

// TestReattachToABackendThatLostItsLog: a backend replaced by a new in-memory
// one has a log that started over, with other data. When that log ends below
// the cache's position the cache is ahead of it; when it runs past it, the
// position names the new log's commits, not the ones the cache applied.
// Either way the re-attach seeds the views, and moves the cache's cursor to
// the new log's position, so the commits the new backend makes next arrive
// rather than being taken for ones the cache already applied.
func TestReattachToABackendThatLostItsLog(t *testing.T) {
	for _, rows := range []int{20, 1010} {
		t.Run(fmt.Sprintf("%d rows", rows), func(t *testing.T) {
			_, srv := newWiredBackend(t)
			addr := srv.Addr()
			policy := resilience.DefaultPolicy()
			policy.MaxAttempts = 20
			policy.BaseDelay = 2 * time.Millisecond
			policy.MaxDelay = 20 * time.Millisecond
			client, err := DialResilient(addr, policy, metrics.NewRegistry())
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			rc, err := NewRemoteCache("cache", client, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := rc.CreateCachedView("CREATE CACHED VIEW tires AS SELECT id, qty FROM part WHERE type = 'Tire'"); err != nil {
				t.Fatal(err)
			}
			srv.Close()

			b2 := core.NewBackend("backend")
			if err := b2.ExecScript("CREATE TABLE part (id INT PRIMARY KEY, name VARCHAR(40) NOT NULL, type VARCHAR(20), qty INT);"); err != nil {
				t.Fatal(err)
			}
			for i := 1; i <= rows; i++ {
				if _, err := b2.Exec(fmt.Sprintf("INSERT INTO part (id, name, type, qty) VALUES (%d, 'p', 'Tire', %d)", i, 2*i), nil); err != nil {
					t.Fatal(err)
				}
			}
			srv2, err := Serve(b2, addr)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(srv2.Close)
			seeded := metrics.Default.Counter("wire.view_seeded")
			seeded0 := seeded.Value()
			if _, err := rc.Pull(); err != nil {
				t.Fatal(err)
			}
			if got, end := rc.AppliedLSN(), b2.DB.Store().VisibleEnd(); got != end-1 || seeded.Value() != seeded0+1 {
				t.Fatalf("after the re-attach the cache stands at %d having seeded %d views; the new backend's log ends at %d",
					got, seeded.Value()-seeded0, end)
			}
			if _, err := b2.Exec("UPDATE part SET qty = 777 WHERE id = 4", nil); err != nil {
				t.Fatal(err)
			}
			if _, err := rc.Pull(); err != nil {
				t.Fatal(err)
			}
			res, err := rc.DB.Exec("SELECT qty FROM tires WHERE id = 4", nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != 1 || res.Rows[0][0].Int() != 777 || rc.DB.TableRowCount("tires") != rows {
				t.Fatalf("the view holds %d rows and qty %v for id 4, want %d rows and 777", rc.DB.TableRowCount("tires"), res.Rows, rows)
			}
			res, err = rc.DB.Exec("SELECT qty FROM tires WHERE id = 8", nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != 1 || res.Rows[0][0].Int() != 16 {
				t.Fatalf("the view holds qty %v for id 8; the new backend holds 16", res.Rows)
			}
		})
	}
}

// TestReattachResumesOnlyTheLogItApplied: a cache resumes only on the log it
// applied. Backend A holds 50 parts, qty = id, and the cache one view of
// them; then A goes and backend B serves on its address, with the same
// schema and other data (qty = 2·id). The cache's next pull finds no
// subscription and re-attaches asking to resume where it stands in A's log.
// B's log holds that position — a durable B's runs past it, an in-memory B's
// ends exactly there — but it is another log: the view is seeded from B, and
// the cache reads B's qty.
func TestReattachResumesOnlyTheLogItApplied(t *testing.T) {
	for _, tc := range []struct {
		name    string
		durable bool
		extra   int // B's commits past the 51 (DDL and 50 inserts) A's log holds
	}{
		{"durable backend swapped behind the address, longer log", true, 20},
		{"in-memory backend whose log ends at the cache's position", false, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			open := func(mult int) *core.BackendServer {
				t.Helper()
				var b *core.BackendServer
				if tc.durable {
					var err error
					if b, err = core.NewBackendDurable("backend", storage.DurabilityOptions{Dir: t.TempDir()}); err != nil {
						t.Fatal(err)
					}
				} else {
					b = core.NewBackend("backend")
				}
				t.Cleanup(func() { b.DB.CloseStore() }) //nolint:errcheck
				if err := b.ExecScript("CREATE TABLE part (id INT PRIMARY KEY, name VARCHAR(40) NOT NULL, type VARCHAR(20), qty INT);"); err != nil {
					t.Fatal(err)
				}
				for i := 1; i <= 50; i++ {
					if _, err := b.Exec(fmt.Sprintf("INSERT INTO part (id, name, type, qty) VALUES (%d, 'p', 'Tire', %d)", i, mult*i), nil); err != nil {
						t.Fatal(err)
					}
				}
				return b
			}
			a := open(1)
			srv, err := Serve(a, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			addr := srv.Addr()
			policy := resilience.DefaultPolicy()
			policy.MaxAttempts = 20
			policy.BaseDelay = 2 * time.Millisecond
			policy.MaxDelay = 20 * time.Millisecond
			client, err := DialResilient(addr, policy, metrics.NewRegistry())
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			rc, err := NewRemoteCache("cache", client, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := rc.CreateCachedView("CREATE CACHED VIEW tires AS SELECT id, qty FROM part WHERE type = 'Tire'"); err != nil {
				t.Fatal(err)
			}
			srv.Close()
			if err := a.DB.CloseStore(); err != nil {
				t.Fatal(err)
			}

			b := open(2)
			for i := 1; i <= tc.extra; i++ {
				if _, err := b.Exec(fmt.Sprintf("INSERT INTO part (id, name, type, qty) VALUES (%d, 'p', 'Tire', %d)", 100+i, 2*(100+i)), nil); err != nil {
					t.Fatal(err)
				}
			}
			if end, at := b.DB.Store().VisibleEnd(), rc.AppliedLSN(); (end == at+1) != (tc.extra == 0) {
				t.Fatalf("B's log ends at %d, the cache stands at %d: the case lost its point", end, at)
			}
			srv2, err := Serve(b, addr)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(srv2.Close)

			seeded := metrics.Default.Counter("wire.view_seeded")
			resumed := metrics.Default.Counter("wire.view_resumed")
			seeded0, resumed0 := seeded.Value(), resumed.Value()
			if _, err := rc.Pull(); err != nil {
				t.Fatal(err)
			}
			if seeded.Value() != seeded0+1 || resumed.Value() != resumed0 {
				t.Fatalf("the re-attach to B seeded %d views and resumed %d; want 1 and 0",
					seeded.Value()-seeded0, resumed.Value()-resumed0)
			}
			res, err := rc.DB.Exec("SELECT qty FROM tires WHERE id = 4", nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != 1 || res.Rows[0][0].Int() != 8 {
				t.Fatalf("the cache reads qty %v for id 4; B holds 8", res.Rows)
			}
			if got, want := rc.DB.TableRowCount("tires"), b.DB.TableRowCount("part"); got != want {
				t.Fatalf("the view holds %d rows, B %d", got, want)
			}
		})
	}
}
