package wire

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"mtcache/internal/core"
	"mtcache/internal/exec"
	"mtcache/internal/metrics"
	"mtcache/internal/resilience"
	"mtcache/internal/types"
)

// chaosRig is a full stack with a fault-injecting proxy in the middle:
// backend <- wire server <- proxy <- resilient client <- remote cache.
type chaosRig struct {
	backend *core.BackendServer
	srv     *Server
	proxy   *FaultProxy
	client  *ResilientClient
	cache   *RemoteCache
}

// newChaosRig builds the rig with a 5000-row part table, a qty index that
// exists only on the backend (so qty queries plan remote and must cross the
// faulty link) and a cached view covering the whole table (so those same
// queries can degrade onto local data when the backend is gone).
func newChaosRig(t *testing.T, policy resilience.Policy) *chaosRig {
	t.Helper()
	b := core.NewBackend("backend")
	err := b.ExecScript(`
		CREATE TABLE part (id INT PRIMARY KEY, name VARCHAR(40) NOT NULL, qty INT);
		CREATE INDEX idx_qty ON part(qty);
	`)
	if err != nil {
		t.Fatal(err)
	}
	var rows []types.Row
	for i := 1; i <= 5000; i++ {
		rows = append(rows, types.Row{
			types.NewInt(int64(i)),
			types.NewString(fmt.Sprintf("part%d", i)),
			types.NewInt(int64(i)),
		})
	}
	if err := b.DB.BulkLoad("part", rows); err != nil {
		t.Fatal(err)
	}
	b.DB.Analyze()

	srv, err := Serve(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := NewFaultProxy("127.0.0.1:0", srv.Addr(), 42)
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	client, err := DialResilient(proxy.Addr(), policy, metrics.NewRegistry())
	if err != nil {
		proxy.Close()
		srv.Close()
		t.Fatal(err)
	}
	cache, err := NewRemoteCache("cache1", client, nil)
	if err == nil {
		err = cache.CreateCachedView(`CREATE CACHED VIEW cv_part AS SELECT id, name, qty FROM part`)
	}
	if err != nil {
		client.Close()
		proxy.Close()
		srv.Close()
		t.Fatal(err)
	}
	rig := &chaosRig{backend: b, srv: srv, proxy: proxy, client: client, cache: cache}
	t.Cleanup(rig.close)
	return rig
}

func (r *chaosRig) close() {
	r.cache.StopPulling()
	r.client.Close()
	r.proxy.Close()
	r.srv.Close()
}

func chaosPolicy() resilience.Policy {
	p := resilience.DefaultPolicy()
	p.MaxAttempts = 12
	p.BaseDelay = 5 * time.Millisecond
	p.MaxDelay = 80 * time.Millisecond
	return p
}

// TestChaosWorkloadZeroErrors is the headline chaos test: with 10% chunk
// drops and 50ms added latency per chunk, a 500-query mixed workload (remote
// qty lookups and local id lookups) must complete with zero
// application-visible errors — every transport failure is absorbed by the
// retry/re-dial layer.
func TestChaosWorkloadZeroErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos workload is slow")
	}
	rig := newChaosRig(t, chaosPolicy())
	rig.proxy.SetFaults(FaultConfig{DropRate: 0.10, Delay: 50 * time.Millisecond})

	const queries = 500
	const workers = 16
	var wg sync.WaitGroup
	errs := make(chan error, queries)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for q := w; q < queries; q += workers {
				var err error
				if q%2 == 0 {
					// Remote plan: crosses the faulty link.
					_, err = rig.cache.DB.Exec("SELECT name FROM part WHERE qty = @q",
						exec.Params{"q": types.NewInt(int64(q%5000) + 1)})
				} else {
					// Local plan: served by the cached view's index.
					_, err = rig.cache.DB.Exec("SELECT name FROM part WHERE id = @id",
						exec.Params{"id": types.NewInt(int64(q%5000) + 1)})
				}
				if err != nil {
					errs <- fmt.Errorf("query %d: %w", q, err)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	failures := 0
	for err := range errs {
		failures++
		t.Error(err)
	}
	if failures > 0 {
		t.Fatalf("%d/%d queries failed under chaos (want 0)", failures, queries)
	}
	if rig.proxy.Stats().Drops == 0 {
		t.Fatal("proxy injected no faults; the test exercised nothing")
	}
}

// viewQtyByID reads a cached view's rows straight from storage (bypassing
// the planner, so the faulty link cannot interfere with the check).
func viewQtyByID(t *testing.T, rc *RemoteCache, view string) map[int64]int64 {
	t.Helper()
	tx := rc.DB.Store().Begin(false)
	defer tx.Abort()
	td, ok := tx.Table(view)
	if !ok {
		t.Fatalf("no storage for %s", view)
	}
	out := map[int64]int64{}
	for _, row := range td.Rows() {
		out[row[0].Int()] = row[2].Int()
	}
	return out
}

// TestChaosPullConvergence applies backend updates while the pull path runs
// through a lossy link, and checks the cached view converges to exactly the
// state a fault-free twin cache reaches: no lost batches, no duplicated
// applications.
func TestChaosPullConvergence(t *testing.T) {
	rig := newChaosRig(t, chaosPolicy())

	// Fault-free twin connected straight to the wire server.
	twinClient, err := Dial(rig.srv.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer twinClient.Close()
	twin, err := NewRemoteCache("twin", twinClient, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := twin.CreateCachedView(`CREATE CACHED VIEW cv_part AS SELECT id, name, qty FROM part`); err != nil {
		t.Fatal(err)
	}

	rig.proxy.SetFaults(FaultConfig{DropRate: 0.15})
	for i := 1; i <= 40; i++ {
		stmt := fmt.Sprintf("UPDATE part SET qty = %d WHERE id = %d", 100000+i, i)
		if _, err := rig.backend.Exec(stmt, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := twin.Pull(); err != nil {
		t.Fatal(err)
	}
	want := viewQtyByID(t, twin, "cv_part")

	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		rig.cache.Pull() //nolint:errcheck — convergence is checked below
		got := viewQtyByID(t, rig.cache, "cv_part")
		if len(got) == len(want) {
			same := true
			for id, qty := range want {
				if got[id] != qty {
					same = false
					break
				}
			}
			if same {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("cached view did not converge to the fault-free state under a lossy pull link")
}

// TestChaosPartitionDegradesGracefully partitions the backend away entirely.
// Stale-tolerant queries (no freshness bound) must still be answered from
// the local cached view; a strict-freshness query must fail fast with
// ErrBackendDown rather than hang.
func TestChaosPartitionDegradesGracefully(t *testing.T) {
	policy := chaosPolicy()
	policy.MaxAttempts = 3
	policy.RequestTimeout = 500 * time.Millisecond
	rig := newChaosRig(t, policy)

	// Warm check: remote plan works while the link is healthy.
	if _, err := rig.cache.DB.Exec("SELECT name FROM part WHERE qty = 42", nil); err != nil {
		t.Fatal(err)
	}
	rig.proxy.Partition()

	// Stale-tolerant query: re-planned onto the cached view.
	res, err := rig.cache.DB.Exec("SELECT name FROM part WHERE qty = 42", nil)
	if err != nil {
		t.Fatalf("stale-tolerant query should degrade to local data: %v", err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "part42" {
		t.Fatalf("degraded answer wrong: %v", res.Rows)
	}

	// Strict freshness: the cache cannot prove the bound with the backend
	// gone, so the query must fail fast with the typed transport error.
	start := time.Now()
	_, err = rig.cache.DB.Exec("SELECT name FROM part WHERE qty = 42 WITH FRESHNESS 0.000001", nil)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("strict-freshness query should fail when partitioned")
	}
	if !errors.Is(err, resilience.ErrBackendDown) && !errors.Is(err, resilience.ErrTimeout) {
		t.Fatalf("want ErrBackendDown/ErrTimeout, got: %v", err)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("strict-freshness query hung for %v instead of failing fast", elapsed)
	}

	// Healing the partition restores remote execution.
	rig.proxy.Heal()
	if _, err := rig.cache.DB.Exec("SELECT name FROM part WHERE qty = 42", nil); err != nil {
		t.Fatalf("query after heal: %v", err)
	}
}

// TestChaosNoGoroutineLeaks runs a faulty workload, tears the whole rig
// down, and checks the goroutine count returns to its pre-test level.
func TestChaosNoGoroutineLeaks(t *testing.T) {
	before := runtime.NumGoroutine()
	func() {
		rig := newChaosRig(t, chaosPolicy())
		rig.proxy.SetFaults(FaultConfig{DropRate: 0.3})
		rig.cache.StartPulling(5 * time.Millisecond)
		for q := 0; q < 30; q++ {
			rig.cache.DB.Exec("SELECT name FROM part WHERE qty = @q", //nolint:errcheck
				exec.Params{"q": types.NewInt(int64(q + 1))})
		}
		rig.close()
	}()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after teardown", before, runtime.NumGoroutine())
}

// TestChaosMuxPartitionFailsInFlight is the multiplexed-failure contract:
// with several requests in flight on pooled multiplexed connections, a
// partition must fail exactly those requests — each with a classified
// transport error (degradable, never a *ServerError) — the pool must
// recover after the partition heals, and nothing may leak.
func TestChaosMuxPartitionFailsInFlight(t *testing.T) {
	before := runtime.NumGoroutine()
	func() {
		// One attempt: every transport failure surfaces instead of being
		// retried away, so the test sees the raw in-flight failures.
		policy := chaosPolicy()
		policy.MaxAttempts = 1
		policy.PoolSize = 2
		rig := newChaosRig(t, policy)

		// Slow every chunk so the batch of remote queries is reliably still
		// in flight when the partition hits.
		rig.proxy.SetFaults(FaultConfig{Delay: 200 * time.Millisecond})

		const inFlight = 8
		var wg sync.WaitGroup
		failures := make(chan error, inFlight)
		for q := 0; q < inFlight; q++ {
			wg.Add(1)
			go func(q int) {
				defer wg.Done()
				// qty is indexed only on the backend, so the query plans
				// remote; the strict freshness bound forbids degrading onto
				// the cached view, so a cut connection must surface as an
				// error rather than a silent stale answer.
				_, err := rig.cache.DB.Exec(
					"SELECT name FROM part WHERE qty = @q WITH FRESHNESS 0.000001",
					exec.Params{"q": types.NewInt(int64(q + 1))})
				failures <- err
			}(q)
		}
		time.Sleep(60 * time.Millisecond) // let the requests reach the wire
		rig.proxy.Partition()
		wg.Wait()
		close(failures)

		failed := 0
		for err := range failures {
			if err == nil {
				// A request that cleared the proxy before the partition is
				// fine — the contract is about the ones that were cut off.
				continue
			}
			failed++
			if !resilience.Degradable(err) {
				t.Errorf("in-flight failure not classified as transport error: %v", err)
			}
			var se *ServerError
			if errors.As(err, &se) {
				t.Errorf("in-flight failure surfaced as a server error: %v", err)
			}
		}
		if failed == 0 {
			t.Error("partition during in-flight requests produced no failures; the contract was not exercised")
		}

		// Heal: the pool re-dials lazily and the very next queries succeed.
		rig.proxy.Heal()
		for q := 0; q < 4; q++ {
			if _, err := rig.cache.DB.Exec("SELECT name FROM part WHERE qty = @q",
				exec.Params{"q": types.NewInt(int64(q + 100))}); err != nil {
				t.Fatalf("query after heal: %v", err)
			}
		}
		if rig.client.Pool().Open() == 0 {
			t.Error("pool should hold live connections after heal")
		}
		rig.close()
	}()

	// Every reader, handler and proxy pump must be gone after teardown.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after teardown", before, runtime.NumGoroutine())
}
