package main

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"mtcache/internal/core"
	"mtcache/internal/engine"
	"mtcache/internal/exec"
	"mtcache/internal/repl"
	"mtcache/internal/resilience"
	"mtcache/internal/router"
	"mtcache/internal/storage"
	"mtcache/internal/tpcw"
	"mtcache/internal/trace"
	"mtcache/internal/wire"
)

const (
	numCaches = 2
	// pullInterval is mtcache-server's -pull default.
	pullInterval = 200 * time.Millisecond
	// gateWait is router.Config's default Watermark: how long a cache may hold
	// a gated read before answering Stale. The lower rungs of a traced round
	// pass it themselves because they bypass the router.
	gateWait = 150 * time.Millisecond
)

// fleet is the topology every workload runs on, in one process and at shipped
// defaults: an in-memory backend behind wire.Serve on loopback TCP, two
// remote caches over resilient links with pull replication, and one router.
type fleet struct {
	cfg     tpcw.Config
	backend *core.BackendServer
	bsrv    *wire.Server
	caches  []*cacheNode
	router  *router.Router
	setup   time.Duration
}

type cacheNode struct {
	hop *backHop
	rc  *wire.RemoteCache
	srv *wire.Server
}

// startFleet builds the fleet. tr is nil except in a traced round.
func startFleet(tr *tracer) (f *fleet, err error) {
	start := time.Now()
	f = &fleet{cfg: tpcw.DefaultConfig()}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	f.backend = core.NewBackend("backend")
	if err = tpcw.Load(f.backend, f.cfg); err != nil {
		return f, fmt.Errorf("load: %w", err)
	}
	// The probe row exists before the caches are seeded, so cv_item has it.
	if _, err = f.backend.Exec(fmt.Sprintf(
		`INSERT INTO item (i_id, i_title, i_a_id, i_pub_date, i_publisher, i_subject, i_desc, i_related1, i_stock, i_cost, i_srp)
		 VALUES (%d, 'RYW PROBE', 1, '2003-06-09', 'probe', 'PROBE', 'probe', 1, 0, 1.0, 1.0)`, probeItem(f.cfg)), nil); err != nil {
		return f, fmt.Errorf("probe row: %w", err)
	}
	if err = f.backend.DB.Analyze(); err != nil {
		return f, fmt.Errorf("analyze: %w", err)
	}
	if f.bsrv, err = wire.Serve(f.backend, "127.0.0.1:0"); err != nil {
		return f, err
	}
	skip := map[string]bool{}
	for _, p := range tpcw.UpdateDominatedProcs {
		skip[strings.ToLower(p)] = true
	}
	var addrs []string
	for i := 0; i < numCaches; i++ {
		node, err := f.startCache(fmt.Sprintf("cache%d", i+1), skip, tr)
		if node != nil {
			f.caches = append(f.caches, node)
		}
		if err != nil {
			return f, err
		}
		addrs = append(addrs, node.srv.Addr())
	}
	if f.router, err = router.New(router.Config{Backend: f.bsrv.Addr(), Caches: addrs}); err != nil {
		return f, err
	}
	f.setup = time.Since(start)
	return f, nil
}

func (f *fleet) startCache(name string, skipProcs map[string]bool, tr *tracer) (*cacheNode, error) {
	client, err := wire.DialResilient(f.bsrv.Addr(), resilience.DefaultPolicy(), nil)
	if err != nil {
		return nil, err
	}
	node := &cacheNode{hop: &backHop{ResilientClient: client, tr: tr}}
	if tr != nil {
		node.hop.direct = engine.NewLink(f.backend.DB)
	}
	if node.rc, err = wire.NewRemoteCache(name, node.hop, nil); err != nil {
		return node, err
	}
	for _, ddl := range tpcw.CachedViewDDL {
		if err := node.rc.CreateCachedView(ddl); err != nil {
			return node, fmt.Errorf("%s: cached view: %w", name, err)
		}
	}
	for _, ddl := range tpcw.CachedViewIndexDDL {
		if _, err := node.rc.DB.Exec(ddl, nil); err != nil {
			return node, fmt.Errorf("%s: index: %w", name, err)
		}
	}
	for _, ddl := range tpcw.ProcedureDDL {
		if skipProcs[strings.ToLower(procName(ddl))] {
			continue
		}
		if err := node.rc.CopyProcedureText(ddl); err != nil {
			return node, fmt.Errorf("%s: procedure: %w", name, err)
		}
	}
	node.rc.StartPulling(pullInterval)
	if node.srv, err = wire.ServeCache(node.rc, "127.0.0.1:0", wire.ServerOptions{}); err != nil {
		return node, err
	}
	return node, nil
}

// procName extracts the name from a CREATE PROCEDURE statement.
func procName(ddl string) string {
	fields := strings.Fields(ddl)
	for i := 0; i+1 < len(fields); i++ {
		if strings.EqualFold(fields[i], "PROCEDURE") {
			return fields[i+1]
		}
	}
	return ""
}

// Close tears the fleet down front to back; it tolerates a partly built one.
func (f *fleet) Close() {
	if f.router != nil {
		f.router.Close()
	}
	for _, c := range f.caches {
		if c.srv != nil {
			c.srv.Close()
		}
		if c.rc != nil {
			c.rc.StopPulling()
		}
		c.hop.Close() //nolint:errcheck — teardown of a loopback link
	}
	if f.bsrv != nil {
		f.bsrv.Close()
	}
}

// lastCommitLSN is the backend's last committed LSN (WAL().End() is the LSN
// the next commit will receive), as wire.Server reports it.
func (f *fleet) lastCommitLSN() uint64 {
	return uint64(f.backend.DB.Store().WAL().End() - 1)
}

// appliedLSN is the position every cache has replicated through.
func (f *fleet) appliedLSN() uint64 {
	low := ^uint64(0)
	for _, c := range f.caches {
		if a := uint64(c.rc.AppliedLSN()); a < low {
			low = a
		}
	}
	return low
}

// converge is the end-of-round check: with the clients stopped, both caches
// must reach the backend's last commit within five seconds, and the cached
// item and orders views must then agree with the backend tables.
func (f *fleet) converge() error {
	last := f.lastCommitLSN()
	deadline := time.Now().Add(5 * time.Second)
	for _, c := range f.caches {
		for uint64(c.rc.AppliedLSN()) < last {
			if time.Now().After(deadline) {
				return fmt.Errorf("%s applied LSN %d, backend committed %d", c.rc.DB.Name, c.rc.AppliedLSN(), last)
			}
			// Kicking a pull is what a gated read does; it only shortens the wait.
			c.rc.Pull() //nolint:errcheck — the loop rechecks the position
			time.Sleep(2 * time.Millisecond)
		}
	}
	for _, q := range [][2]string{
		{"SELECT COUNT(*), SUM(i_stock) FROM item", "SELECT COUNT(*), SUM(i_stock) FROM cv_item"},
		{"SELECT COUNT(*), MAX(o_id) FROM orders", "SELECT COUNT(*), MAX(o_id) FROM cv_orders"},
	} {
		want, err := f.backend.Exec(q[0], nil)
		if err != nil {
			return fmt.Errorf("converge: backend: %w", err)
		}
		for _, c := range f.caches {
			got, err := c.rc.DB.Exec(q[1], nil)
			if err != nil {
				return fmt.Errorf("converge: %s: %w", c.rc.DB.Name, err)
			}
			if fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
				return fmt.Errorf("converge: %s: %s = %v, backend %s = %v", c.rc.DB.Name, q[1], got.Rows, q[0], want.Rows)
			}
		}
	}
	return nil
}

// backHop is the BackendClient handed to a cache: the real resilient TCP
// client with counting around the four calls that carry a statement to the
// backend, and around Pull. It adds no behaviour in an untraced round. In a
// traced round it records a span per call and sends every other call straight
// into the backend engine instead of over TCP, which is how the back wire hop
// gets a self time.
type backHop struct {
	*wire.ResilientClient
	direct *engine.Link
	tr     *tracer

	calls    atomic.Int64
	busyNs   atomic.Int64
	pulls    atomic.Int64
	pullNs   atomic.Int64
	pullTxns atomic.Int64
}

// enter starts one forwarded statement. It reports whether the call goes
// direct, and returns the function that ends it.
func (h *backHop) enter() (direct bool, done func()) {
	h.calls.Add(1)
	start := time.Now()
	if h.tr == nil {
		return false, func() { h.busyNs.Add(int64(time.Since(start))) }
	}
	direct = h.tr.flipBackHop()
	name := spanBackTCP
	if direct {
		name = spanBackDirect
	}
	id := h.tr.begin(backSpan, name, "")
	return direct, func() {
		h.tr.end(id)
		h.busyNs.Add(int64(time.Since(start)))
	}
}

func (h *backHop) Query(sqlText string, params exec.Params) (*exec.ResultSet, error) {
	direct, done := h.enter()
	defer done()
	if direct {
		return h.direct.Query(sqlText, params)
	}
	return h.ResilientClient.Query(sqlText, params)
}

func (h *backHop) QueryTraced(sqlText string, params exec.Params, traceID string) (*exec.ResultSet, *trace.WireSpan, error) {
	direct, done := h.enter()
	defer done()
	if direct {
		return h.direct.QueryTraced(sqlText, params, traceID)
	}
	return h.ResilientClient.QueryTraced(sqlText, params, traceID)
}

func (h *backHop) Exec(sqlText string, params exec.Params) (int64, error) {
	n, _, err := h.ExecLSN(sqlText, params)
	return n, err
}

func (h *backHop) ExecLSN(sqlText string, params exec.Params) (int64, storage.LSN, error) {
	direct, done := h.enter()
	defer done()
	if direct {
		return h.direct.ExecLSN(sqlText, params)
	}
	return h.ResilientClient.ExecLSN(sqlText, params)
}

// Pull always travels over TCP; it is timed for the repl metrics and kept out
// of the statement count.
func (h *backHop) Pull(subID, max int, ack storage.LSN) ([]repl.TxnBatch, storage.LSN, error) {
	start := time.Now()
	batches, through, err := h.ResilientClient.Pull(subID, max, ack)
	h.pullNs.Add(int64(time.Since(start)))
	h.pulls.Add(1)
	h.pullTxns.Add(int64(len(batches)))
	return batches, through, err
}
