package main

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"mtcache/internal/core"
	"mtcache/internal/engine"
	"mtcache/internal/exec"
	"mtcache/internal/router"
	"mtcache/internal/sql"
	"mtcache/internal/tpcw"
	"mtcache/internal/wire"
)

// roundGuard bounds one round's measured window; operations it cuts off count
// as failed, so a hang shows as errors instead of a stuck run.
const roundGuard = 60 * time.Second

// warmupShare of N runs untimed before the window, so plan caches and the
// intermediate-result cache are filled when measurement starts.
const warmupShare = 0.2

// roundSpec describes one round: a fresh process, a fresh fleet.
type roundSpec struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Round    int    `json:"round"`
	N        int    `json:"n"`
	Clients  int    `json:"clients"`
	Traced   bool   `json:"traced"`
	OutDir   string `json:"out_dir"`
}

// roundResult is what a round's process reports to its parent.
type roundResult struct {
	Spec      roundSpec          `json:"spec"`
	WindowS   float64            `json:"window_s"` // wall time of the measured window
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Values    map[string]float64 `json:"values"`
	// Samples is the sample count behind each percentile in Values;
	// Percentile is the percentile latency_p99_ms actually reports.
	Samples    map[string]int `json:"samples"`
	Percentile float64        `json:"percentile"`
	// BackHopCalls is the statement count each cache sent to the backend: it
	// shows how the fixed session order pinned the clients.
	BackHopCalls []int64                         `json:"back_hop_calls"`
	Layer        map[string]float64              `json:"layer"`
	Shapes       map[string]map[string]shapeStat `json:"shapes"`
	Freq         map[string]float64              `json:"freq"`
}

// client is one closed-loop session: it issues its next operation only when
// the previous one has returned, with no think time.
type client struct {
	id     int
	f      *fleet
	sess   *router.Session
	pinned *cacheNode
	conn   *core.Conn
	app    *tpcw.App
	web    *tpcw.Session
	gen    *generator
	probeV int64
	watch  *propWatcher

	// Traced rounds only: the lower rungs' connections to the pinned cache and
	// to the backend, and the procedures that write.
	tr         *tracer
	wireC      *wire.Client
	backC      *wire.Client
	writeProcs map[string]bool
	kept       *keptStatements

	shape string // shape label of the ad-hoc or probe statement about to run

	measuring bool
	wrote     bool // the open operation committed something
	stmts     int64
	rows      int64
	bypasses  int64
	counters  exec.Counters // engine-rung executor work
	engineN   int64
	elapsed   time.Duration
	latency   []float64 // ms per operation
	isWrite   []bool
	stmtUs    map[string][]float64 // untraced: per-shape statement latency via the router
	failed    int
	errs      []string
}

func (c *client) fail(err error) {
	c.failed++
	if len(c.errs) < 5 {
		c.errs = append(c.errs, fmt.Sprintf("client %d: %v", c.id, err))
	}
}

// exec and call are the two halves of the core.Conn the application sees.
func (c *client) exec(sqlText string, params exec.Params) (*engine.Result, error) {
	return c.statement(c.shape, "", sqlText, params, strings.HasPrefix(sqlText, "SELECT"))
}

func (c *client) call(proc string, params exec.Params) (*engine.Result, error) {
	return c.statement(proc, proc, "", params, !c.writeProcs[strings.ToLower(proc)])
}

// execText renders a procedure call as the EXEC text router.Session.Call
// sends, so the lower rungs carry the same bytes.
func execText(proc string, params exec.Params) string {
	call := &sql.ExecStmt{Proc: proc}
	for name, v := range params {
		call.Args = append(call.Args, sql.ExecArg{Name: name, Expr: &sql.Literal{Val: v}})
	}
	return sql.Deparse(call)
}

// statement issues one statement, a procedure call when proc is set and SQL
// text otherwise: through the router, or in a traced round down the rung
// drawn for it. Writes always take the router, so that the session's
// watermark lives in one place (the router's Session) and every rung gates
// its reads on the same value; a watermark split between the router and the
// bench would let the router rung skip waits the other rungs pay.
func (c *client) statement(shape, proc, sqlText string, params exec.Params, read bool) (res *engine.Result, err error) {
	rung := spanRouter
	if c.tr != nil && read {
		rung = c.tr.pickRung()
	}
	if rung != spanRouter && proc != "" {
		sqlText, params = execText(proc, params), nil
	}
	span := 0
	if c.tr != nil {
		span = c.tr.begin(stmtSpan, rung, shape)
	}
	start := time.Now()
	switch {
	case rung == spanWireFront:
		res, err = c.viaWire(sqlText, params)
	case rung == spanEngine:
		res, err = c.viaEngine(sqlText, params)
	case proc != "":
		res, err = c.sess.Call(proc, params)
	default:
		res, err = c.sess.Exec(sqlText, params)
	}
	if c.tr != nil {
		c.tr.end(span)
	}
	if res != nil && res.CommitLSN > 0 {
		c.wrote = true
	}
	if !c.measuring {
		return res, err
	}
	c.stmts++
	if res != nil {
		c.rows += int64(len(res.Rows))
	}
	if c.tr == nil {
		c.stmtUs[shape] = append(c.stmtUs[shape], float64(time.Since(start))/1e3)
	} else if rung != spanRouter {
		c.kept.add(shape, sqlText)
	}
	return res, err
}

// viaWire is the wire rung: the statement goes to the pinned cache's listener
// as the router would send it, gated on the watermark, with the router's
// fallback to the backend when the cache answers Stale.
func (c *client) viaWire(text string, params exec.Params) (*engine.Result, error) {
	res, err := c.wireC.QuerySession(text, params, c.sess.Watermark(), gateWait)
	if err == nil && res.Stale {
		c.bypasses++
		res, err = c.backC.QuerySession(text, params, 0, 0)
	}
	if err != nil {
		return nil, err
	}
	return &engine.Result{Cols: res.Cols, Rows: res.Rows, RowsAffected: res.N, CommitLSN: res.CommitLSN}, nil
}

// viaEngine is the engine rung: the call wire.Server makes, without the wire.
func (c *client) viaEngine(text string, params exec.Params) (*engine.Result, error) {
	res, err := c.pinned.rc.DB.ExecSession(text, params, c.sess.Watermark(), gateWait)
	if errors.Is(err, engine.ErrSessionStale) {
		c.bypasses++
		res, err = c.f.backend.DB.Exec(text, params)
	}
	if err == nil && c.measuring {
		c.counters.RowsScanned += res.Counters.RowsScanned
		c.counters.RowsRemote += res.Counters.RowsRemote
		c.engineN++
	}
	return res, err
}

// runOp executes one operation and records its latency.
func (c *client) runOp(o op) {
	c.wrote = false
	span := 0
	if c.tr != nil {
		span = c.tr.begin(opSpan, spanOp, o.label())
	}
	start := time.Now()
	err := c.do(o)
	d := time.Since(start)
	if c.tr != nil {
		c.tr.end(span)
	}
	if !c.measuring {
		if err != nil {
			c.fail(fmt.Errorf("warm-up: %w", err))
		}
		return
	}
	if err != nil {
		c.fail(err)
	}
	c.latency = append(c.latency, float64(d)/1e6)
	c.isWrite = append(c.isWrite, c.wrote)
}

func (c *client) do(o op) error {
	switch o.Kind {
	case opInteraction:
		_, err := c.app.Run(c.web, o.Interaction)
		return err
	case opSQL:
		c.shape = o.Shape
		res, err := c.conn.Exec(o.SQL, nil)
		if err != nil {
			return err
		}
		return o.checkRows(len(res.Rows))
	}
	return c.probe()
}

// probe writes the probe row and reads it back through the same session. It
// keeps replication and intermediate-result invalidation live in every
// workload, is the read-your-writes check, and supplies the write and
// propagation samples.
func (c *client) probe() error {
	c.probeV++
	id := probeItem(c.f.cfg)
	c.shape = "probe_update"
	res, err := c.conn.Exec(fmt.Sprintf("UPDATE item SET i_stock = %d WHERE i_id = %d", c.probeV, id), nil)
	if err != nil {
		return err
	}
	if res.CommitLSN == 0 {
		return errors.New("probe write returned no commit LSN")
	}
	c.watch.add(uint64(res.CommitLSN), time.Now(), c.measuring)
	c.shape = "probe_select"
	got, err := c.conn.Exec(fmt.Sprintf("SELECT i_stock FROM item WHERE i_id = %d", id), nil)
	if err != nil {
		return err
	}
	if len(got.Rows) != 1 || got.Rows[0][0].Int() < c.probeV {
		return fmt.Errorf("read-your-writes violation: wrote i_stock=%d, read %v", c.probeV, got.Rows)
	}
	return nil
}

// run executes n operations, stopping early at the guard deadline.
func (c *client) run(n int, deadline time.Time) {
	start := time.Now()
	for i := 0; i < n; i++ {
		if time.Now().After(deadline) {
			c.fail(fmt.Errorf("round guard cut off %d operations", n-i))
			c.failed += n - i - 1
			break
		}
		c.runOp(c.gen.next())
	}
	c.elapsed = time.Since(start)
}

// newClient opens session number id (sessions are opened in a fixed order, so
// the router pins them the same way every round) and finds out which cache it
// is pinned to by sending one statement only the backend can answer and
// seeing which cache forwarded it.
func newClient(id int, f *fleet, spec roundSpec, w workloadSpec, master *tpcw.App, watch *propWatcher, tr *tracer) (*client, error) {
	c := &client{id: id, f: f, sess: f.router.Session(), watch: watch, tr: tr,
		gen: newGenerator(w, spec.Seed, id, f.cfg), stmtUs: map[string][]float64{}}
	before := make([]int64, len(f.caches))
	for i, n := range f.caches {
		before[i] = n.hop.calls.Load()
	}
	if _, err := c.sess.Exec("SELECT c_fname FROM customer WHERE c_id = 1", nil); err != nil {
		return nil, fmt.Errorf("client %d: %w", id, err)
	}
	for i, n := range f.caches {
		if n.hop.calls.Load() > before[i] {
			c.pinned = n
		}
	}
	if c.pinned == nil {
		return nil, fmt.Errorf("client %d: no cache forwarded the pin-discovery statement", id)
	}
	if tr != nil {
		var err error
		if c.wireC, err = wire.Dial(c.pinned.srv.Addr(), 2*time.Second); err != nil {
			return nil, err
		}
		if c.backC, err = wire.Dial(f.bsrv.Addr(), 2*time.Second); err != nil {
			return nil, err
		}
		c.kept = &keptStatements{byShape: map[string][]string{}}
		c.writeProcs = map[string]bool{}
		for _, p := range f.backend.DB.Catalog().Procedures() {
			for _, stmt := range p.Body {
				switch stmt.(type) {
				case *sql.InsertStmt, *sql.UpdateStmt, *sql.DeleteStmt:
					c.writeProcs[strings.ToLower(p.Name)] = true
				}
			}
		}
	}
	c.conn = core.NewConn(fmt.Sprintf("bench-client-%d", id), c.exec, c.call)
	if w.tpcw {
		c.app = tpcw.NewApp(c.conn, f.cfg)
		c.app.ShareIDsWith(master)
		c.web = c.app.NewSession(streamSeed(spec.Seed, w.Name+"/browser", id))
	}
	return c, nil
}

func (c *client) close() {
	if c.wireC != nil {
		c.wireC.Close() //nolint:errcheck — teardown of a loopback link
	}
	if c.backC != nil {
		c.backC.Close() //nolint:errcheck
	}
}

// propWatcher measures propagation: from the probe's commit acknowledgement
// until every cache's AppliedLSN has reached its commit LSN. One goroutine
// polls the caches every millisecond while marks are pending.
type propWatcher struct {
	f *fleet

	mu      sync.Mutex
	pending []propMark
	samples []float64 // ms

	stop chan struct{}
	done chan struct{}
}

type propMark struct {
	lsn      uint64
	ack      time.Time
	measured bool
}

func startPropWatcher(f *fleet) *propWatcher {
	w := &propWatcher{f: f, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-t.C:
				w.poll()
			}
		}
	}()
	return w
}

func (w *propWatcher) add(lsn uint64, ack time.Time, measured bool) {
	w.mu.Lock()
	w.pending = append(w.pending, propMark{lsn, ack, measured})
	w.mu.Unlock()
}

func (w *propWatcher) poll() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.pending) == 0 {
		return
	}
	applied, now := w.f.appliedLSN(), time.Now()
	// Commit LSNs arrive in order, so the satisfied marks are a prefix.
	i := 0
	for ; i < len(w.pending) && w.pending[i].lsn <= applied; i++ {
		if w.pending[i].measured {
			w.samples = append(w.samples, float64(now.Sub(w.pending[i].ack))/1e6)
		}
	}
	w.pending = w.pending[i:]
}

// drain waits, without kicking any pull, until replication has caught up with
// every pending mark, then stops the watcher. Marks still pending after the
// timeout are a failure of the round.
func (w *propWatcher) drain(timeout time.Duration) (left int) {
	deadline := time.Now().Add(timeout)
	for {
		w.mu.Lock()
		left = len(w.pending)
		w.mu.Unlock()
		if left == 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(w.stop)
	<-w.done
	return left
}

// reading is the state of every cumulative counter the window is measured
// with; the difference of two readings is what the window cost.
type reading struct {
	reg        registry
	hops       hopCounts
	cpu        time.Duration // process user+system time
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	gcPauseNs  uint64
}

func takeReading(f *fleet) reading {
	r := reading{reg: readRegistry(), hops: readHops(f)}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.mallocs, r.allocBytes, r.gcCycles, r.gcPauseNs = ms.Mallocs, ms.TotalAlloc, ms.NumGC, ms.PauseTotalNs
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		r.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return r
}

func (r reading) sub(earlier reading) reading {
	return reading{reg: r.reg.sub(earlier.reg), hops: r.hops.sub(earlier.hops), cpu: r.cpu - earlier.cpu,
		mallocs: r.mallocs - earlier.mallocs, allocBytes: r.allocBytes - earlier.allocBytes,
		gcCycles: r.gcCycles - earlier.gcCycles, gcPauseNs: r.gcPauseNs - earlier.gcPauseNs}
}

// runRound builds a fleet, warms it up, measures N operations per client and
// checks convergence.
func runRound(spec roundSpec) (*roundResult, error) {
	w, ok := workloadByName(spec.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", spec.Workload)
	}
	var tr *tracer
	if spec.Traced {
		tr = newTracer(streamSeed(spec.Seed, w.Name+"/rungs", spec.Round))
	}
	f, err := startFleet(tr)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer f.Close()

	watch := startPropWatcher(f)
	var master *tpcw.App
	if w.tpcw {
		// One id pool for the fleet, as several web servers share one backend.
		master = tpcw.NewApp(f.router.Session().Conn(), f.cfg)
	}
	clients := make([]*client, spec.Clients)
	for g := range clients {
		if clients[g], err = newClient(g, f, spec, w, master, watch, tr); err != nil {
			return nil, err
		}
		defer clients[g].close()
	}
	each := func(fn func(c *client)) {
		var wg sync.WaitGroup
		for _, c := range clients {
			wg.Add(1)
			go func(c *client) {
				defer wg.Done()
				fn(c)
			}(c)
		}
		wg.Wait()
	}

	warm := int(float64(spec.N) * warmupShare)
	each(func(c *client) { c.run(warm, time.Now().Add(roundGuard)) })

	for _, c := range clients {
		c.measuring = true
		c.latency = make([]float64, 0, spec.N)
		c.isWrite = make([]bool, 0, spec.N)
	}
	firstSpan := 0
	if tr != nil {
		firstSpan = tr.len()
	}
	before := takeReading(f)
	yard := startYardstick()
	t0 := time.Now()

	each(func(c *client) { c.run(spec.N, t0.Add(roundGuard)) })

	window := time.Since(t0).Seconds()
	spins := yard.finish()
	delta := takeReading(f).sub(before)

	res := &roundResult{Spec: spec, Values: map[string]float64{}, Samples: map[string]int{},
		Layer: map[string]float64{}, Attempted: spec.N * spec.Clients, WindowS: window}
	if left := watch.drain(5 * time.Second); left > 0 {
		res.Failed++
		res.Errors = append(res.Errors, fmt.Sprintf("%d probe writes never reached both caches", left))
	}
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	if err := f.converge(); err != nil {
		res.Failed++
		res.Errors = append(res.Errors, err.Error())
	}

	var all, reads, writes []float64
	var ops, stmts, rows, bypasses, throughput float64
	stmtUs := map[string][]float64{}
	for _, c := range clients {
		res.Failed += c.failed
		res.Errors = append(res.Errors, c.errs...)
		ops += float64(len(c.latency))
		stmts += float64(c.stmts)
		rows += float64(c.rows)
		bypasses += float64(c.bypasses)
		if c.elapsed > 0 {
			throughput += float64(len(c.latency)) / c.elapsed.Seconds()
		}
		for i, ms := range c.latency {
			all = append(all, ms)
			if c.isWrite[i] {
				writes = append(writes, ms)
			} else {
				reads = append(reads, ms)
			}
		}
		for shape, v := range c.stmtUs {
			stmtUs[shape] = append(stmtUs[shape], v...)
		}
	}
	if ops == 0 {
		return res, errors.New("no operation completed")
	}
	sort.Float64s(all)
	reg, hops := delta.reg, delta.hops
	routerBackend := float64(reg.counter("router.ryw_bypass") + reg.counter("router.backend_direct"))

	v := res.Values
	v["setup_s"] = f.setup.Seconds()
	v["throughput_ops_s"] = throughput
	v["latency_p50_ms"] = percentile(all, 0.50)
	res.Percentile = supportedPercentile(len(all), 0.99)
	v["latency_p99_ms"] = percentile(all, res.Percentile)
	v["read_p50_ms"] = median(reads)
	v["write_p50_ms"] = median(writes)
	v["success_rate"] = 1 - float64(res.Failed)/float64(res.Attempted)
	v["cpu_ms_per_op"] = float64(delta.cpu) / 1e6 / ops
	v["allocs_per_op"] = float64(delta.mallocs) / ops
	v["alloc_kb_per_op"] = float64(delta.allocBytes) / 1024 / ops
	v["backend_calls_per_op"] = (float64(hops.calls) + routerBackend + bypasses) / ops
	v["heap_live_mb"] = float64(live.HeapAlloc) / (1 << 20)
	res.Samples["latency"] = len(all)
	res.Samples["read"] = len(reads)
	res.Samples["write"] = len(writes)
	res.BackHopCalls = hops.perCache

	l := res.Layer
	registryLayers(l, reg, hops, ops, stmts, window)
	l["tpcw.calls_per_op"] = 0
	if w.tpcw {
		l["tpcw.calls_per_op"] = stmts / ops
	}
	l["wire.front.rows_per_call"] = rows / stmts
	l["repl.propagation_p50_ms"] = median(watch.samples)
	l["repl.propagation_p95_ms"] = percentile(sortedCopy(watch.samples), supportedPercentile(len(watch.samples), 0.95))
	l["gc.cycles_per_s"] = float64(delta.gcCycles) / window
	l["gc.pause_ms_per_s"] = float64(delta.gcPauseNs) / 1e6 / window
	l["host.spin_p10_us"] = percentile(spins, 0.1)
	l["host.spin_p50_us"] = percentile(spins, 0.5)
	l["host.spin_p90_us"] = percentile(spins, 0.9)

	if tr == nil {
		res.Shapes = map[string]map[string]shapeStat{spanRouter: shapeStats(stmtUs)}
		res.Freq = map[string]float64{}
		for shape, v := range stmtUs {
			res.Freq[shape] = float64(len(v))
		}
		return res, nil
	}
	c := clients[0]
	spans := tr.snapshot(firstSpan)
	if err := writeSpans(fmt.Sprintf("%s/trace-%s.json", spec.OutDir, w.Name), spans); err != nil {
		return res, err
	}
	tracedLayers(res, w, c, spans, ops, stmts)
	if w.Name == "ordering" {
		// Reported under the workload whose writes a durable backend would slow.
		if err := storageLayers(res.Layer, spec.OutDir); err != nil {
			return res, err
		}
	}
	return res, nil
}
