package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"mtcache/internal/core"
	"mtcache/internal/exec"
	"mtcache/internal/metrics"
	"mtcache/internal/sql"
	"mtcache/internal/storage"
	"mtcache/internal/types"
)

// registryHistograms are the metrics.Default histograms the layer metrics
// read; everything else comes from the counter and gauge snapshots.
var registryHistograms = []string{
	"engine.optimize_seconds", "engine.execute_seconds", "wire.pool_wait_seconds",
	"repl.pull_seconds", "repl.reader_seconds",
}

type histValue struct {
	count int64
	sum   float64
}

// registry is a reading of metrics.Default, which in this one-process fleet
// covers the backend and both caches. Reading it adds no probe to the system.
type registry struct {
	counters map[string]int64
	gauges   map[string]float64
	hists    map[string]histValue
}

func readRegistry() registry {
	r := registry{counters: metrics.Default.Snapshot(), gauges: metrics.Default.GaugeSnapshot(),
		hists: map[string]histValue{}}
	for _, name := range registryHistograms {
		h := metrics.Default.Histogram(name)
		n := h.Count()
		r.hists[name] = histValue{count: n, sum: h.Mean() * float64(n)}
	}
	return r
}

// sub returns the change since an earlier reading; gauges keep their value.
func (r registry) sub(earlier registry) registry {
	d := registry{counters: map[string]int64{}, gauges: r.gauges, hists: map[string]histValue{}}
	for name, v := range r.counters {
		d.counters[name] = v - earlier.counters[name]
	}
	for name, v := range r.hists {
		d.hists[name] = histValue{count: v.count - earlier.hists[name].count, sum: v.sum - earlier.hists[name].sum}
	}
	return d
}

func (r registry) counter(name string) int64 { return r.counters[name] }

// prefix sums the counters whose name starts with p.
func (r registry) prefix(p string) (sum int64) {
	for name, v := range r.counters {
		if strings.HasPrefix(name, p) {
			sum += v
		}
	}
	return sum
}

// meanUs is a histogram's mean observation in µs.
func (r registry) meanUs(name string) float64 {
	return ratio(r.hists[name].sum*1e6, float64(r.hists[name].count))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// hopCounts is a reading of the back-hop counters, summed over the caches.
type hopCounts struct {
	calls, busyNs, pulls, pullNs, pullTxns int64
	perCache                               []int64
}

func readHops(f *fleet) hopCounts {
	var h hopCounts
	for _, c := range f.caches {
		n := c.hop.calls.Load()
		h.perCache = append(h.perCache, n)
		h.calls += n
		h.busyNs += c.hop.busyNs.Load()
		h.pulls += c.hop.pulls.Load()
		h.pullNs += c.hop.pullNs.Load()
		h.pullTxns += c.hop.pullTxns.Load()
	}
	return h
}

func (h hopCounts) sub(earlier hopCounts) hopCounts {
	d := hopCounts{calls: h.calls - earlier.calls, busyNs: h.busyNs - earlier.busyNs, pulls: h.pulls - earlier.pulls,
		pullNs: h.pullNs - earlier.pullNs, pullTxns: h.pullTxns - earlier.pullTxns}
	for i, n := range h.perCache {
		d.perCache = append(d.perCache, n-earlier.perCache[i])
	}
	return d
}

// registryLayers fills the per-layer metrics that are counts and ratios over
// the measured window.
func registryLayers(out map[string]float64, reg registry, hops hopCounts, ops, stmts, seconds float64) {
	c := func(name string) float64 { return float64(reg.counter(name)) }
	hitRatio := func(hits, misses string) float64 { return ratio(c(hits), c(hits)+c(misses)) }

	out["router.ryw_bypass_ratio"] = ratio(c("router.ryw_bypass"), stmts)
	out["router.backend_direct_ratio"] = ratio(c("router.backend_direct"), stmts)
	out["router.failovers"] = c("router.failovers")
	out["wire.pool_wait_us"] = reg.meanUs("wire.pool_wait_seconds")
	out["wire.back.calls_per_op"] = float64(hops.calls) / ops
	out["wire.back.busy_us_per_op"] = float64(hops.busyNs) / 1e3 / ops
	out["wire.retries"] = c("wire.retries")
	out["wire.timeouts"] = c("wire.timeouts")
	out["engine.plan_cache_hit_ratio"] = hitRatio("engine.plan_cache_hits", "engine.plan_cache_misses")
	out["engine.autoparam_hit_ratio"] = hitRatio("engine.autoparam_hits", "engine.autoparam_misses")
	out["engine.session_gate_stale_ratio"] = hitRatio("engine.session_gate_stale", "engine.session_gate_pass")
	out["opt.optimize_us_per_op"] = reg.hists["engine.optimize_seconds"].sum * 1e6 / ops
	out["opt.optimizations_per_op"] = float64(reg.hists["engine.optimize_seconds"].count) / ops
	out["opt.local_plan_ratio"] = ratio(c("opt.plan_local"), float64(reg.prefix("opt.plan_")))
	viewHits := float64(reg.prefix("opt.view_hit."))
	out["opt.view_hit_ratio"] = ratio(viewHits, viewHits+c("opt.view_miss"))
	out["exec.execute_us_per_op"] = reg.hists["engine.execute_seconds"].sum * 1e6 / ops
	out["imcache.hit_ratio"] = hitRatio("imcache.hits", "imcache.misses")
	out["imcache.admits_per_kop"] = c("imcache.admits") / ops * 1000
	out["imcache.invalidations_per_kop"] = c("imcache.invalidations") / ops * 1000
	out["imcache.bytes_mb"] = reg.gauges["imcache.bytes"] / (1 << 20)
	out["repl.pull_rtt_us"] = ratio(float64(hops.pullNs)/1e3, float64(hops.pulls))
	out["repl.pulls_per_s"] = float64(hops.pulls) / seconds
	out["repl.txns_per_pull"] = ratio(float64(hops.pullTxns), float64(hops.pulls))
	// A pull-and-apply round (repl.pull_seconds) minus its wire pulls is the
	// time spent applying; pull subscriptions have no apply histogram.
	out["repl.apply_us_per_txn"] = ratio(reg.hists["repl.pull_seconds"].sum*1e6-float64(hops.pullNs)/1e3, float64(hops.pullTxns))
	out["repl.reader_us_per_run"] = reg.meanUs("repl.reader_seconds")
	out["repl.apply_errors"] = c("repl.apply_errors")
	out["wire.pull_failures"] = c("wire.pull_failures")
}

// keptStatements holds statement texts a traced round sent down its lower
// rungs (a two-thirds sample at the workload's own frequencies), for the
// timings taken after the window.
type keptStatements struct {
	texts   []string
	byShape map[string][]string
}

const (
	keptTexts    = 2000
	keptPerShape = 30
)

func (k *keptStatements) add(shape, text string) {
	if len(k.texts) < keptTexts {
		k.texts = append(k.texts, text)
	}
	if len(k.byShape[shape]) < keptPerShape {
		k.byShape[shape] = append(k.byShape[shape], text)
	}
}

// tracedLayers fills the per-layer metrics that need the rung ladder or the
// cache engine in hand: self times, executor counts and the timings of
// sql.Parse, Normalizer.Normalize and RunPlan over the workload's statements.
func tracedLayers(res *roundResult, w workloadSpec, c *client, spans []span, ops, stmts float64) {
	stats, freq := rungStats(spans)
	res.Shapes, res.Freq = stats, freq["stmt"]
	out := res.Layer
	// The three rung figures cover the read shapes all rungs carried.
	reads := sampledOnAll(freq["stmt"], stats[spanRouter], stats[spanWireFront], stats[spanEngine])
	out["rung.router_us"] = weighted(stats[spanRouter], reads)
	out["rung.wire_us"] = weighted(stats[spanWireFront], reads)
	out["rung.engine_us"] = weighted(stats[spanEngine], reads)
	out["tpcw.self_us"] = 0
	if w.tpcw {
		out["tpcw.self_us"] = stats["op.self"]["*"].Median
	}
	out["router.self_us"] = rungDiff(stats[spanRouter], stats[spanWireFront], freq["stmt"])
	out["wire.front.self_us"] = rungDiff(stats[spanWireFront], stats[spanEngine], freq["stmt"])
	out["engine.cache.exec_us"] = weighted(stats["engine.cache.self"], freq["stmt"])
	out["wire.back.self_us"] = rungDiff(stats[spanBackTCP], stats[spanBackDirect], freq["back"])
	out["engine.backend.exec_us"] = weighted(stats[spanBackDirect], freq["back"])
	perStmt := ratio(1, float64(c.engineN)) * stmts / ops
	out["exec.rows_scanned_per_op"] = float64(c.counters.RowsScanned) * perStmt
	out["exec.rows_remote_per_op"] = float64(c.counters.RowsRemote) * perStmt

	parseUs, normUs, normAllocs := timeSQL(c.kept.texts)
	out["sql.parse_us"], out["sql.normalize_us"], out["sql.normalize_allocs"] = parseUs, normUs, normAllocs
	out["exec.run_us"] = weighted(timeRunPlan(c), freq["stmt"])
}

// timeSQL times the parser and the auto-parameterising normaliser over the
// statement texts the workload sent.
func timeSQL(texts []string) (parseUs, normalizeUs, normalizeAllocs float64) {
	if len(texts) == 0 {
		return 0, 0, 0
	}
	n := float64(len(texts))
	start := time.Now()
	for _, t := range texts {
		sql.Parse(t) //nolint:errcheck — timing only; the workload already ran these
	}
	parseUs = float64(time.Since(start)) / 1e3 / n

	var nz sql.Normalizer
	for _, t := range texts { // warm the normaliser's buffers, as a pooled one is
		nz.Normalize(t)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start = time.Now()
	for _, t := range texts {
		nz.Normalize(t)
	}
	normalizeUs = float64(time.Since(start)) / 1e3 / n
	runtime.ReadMemStats(&m1)
	return parseUs, normalizeUs, float64(m1.Mallocs-m0.Mallocs) / n
}

// timeRunPlan times Database.RunPlan on the pinned cache for every kept
// SELECT: ad-hoc statements as sent, procedure calls through the single
// SELECT their body consists of. Other statements have no plan to run.
func timeRunPlan(c *client) map[string]shapeStat {
	db := c.pinned.rc.DB
	values := map[string][]float64{}
	for shape, kept := range c.kept.byShape {
		for _, text := range kept {
			stmt, err := sql.Parse(text)
			if err != nil {
				continue
			}
			var params exec.Params
			if call, ok := stmt.(*sql.ExecStmt); ok {
				proc := db.Catalog().Procedure(call.Proc)
				if proc == nil || len(proc.Body) != 1 {
					continue
				}
				stmt = proc.Body[0]
				params = exec.Params{}
				for _, a := range call.Args {
					if lit, ok := a.Expr.(*sql.Literal); ok {
						params[a.Name] = lit.Val
					}
				}
			}
			sel, ok := stmt.(*sql.SelectStmt)
			if !ok {
				continue
			}
			plan, err := db.Plan(sel)
			if err != nil {
				continue
			}
			start := time.Now()
			if _, err := db.RunPlan(plan, params); err == nil {
				values[shape] = append(values[shape], float64(time.Since(start))/1e3)
			}
		}
	}
	return shapeStats(values)
}

// storageCommits is the size of the durable-commit measurement.
const storageCommits = 500

// storageLayers measures the durable commit path the in-memory fleet leaves
// out: a backend opened as backend-server -data-dir opens it (group commit),
// one committer, 500 single-row order_line transactions. The numbers are the
// sandbox's disk, not a device.
func storageLayers(out map[string]float64, dir string) error {
	dir = filepath.Join(dir, "storage-wal")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	b, err := core.NewBackendDurable("durable", storage.DurabilityOptions{Dir: dir, Policy: storage.SyncGroup})
	if err != nil {
		return err
	}
	if err := b.ExecScript(`CREATE TABLE order_line (ol_o_id INT, ol_id INT, ol_i_id INT, ol_qty INT,
		ol_discount FLOAT, PRIMARY KEY (ol_o_id, ol_id));`); err != nil {
		return err
	}
	store := b.DB.Store()
	reg0 := readRegistry()
	us := make([]float64, 0, storageCommits)
	for i := 1; i <= storageCommits; i++ {
		start := time.Now()
		tx := store.Begin(true)
		if _, err := tx.Insert("order_line", types.Row{types.NewInt(int64(i)), types.NewInt(1),
			types.NewInt(int64(i%1000 + 1)), types.NewInt(2), types.NewFloat(0.05)}); err != nil {
			tx.Abort()
			return fmt.Errorf("storage bench: %w", err)
		}
		if _, err := tx.Commit(); err != nil {
			return fmt.Errorf("storage bench: %w", err)
		}
		us = append(us, float64(time.Since(start))/1e3)
	}
	reg := readRegistry().sub(reg0)
	if err := b.DB.CloseStore(); err != nil {
		return err
	}
	out["storage.commit_us"] = median(us)
	out["storage.wal_bytes_per_commit"] = float64(reg.counter("storage.wal_bytes")) / storageCommits
	out["storage.fsyncs_per_commit"] = float64(reg.counter("storage.wal_fsyncs")) / storageCommits
	return nil
}
