// Command mtbench regenerates the paper's evaluation tables and figures
// (§6). Each experiment calibrates a real backend+cache pair on TPC-W data,
// then drives the capacity simulation described in DESIGN.md.
//
// Usage:
//
//	mtbench -experiment all
//	mtbench -experiment scaleout -scaleout-k 3 -bench-json BENCH_scaleout.json
//	mtbench -experiment scaleout-sim -servers 5 -items 1000 -customers 2880
//	mtbench -experiment throughput -clients 16 -bench-json BENCH_multiplex.json
//	mtbench -experiment parallel -parallel-rows 60000 -bench-json BENCH_parallel.json
//	mtbench -experiment recovery -clients 16 -bench-json BENCH_recovery.json
//	mtbench -experiment querystore -bench-json BENCH_querystore.json
//	mtbench -experiment imcache -bench-json BENCH_imcache.json
//
// Experiments: mix, baseline, scaleout, scaleout-sim, replover, repllat,
// advisor, chaos, throughput, parallel, recovery, querystore, imcache,
// all. "scaleout" boots a real fleet — K cache
// processes against one backend with routed, session-consistent traffic —
// and measures WIPS; "scaleout-sim" is the calibrated capacity simulation
// the paper figures are scaled from. ("all" excludes scaleout, chaos,
// throughput, parallel, recovery, querystore and imcache; run them
// explicitly.)
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"mtcache/internal/advisor"
	"mtcache/internal/core"
	"mtcache/internal/metrics"
	"mtcache/internal/sim"
	"mtcache/internal/tpcw"
)

func main() {
	var (
		experiment  = flag.String("experiment", "all", "mix | baseline | scaleout | scaleout-sim | replover | repllat | advisor | chaos | throughput | parallel | recovery | querystore | imcache | all")
		items       = flag.Int("items", 500, "TPC-W item count")
		customers   = flag.Int("customers", 1000, "TPC-W customer count")
		servers     = flag.Int("servers", 5, "maximum web/cache servers")
		reps        = flag.Int("reps", 10, "calibration repetitions per interaction")
		metricsJSON = flag.String("metrics-json", "", "write the final metrics-registry snapshot (counters, gauges, histogram quantiles) to this file as JSON")
		clients     = flag.Int("clients", 16, "throughput: concurrent client workers")
		poolSize    = flag.Int("pool", 4, "throughput: multiplexed connections in the pool")
		netDelay    = flag.Duration("net-delay", 2*time.Millisecond, "throughput: emulated link latency per forwarded chunk")
		benchDur    = flag.Duration("bench-duration", 3*time.Second, "throughput: measurement window per mode")
		benchJSON   = flag.String("bench-json", "", "throughput: write the result snapshot to this file as JSON")
		parRows     = flag.Int("parallel-rows", 60000, "parallel: fact-table row count")
		qsIters     = flag.Int("qs-iters", 2000, "querystore: timed point queries per mode")

		scaleoutK   = flag.Int("scaleout-k", 3, "scaleout: maximum cache processes to spawn")
		sessions    = flag.Int("sessions", 4, "scaleout: emulated browser sessions per cache")
		backendAddr = flag.String("backend-addr", "", "scaleout: route over an already-running backend at this wire address (with -cache-addrs)")
		cacheAddrs  = flag.String("cache-addrs", "", "scaleout: comma-separated wire addresses of already-running caches (with -backend-addr)")
		obsAddr     = flag.String("obs", "", "scaleout: observability HTTP address for router metrics; empty disables")

		childName    = flag.String("scaleout-child", "", "internal: run as a scale-out cache child with this server name")
		childBackend = flag.String("scaleout-backend", "", "internal: backend wire address for -scaleout-child")
		childPull    = flag.Duration("scaleout-pull", 25*time.Millisecond, "internal: child pull-subscription interval")
	)
	flag.Parse()

	if *childName != "" {
		runScaleoutChild(*childName, *childBackend, *childPull)
		return
	}
	defer writeMetricsJSON(*metricsJSON)

	cfg := tpcw.Config{Items: *items, Customers: *customers, OrdersPerCustomer: 0.9, Seed: 20030609}

	if *experiment == "mix" || *experiment == "all" {
		printMix()
	}
	if *experiment == "advisor" || *experiment == "all" {
		printAdvisor(cfg)
	}
	if *experiment == "chaos" {
		printChaos(0.10, 5*time.Millisecond, 500)
		return
	}
	if *experiment == "throughput" {
		printThroughput(*clients, *poolSize, *netDelay, *benchDur, *benchJSON)
		return
	}
	if *experiment == "parallel" {
		printParallel(*parRows, *benchDur, *benchJSON)
		return
	}
	if *experiment == "recovery" {
		printRecovery(*clients, *benchDur, *benchJSON)
		return
	}
	if *experiment == "querystore" {
		printQuerystore(*qsIters, *benchJSON)
		return
	}
	if *experiment == "imcache" {
		printIMCache(*benchJSON)
		return
	}
	if *experiment == "scaleout" {
		runScaleout(scaleoutOpts{
			cfg:         cfg,
			maxK:        *scaleoutK,
			sessions:    *sessions,
			benchDur:    *benchDur,
			benchJSON:   *benchJSON,
			backendAddr: *backendAddr,
			cacheAddrs:  *cacheAddrs,
			obsAddr:     *obsAddr,
		})
		return
	}
	needsCal := map[string]bool{"baseline": true, "scaleout-sim": true, "replover": true, "repllat": true, "all": true}
	if !needsCal[*experiment] {
		return
	}

	fmt.Fprintf(os.Stderr, "calibrating on %d items / %d customers (%d reps per interaction)...\n",
		cfg.Items, cfg.Customers, *reps)
	start := time.Now()
	cal, err := sim.Calibrate(cfg, *reps)
	if err != nil {
		fmt.Fprintln(os.Stderr, "calibration failed:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "calibration done in %v (reader %.1fµs/txn, apply %.1fµs/txn)\n\n",
		time.Since(start).Round(time.Millisecond),
		cal.Cached.ReaderPerTxn*1e6, cal.Cached.ApplyPerTxn*1e6)

	switch *experiment {
	case "baseline":
		printBaseline(cal, *servers)
	case "scaleout-sim":
		printScaleout(cal, *servers)
	case "replover":
		printReplOverhead(cal)
	case "repllat":
		printReplLatency(cal, cfg)
	case "all":
		printBaseline(cal, *servers)
		printScaleout(cal, *servers)
		printReplOverhead(cal)
		printReplLatency(cal, cfg)
	default:
		fmt.Fprintln(os.Stderr, "unknown experiment:", *experiment)
		os.Exit(2)
	}
}

// writeMetricsJSON dumps the process-wide metrics registry — the same
// snapshot the servers expose at /metrics.json — so benchmark runs leave an
// analyzable record of counters, gauges and latency quantiles.
func writeMetricsJSON(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "metrics-json:", err)
		return
	}
	defer f.Close()
	if err := metrics.Default.WriteJSON(f); err != nil {
		fmt.Fprintln(os.Stderr, "metrics-json:", err)
	}
}

func printMix() {
	fmt.Println("== §6.1 workload mixes (Browse/Order activity split) ==")
	fmt.Printf("%-10s %8s %8s\n", "Workload", "Browse%", "Order%")
	for _, w := range tpcw.Workloads() {
		b := tpcw.BrowseShare(w)
		fmt.Printf("%-10s %8.1f %8.1f\n", w, b, 100-b)
	}
	fmt.Println("(paper: 95/5, 80/20, 50/50)")
	fmt.Println()
}

func printBaseline(cal *sim.CalibrationResult, servers int) {
	fmt.Println("== §6.2.1 baseline: no caching, backend at ~90% CPU ==")
	fmt.Printf("%-10s %8s %8s %12s\n", "Workload", "Users", "WIPS", "BackendCPU%")
	rows := sim.ExperimentBaseline(cal, servers)
	for _, r := range rows {
		fmt.Printf("%-10s %8d %8.0f %12.1f\n", r.Workload, r.Users, r.WIPS, r.BackendUtil*100)
	}
	fmt.Println("(paper: Browsing 50, Shopping 82, Ordering 283 WIPS — 2003 hardware;")
	fmt.Println(" the ordering Browsing < Shopping < Ordering is the reproduced shape)")
	fmt.Println()
}

func printScaleout(cal *sim.CalibrationResult, servers int) {
	fmt.Println("== §6.2.1 figures 6(a) and 6(b): scale-out with caching (capacity simulation) ==")
	pts := sim.ExperimentScaleout(cal, servers)
	fmt.Print(sim.FormatScaleout(pts))

	fmt.Println("\nFive-server summary (paper: 129/7.5%, 199/15.9%, 271/55.4%):")
	fmt.Printf("%-10s %10s %14s\n", "Workload", "WIPS", "BackendCPU%")
	for _, p := range pts {
		if p.Servers == servers {
			fmt.Printf("%-10s %10.0f %14.1f\n", p.Workload, p.WIPS, p.BackendUtil*100)
		}
	}
	fmt.Println()
}

func printReplOverhead(cal *sim.CalibrationResult) {
	fmt.Println("== §6.2.2 replication overhead (Ordering workload) ==")
	r := sim.ExperimentReplicationOverhead(cal)
	fmt.Printf("backend WIPS, log reader ON : %8.0f\n", r.WIPSReaderOn)
	fmt.Printf("backend WIPS, log reader OFF: %8.0f\n", r.WIPSReaderOff)
	fmt.Printf("throughput reduction        : %7.1f%%  (paper: ~10%%)\n", r.ReductionPct)
	fmt.Printf("idle mid-tier apply CPU     : %7.1f%%  (paper: ~15%%)\n", r.IdleCacheApplyUtil*100)
	fmt.Println()
}

func printReplLatency(cal *sim.CalibrationResult, cfg tpcw.Config) {
	fmt.Println("== §6.2.3 replication latency (live pipeline) ==")
	app := tpcw.NewApp(core.ConnectCache(cal.Cache), cfg)
	res, err := sim.ExperimentReplicationLatency(cal.Backend, cal.Cache, app,
		100*time.Millisecond, 2*time.Second, 2*time.Second)
	if err != nil {
		fmt.Fprintln(os.Stderr, "latency experiment failed:", err)
		return
	}
	fmt.Printf("light load mean latency: %v   (paper: 0.55 s)\n", res.LightLoadMean.Round(time.Millisecond))
	fmt.Printf("heavy load mean latency: %v   (paper: 1.67 s)\n", res.HeavyLoadMean.Round(time.Millisecond))
	fmt.Println("(absolute values scale with the agents' poll interval; the shape —")
	fmt.Println(" heavy > light, both well under interactive thresholds — is the result)")
	fmt.Println()
}

// printAdvisor runs the §7 design tool over the TPC-W Shopping workload and
// prints its recommendations — which should match the paper's §6.1 hand
// configuration.
func printAdvisor(cfg tpcw.Config) {
	fmt.Println("== §7 caching advisor over the TPC-W Shopping workload ==")
	small := cfg
	if small.Items > 100 {
		small.Items, small.Customers = 100, 150 // schema + procs are what matter
	}
	backend := core.NewBackend("advisor-backend")
	if err := tpcw.Load(backend, small); err != nil {
		fmt.Fprintln(os.Stderr, "advisor load failed:", err)
		return
	}
	mix := tpcw.Mix(tpcw.Shopping)
	calls := map[tpcw.Interaction][]string{
		tpcw.Home:                 {"EXEC getName 1", "EXEC getRelated 1"},
		tpcw.NewProducts:          {"EXEC getNewProducts 'ARTS'"},
		tpcw.BestSellers:          {"EXEC getBestSellers 'ARTS'"},
		tpcw.ProductDetail:        {"EXEC getBook 1"},
		tpcw.SearchResults:        {"EXEC doSubjectSearch 'ARTS'", "EXEC doTitleSearch '%a%'", "EXEC doAuthorSearch 'S%'"},
		tpcw.ShoppingCart:         {"EXEC createCartWithLine 1, '2003-06-09', 1, 1", "EXEC getCart 1"},
		tpcw.CustomerRegistration: {"EXEC getCustomer 'user1'"},
		tpcw.BuyRequest:           {"EXEC getCustomer 'user1'", "EXEC getCart 1"},
		tpcw.BuyConfirm:           {"EXEC getCDiscount 1", "EXEC doBuyConfirm 1, 1, '2003-06-09', 1, 1, 'AIR', 1, 1, 0.05, 1"},
		tpcw.OrderInquiry:         {"EXEC getPassword 'user1'"},
		tpcw.OrderDisplay:         {"EXEC getMostRecentOrder 'user1'", "EXEC getOrderLines 1"},
		tpcw.AdminRequest:         {"EXEC getBook 1"},
		tpcw.AdminConfirm:         {"EXEC adminUpdate 1, 1.0, 2", "EXEC getBook 1"},
	}
	var items []advisor.WorkloadItem
	for in, stmts := range calls {
		w := mix[in] / float64(len(stmts))
		for _, s := range stmts {
			items = append(items, advisor.WorkloadItem{SQL: s, Weight: w})
		}
	}
	advice, err := advisor.Analyze(backend.DB.Catalog(), items, advisor.DefaultOptions())
	if err != nil {
		fmt.Fprintln(os.Stderr, "advisor failed:", err)
		return
	}
	fmt.Print(advice.Format())
	fmt.Println("(paper §6.1 hand configuration: cache item/author/orders/order_line,")
	fmt.Println(" keep the five update-dominated procedures on the backend)")
	fmt.Println()
}
