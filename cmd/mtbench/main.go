// Command mtbench runs the one experiment bench/ cannot yet replace: the
// multi-process scale-out run (paper §6.2.1, measured rather than
// simulated). It boots a real fleet — K cache processes against one backend
// with routed, session-consistent TPC-W traffic and a read-your-writes
// probe — and reports WIPS per (caches, workload) point.
//
// Usage:
//
//	mtbench -experiment scaleout -scaleout-k 3
//	mtbench -experiment scaleout -backend-addr HOST:PORT -cache-addrs A,B
//
// The result document goes to -bench-json (default BENCH_scaleout.json, an
// output path: the file is not committed). Every other number in the docs
// comes from bench/ (BENCHMARK.json), from a `go test -bench` name, or from
// `go test ./internal/sim -run TestExperiment -v`.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"mtcache/internal/tpcw"
)

func main() {
	var (
		experiment = flag.String("experiment", "scaleout", "scaleout")
		items      = flag.Int("items", 500, "TPC-W item count")
		customers  = flag.Int("customers", 1000, "TPC-W customer count")
		benchDur   = flag.Duration("bench-duration", 3*time.Second, "measurement window per (caches, workload) point")
		benchJSON  = flag.String("bench-json", "", "write the result document to this file (default BENCH_scaleout.json)")

		scaleoutK   = flag.Int("scaleout-k", 3, "maximum cache processes to spawn")
		sessions    = flag.Int("sessions", 4, "emulated browser sessions per cache")
		backendAddr = flag.String("backend-addr", "", "route over an already-running backend at this wire address (with -cache-addrs)")
		cacheAddrs  = flag.String("cache-addrs", "", "comma-separated wire addresses of already-running caches (with -backend-addr)")
		obsAddr     = flag.String("obs", "", "observability HTTP address for router metrics; empty disables")

		childName    = flag.String("scaleout-child", "", "internal: run as a scale-out cache child with this server name")
		childBackend = flag.String("scaleout-backend", "", "internal: backend wire address for -scaleout-child")
		childPull    = flag.Duration("scaleout-pull", 25*time.Millisecond, "internal: child pull-subscription interval")
	)
	flag.Parse()

	if *childName != "" {
		runScaleoutChild(*childName, *childBackend, *childPull)
		return
	}
	if *experiment != "scaleout" {
		fmt.Fprintln(os.Stderr, "unknown experiment:", *experiment)
		os.Exit(2)
	}
	runScaleout(scaleoutOpts{
		cfg:         tpcw.Config{Items: *items, Customers: *customers, OrdersPerCustomer: 0.9, Seed: 20030609},
		maxK:        *scaleoutK,
		sessions:    *sessions,
		benchDur:    *benchDur,
		benchJSON:   *benchJSON,
		backendAddr: *backendAddr,
		cacheAddrs:  *cacheAddrs,
		obsAddr:     *obsAddr,
	})
}
