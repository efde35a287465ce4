package main

// metricSpec names one metric. Bound is the share of the baseline median by
// which an end-to-end metric may get worse before it counts as a regression;
// per-layer metrics explain end-to-end movements and carry no bound.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	// HostSpeed marks an end-to-end metric whose value is a time or a rate.
	// -compare applies its bound like any other, but BENCHMARK.json lists it
	// without one, under per_layer: the sandbox's speed drifts by 25-50 % for
	// minutes at a time, and a gate on one run-set against another would
	// reject unchanged code at random. See README.md, "What the driver gates".
	HostSpeed bool
}

// endToEnd are what a session (or its operator) sees. Each is reported per
// workload as the median over the rounds of a run. The bounds of the counts
// are about three times the spread seen over ten seeds; the bounds of the
// times are the widest the choosing-metrics guide's single comparison can
// carry here, and a claim on one of them needs its alternating pairs.
//
// Propagation (probe commit to both caches applied) is a per-layer metric
// only: it depends on when the other client's own writes kick a pull, and
// every statistic of it spread by 17-45 % over seeds on browsing and ordering.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "throughput_ops_s", Unit: "1/s", Better: "higher", Bound: 0.25, HostSpeed: true},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, HostSpeed: true},
	{Name: "latency_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25, HostSpeed: true},
	{Name: "read_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, HostSpeed: true},
	{Name: "write_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, HostSpeed: true},
	// 1 - error rate, because the driver wants metrics that are never 0; a
	// bound of 0.001 of a median of 1 is the +0.001 absolute of the issue.
	{Name: "success_rate", Unit: "ratio", Better: "higher", Bound: 0.001},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25, HostSpeed: true},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.15},
	{Name: "alloc_kb_per_op", Unit: "KiB", Better: "lower", Bound: 0.15},
	{Name: "backend_calls_per_op", Unit: "count", Better: "lower", Bound: 0.15},
	{Name: "heap_live_mb", Unit: "MiB", Better: "lower", Bound: 0.10},
}

// perLayer are the single-layer numbers, in ladder order.
var perLayer = []metricSpec{
	{Name: "tpcw.self_us", Unit: "us", Better: "lower"},
	{Name: "tpcw.calls_per_op", Unit: "count", Better: "lower"},
	{Name: "rung.router_us", Unit: "us", Better: "lower"},
	{Name: "rung.wire_us", Unit: "us", Better: "lower"},
	{Name: "rung.engine_us", Unit: "us", Better: "lower"},
	{Name: "router.self_us", Unit: "us", Better: "lower"},
	{Name: "router.ryw_bypass_ratio", Unit: "ratio", Better: "lower"},
	{Name: "router.backend_direct_ratio", Unit: "ratio", Better: "lower"},
	{Name: "router.failovers", Unit: "count", Better: "lower"},
	{Name: "wire.front.self_us", Unit: "us", Better: "lower"},
	{Name: "wire.front.rows_per_call", Unit: "count", Better: "lower"},
	{Name: "wire.pool_wait_us", Unit: "us", Better: "lower"},
	{Name: "wire.back.self_us", Unit: "us", Better: "lower"},
	{Name: "wire.back.calls_per_op", Unit: "count", Better: "lower"},
	{Name: "wire.back.busy_us_per_op", Unit: "us", Better: "lower"},
	{Name: "wire.retries", Unit: "count", Better: "lower"},
	{Name: "wire.timeouts", Unit: "count", Better: "lower"},
	{Name: "engine.cache.exec_us", Unit: "us", Better: "lower"},
	{Name: "engine.plan_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "engine.autoparam_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "engine.session_gate_stale_ratio", Unit: "ratio", Better: "lower"},
	{Name: "engine.backend.exec_us", Unit: "us", Better: "lower"},
	{Name: "sql.parse_us", Unit: "us", Better: "lower"},
	{Name: "sql.normalize_us", Unit: "us", Better: "lower"},
	{Name: "sql.normalize_allocs", Unit: "count", Better: "lower"},
	{Name: "opt.optimize_us_per_op", Unit: "us", Better: "lower"},
	{Name: "opt.optimizations_per_op", Unit: "count", Better: "lower"},
	{Name: "opt.local_plan_ratio", Unit: "ratio", Better: "higher"},
	{Name: "opt.view_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "exec.run_us", Unit: "us", Better: "lower"},
	{Name: "exec.rows_scanned_per_op", Unit: "count", Better: "lower"},
	{Name: "exec.rows_remote_per_op", Unit: "count", Better: "lower"},
	{Name: "exec.execute_us_per_op", Unit: "us", Better: "lower"},
	{Name: "imcache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "imcache.admits_per_kop", Unit: "count", Better: "lower"},
	{Name: "imcache.invalidations_per_kop", Unit: "count", Better: "lower"},
	{Name: "imcache.bytes_mb", Unit: "MiB", Better: "lower"},
	{Name: "storage.commit_us", Unit: "us", Better: "lower"},
	{Name: "storage.wal_bytes_per_commit", Unit: "count", Better: "lower"},
	{Name: "storage.fsyncs_per_commit", Unit: "count", Better: "lower"},
	{Name: "repl.propagation_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "repl.propagation_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "repl.pull_rtt_us", Unit: "us", Better: "lower"},
	{Name: "repl.pulls_per_s", Unit: "1/s", Better: "lower"},
	{Name: "repl.txns_per_pull", Unit: "count", Better: "higher"},
	{Name: "repl.apply_us_per_txn", Unit: "us", Better: "lower"},
	{Name: "repl.reader_us_per_run", Unit: "us", Better: "lower"},
	{Name: "repl.apply_errors", Unit: "count", Better: "lower"},
	{Name: "wire.pull_failures", Unit: "count", Better: "lower"},
	{Name: "gc.cycles_per_s", Unit: "1/s", Better: "lower"},
	{Name: "gc.pause_ms_per_s", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "host.spin_p10_us", Unit: "us", Better: "lower"},
	{Name: "host.spin_p50_us", Unit: "us", Better: "lower"},
	{Name: "host.spin_p90_us", Unit: "us", Better: "lower"},
}

// tracedOnly are the per-layer metrics that come from the traced round; the
// rest come from the untraced one-client round, which is the system as
// shipped.
var tracedOnly = map[string]bool{
	"tpcw.self_us": true, "rung.router_us": true, "rung.wire_us": true, "rung.engine_us": true,
	"router.self_us": true, "wire.front.self_us": true, "wire.back.self_us": true,
	"engine.cache.exec_us": true, "engine.backend.exec_us": true,
	"sql.parse_us": true, "sql.normalize_us": true, "sql.normalize_allocs": true,
	"exec.run_us": true, "exec.rows_scanned_per_op": true, "exec.rows_remote_per_op": true,
	"storage.commit_us": true, "storage.wal_bytes_per_commit": true, "storage.fsyncs_per_commit": true,
}
