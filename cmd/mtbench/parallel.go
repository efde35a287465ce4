package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"mtcache/internal/engine"
	"mtcache/internal/types"
)

// printParallel measures intra-query parallel execution: the same scan-,
// join- and aggregation-heavy queries run serially (MaxDOP 1) and with the
// cost-based parallel plans at DOP 2/4/8. GOMAXPROCS is raised to each
// mode's DOP so the Go scheduler may actually run the exchange workers
// concurrently; on a machine with fewer physical cores than the DOP the
// workers time-slice one core and the speedup saturates at num_cpu — the
// JSON records num_cpu so the numbers can be read honestly.
func printParallel(rows int, duration time.Duration, jsonPath string) {
	const dimRows = 256

	fmt.Printf("parallel experiment: %d-row fact table, %d-row dim table, %v per mode\n",
		rows, dimRows, duration)
	fmt.Printf("  num_cpu=%d (parallel speedup is bounded by physical cores)\n", runtime.NumCPU())

	db := engine.New(engine.Config{Name: "backend", Role: engine.Backend})
	err := db.ExecScript(`
		CREATE TABLE big (
			b_id INT PRIMARY KEY,
			b_grp INT,
			b_dim INT,
			b_val FLOAT,
			b_pad VARCHAR(40)
		);
		CREATE TABLE dim (
			d_id INT PRIMARY KEY,
			d_name VARCHAR(20)
		);
	`)
	if err != nil {
		fmt.Fprintln(os.Stderr, "parallel setup:", err)
		return
	}
	pad := strings.Repeat("x", 32)
	facts := make([]types.Row, 0, rows)
	for i := 0; i < rows; i++ {
		facts = append(facts, types.Row{
			types.NewInt(int64(i)),
			types.NewInt(int64(i % 64)),
			types.NewInt(int64(i % dimRows)),
			types.NewFloat(float64(i % 1000)),
			types.NewString(pad),
		})
	}
	if err := db.BulkLoad("big", facts); err != nil {
		fmt.Fprintln(os.Stderr, "parallel load:", err)
		return
	}
	dims := make([]types.Row, 0, dimRows)
	for i := 0; i < dimRows; i++ {
		dims = append(dims, types.Row{types.NewInt(int64(i)), types.NewString(fmt.Sprintf("d%d", i))})
	}
	if err := db.BulkLoad("dim", dims); err != nil {
		fmt.Fprintln(os.Stderr, "parallel load:", err)
		return
	}
	if err := db.Analyze(); err != nil {
		fmt.Fprintln(os.Stderr, "parallel analyze:", err)
		return
	}

	workloads := []struct{ name, query string }{
		// Selective predicate over the fact table: a pure partitioned-scan
		// pipeline under a Gather.
		{"scan", "SELECT b_id, b_val FROM big WHERE b_val >= 995.0"},
		// big is first in FROM, so it becomes the probe side: partitioned
		// parallel probe over a shared dim hash build, count gathered
		// two-phase.
		{"join", "SELECT COUNT(*) FROM big, dim WHERE b_dim = d_id AND b_val >= 500.0"},
		// Two-phase parallel aggregation: per-worker partials, final merge.
		{"agg", "SELECT b_grp, COUNT(*), SUM(b_val), AVG(b_val) FROM big GROUP BY b_grp"},
	}
	dops := []int{1, 2, 4, 8}

	prevProcs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prevProcs)

	type modeResult struct {
		DOP     int     `json:"dop"`
		PlanDOP int     `json:"plan_dop"`
		Queries int     `json:"queries"`
		QPS     float64 `json:"qps"`
		AvgMs   float64 `json:"avg_ms"`
		Speedup float64 `json:"speedup_vs_serial"`
	}
	results := make(map[string][]modeResult, len(workloads))

	for _, w := range workloads {
		fmt.Printf("  %s: %s\n", w.name, w.query)
		var serialQPS float64
		for _, dop := range dops {
			runtime.GOMAXPROCS(dop)
			opts := db.Options()
			opts.MaxDOP = dop
			db.SetOptions(opts)

			plan, err := db.Explain(w.query)
			if err != nil {
				fmt.Fprintln(os.Stderr, "parallel explain:", err)
				return
			}
			planDOP := explainDOP(plan)

			// Warm the plan cache before timing.
			if _, err := db.Exec(w.query, nil); err != nil {
				fmt.Fprintln(os.Stderr, "parallel query:", err)
				return
			}
			n := 0
			start := time.Now()
			for time.Since(start) < duration {
				if _, err := db.Exec(w.query, nil); err != nil {
					fmt.Fprintln(os.Stderr, "parallel query:", err)
					return
				}
				n++
			}
			elapsed := time.Since(start)
			qps := float64(n) / elapsed.Seconds()
			if dop == 1 {
				serialQPS = qps
			}
			r := modeResult{
				DOP:     dop,
				PlanDOP: planDOP,
				Queries: n,
				QPS:     qps,
				AvgMs:   elapsed.Seconds() * 1000 / float64(n),
				Speedup: ratio(qps, serialQPS),
			}
			results[w.name] = append(results[w.name], r)
			fmt.Printf("    dop=%d (plan dop=%d): %7.1f qps  avg %7.3fms  speedup %.2fx\n",
				r.DOP, r.PlanDOP, r.QPS, r.AvgMs, r.Speedup)
		}
	}

	if jsonPath == "" {
		return
	}
	snap := map[string]any{
		"benchmark":  "intra-query-parallelism",
		"date":       time.Now().UTC().Format(time.RFC3339),
		"fact_rows":  rows,
		"dim_rows":   dimRows,
		"duration_s": duration.Seconds(),
		"num_cpu":    runtime.NumCPU(),
		"modes": "each mode sets MaxDOP and GOMAXPROCS to its DOP; dop=1 is the " +
			"unchanged serial execution path (no Exchange in the plan)",
		"note": "speedup over serial is bounded by num_cpu: on a single-core host " +
			"the exchange workers time-slice one core and speedup stays ~1x; run on " +
			">=4 cores to observe the parallel scaling this measures",
		"workloads": map[string]string{
			"scan": workloads[0].query,
			"join": workloads[1].query,
			"agg":  workloads[2].query,
		},
		"results": results,
	}
	f, err := os.Create(jsonPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench-json:", err)
		return
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(snap); err != nil {
		fmt.Fprintln(os.Stderr, "bench-json:", err)
	}
	fmt.Printf("  snapshot written to %s\n", jsonPath)
}

// explainDOP extracts the Gather operator's DOP from an EXPLAIN rendering;
// 1 means the plan is serial.
func explainDOP(plan string) int {
	const marker = "Exchange dop="
	i := strings.Index(plan, marker)
	if i < 0 {
		return 1
	}
	rest := plan[i+len(marker):]
	if j := strings.IndexByte(rest, ')'); j >= 0 {
		rest = rest[:j]
	}
	n, err := strconv.Atoi(strings.TrimSpace(rest))
	if err != nil || n < 1 {
		return 1
	}
	return n
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
