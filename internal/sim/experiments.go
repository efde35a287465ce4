package sim

import (
	"fmt"
	"strings"
	"time"

	"mtcache/internal/core"
	"mtcache/internal/tpcw"
)

// BaselineRow is one row of the paper's §6.2.1 baseline table: throughput
// with all database work on the backend, loaded to ~90% CPU.
type BaselineRow struct {
	Workload    tpcw.Workload
	Users       int
	WIPS        float64
	BackendUtil float64
}

// ExperimentBaseline reproduces the no-cache baseline (paper: Browsing 50,
// Shopping 82, Ordering 283 WIPS on the 2003 hardware; shapes — the
// ordering between workloads and backend saturation — carry over).
func ExperimentBaseline(cal *CalibrationResult, servers int) []BaselineRow {
	var rows []BaselineRow
	for _, w := range tpcw.Workloads() {
		cfg := Config{
			Workload: w, Servers: servers, Seed: int64(w) + 100,
			Replication: true,
		}
		users, res := FindMaxThroughput(cal.NoCache, cfg, false)
		rows = append(rows, BaselineRow{Workload: w, Users: users * servers, WIPS: res.WIPS, BackendUtil: res.BackendUtil})
	}
	return rows
}

// ScaleoutPoint is one point of figures 6(a) and 6(b): caching enabled,
// web/cache servers driven to their 90% cap.
type ScaleoutPoint struct {
	Workload    tpcw.Workload
	Servers     int
	Users       int
	WIPS        float64
	BackendUtil float64
	WebUtil     float64
}

// ExperimentScaleout reproduces figures 6(a) and 6(b): WIPS and backend CPU
// load as the number of web/cache servers grows from 1 to maxServers.
func ExperimentScaleout(cal *CalibrationResult, maxServers int) []ScaleoutPoint {
	var pts []ScaleoutPoint
	for _, w := range tpcw.Workloads() {
		for n := 1; n <= maxServers; n++ {
			cfg := Config{
				Workload: w, Servers: n, Seed: int64(w)*31 + int64(n),
				Replication: true,
			}
			users, res := FindMaxThroughput(cal.Cached, cfg, true)
			pts = append(pts, ScaleoutPoint{
				Workload: w, Servers: n, Users: users * n,
				WIPS: res.WIPS, BackendUtil: res.BackendUtil, WebUtil: res.WebUtil,
			})
		}
	}
	return pts
}

// ReplOverheadResult reproduces experiment 2 (§6.2.2).
type ReplOverheadResult struct {
	// Backend side: Ordering throughput at backend saturation with the log
	// reader on vs off (paper: 283 vs 311 WIPS, a ~10% reduction).
	WIPSReaderOn  float64
	WIPSReaderOff float64
	ReductionPct  float64

	// Cache side: CPU utilization of an idle middle-tier machine that only
	// applies replicated changes (paper: ~15%).
	IdleCacheApplyUtil float64
}

// ExperimentReplicationOverhead measures replication's cost on both tiers.
func ExperimentReplicationOverhead(cal *CalibrationResult) ReplOverheadResult {
	// Saturate the backend with web servers accessing it directly
	// (paper: two web servers, Ordering workload).
	base := Config{Workload: tpcw.Ordering, Servers: 2, Seed: 7}

	on := base
	on.Replication = true
	usersOn, resOn := FindMaxThroughput(cal.NoCache, on, false)

	off := base
	off.Replication = false
	_, resOff := FindMaxThroughput(cal.NoCache, off, false)

	// Idle cache: apply work only. The write-transaction rate follows from
	// the reader-on run's throughput and the mix's writes per interaction.
	var writesPerWI float64
	for in, pct := range tpcw.Mix(tpcw.Ordering) {
		writesPerWI += pct / 100 * cal.NoCache.Writes[in]
	}
	writeRate := resOn.WIPS * writesPerWI // write txns per second
	idleUtil := writeRate * cal.Cached.ApplyPerTxn

	_ = usersOn
	red := 0.0
	if resOff.WIPS > 0 {
		red = (resOff.WIPS - resOn.WIPS) / resOff.WIPS * 100
	}
	return ReplOverheadResult{
		WIPSReaderOn:  resOn.WIPS,
		WIPSReaderOff: resOff.WIPS,
		ReductionPct:  red,
		IdleCacheApplyUtil: func() float64 {
			if idleUtil > 1 {
				return 1
			}
			return idleUtil
		}(),
	}
}

// ReplLatencyResult reproduces experiment 3 (§6.2.3): average commit-to-
// commit propagation delay under light and heavy load.
type ReplLatencyResult struct {
	LightLoadMean time.Duration // paper: 0.55 s
	HeavyLoadMean time.Duration // paper: 1.67 s
}

// ExperimentReplicationLatency measures real propagation latency on the
// live pipeline: background agents with the given poll interval, a trickle
// of writes for the light case, and a saturating write burst for the heavy
// case.
func ExperimentReplicationLatency(backend *core.BackendServer, cache *core.CacheServer, app *tpcw.App, pollInterval, lightDuration, heavyDuration time.Duration) (ReplLatencyResult, error) {
	var out ReplLatencyResult
	stats := cache.Stats

	// Light load: a few writes, agents comfortably keeping up.
	backend.StartReplication(pollInterval, pollInterval)
	s := app.NewSession(31)
	lightStart := stats.Latency.Count()
	deadline := time.Now().Add(lightDuration)
	for time.Now().Before(deadline) {
		if _, err := app.Run(s, tpcw.BuyConfirm); err != nil {
			backend.StopReplication()
			return out, err
		}
		time.Sleep(pollInterval) // think time between writers
	}
	// drain
	time.Sleep(3 * pollInterval)
	backend.StopReplication()
	lightMean, err := latencySince(cache, lightStart)
	if err != nil {
		return out, err
	}
	out.LightLoadMean = lightMean

	// Heavy load: writes arrive as fast as the system accepts them, so the
	// distribution queues back up and propagation delay grows.
	backend.StartReplication(4*pollInterval, 4*pollInterval)
	heavyStart := stats.Latency.Count()
	deadline = time.Now().Add(heavyDuration)
	for time.Now().Before(deadline) {
		if _, err := app.Run(s, tpcw.BuyConfirm); err != nil {
			backend.StopReplication()
			return out, err
		}
	}
	time.Sleep(10 * pollInterval)
	backend.StopReplication()
	if err := backend.SyncReplication(); err != nil {
		return out, err
	}
	heavyMean, err := latencySince(cache, heavyStart)
	if err != nil {
		return out, err
	}
	out.HeavyLoadMean = heavyMean
	return out, nil
}

func latencySince(cache *core.CacheServer, before int64) (time.Duration, error) {
	h := cache.Stats.Latency
	if h.Count() <= before {
		return 0, fmt.Errorf("sim: no replication latency samples recorded")
	}
	// The histogram accumulates globally; the mean over the whole run is
	// close enough because each phase dominates its own sample count.
	return time.Duration(h.Mean() * float64(time.Second)), nil
}

// FormatScaleout renders figure 6(a)/6(b) as aligned text tables.
func FormatScaleout(pts []ScaleoutPoint) string {
	var b strings.Builder
	b.WriteString("Figure 6(a): WIPS vs number of web/cache servers\n")
	b.WriteString("servers  ")
	for _, w := range tpcw.Workloads() {
		fmt.Fprintf(&b, "%10s", w)
	}
	b.WriteString("\n")
	byKey := map[string]ScaleoutPoint{}
	maxN := 0
	for _, p := range pts {
		byKey[fmt.Sprintf("%s/%d", p.Workload, p.Servers)] = p
		if p.Servers > maxN {
			maxN = p.Servers
		}
	}
	for n := 1; n <= maxN; n++ {
		fmt.Fprintf(&b, "%7d  ", n)
		for _, w := range tpcw.Workloads() {
			fmt.Fprintf(&b, "%10.0f", byKey[fmt.Sprintf("%s/%d", w, n)].WIPS)
		}
		b.WriteString("\n")
	}
	b.WriteString("\nFigure 6(b): backend CPU load (%) vs number of web/cache servers\n")
	b.WriteString("servers  ")
	for _, w := range tpcw.Workloads() {
		fmt.Fprintf(&b, "%10s", w)
	}
	b.WriteString("\n")
	for n := 1; n <= maxN; n++ {
		fmt.Fprintf(&b, "%7d  ", n)
		for _, w := range tpcw.Workloads() {
			fmt.Fprintf(&b, "%10.1f", byKey[fmt.Sprintf("%s/%d", w, n)].BackendUtil*100)
		}
		b.WriteString("\n")
	}
	return b.String()
}
