package sim

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"mtcache/internal/core"
	"mtcache/internal/engine"
	"mtcache/internal/exec"
	"mtcache/internal/tpcw"
	"mtcache/internal/trace"
)

// syntheticCosts builds a hand-made cost model for deterministic DES tests:
// browse interactions are web-only, order interactions hit the backend.
func syntheticCosts(webMS, backendMS float64) Costs {
	c := Costs{
		Web:     map[tpcw.Interaction]float64{},
		Backend: map[tpcw.Interaction]float64{},
		Writes:  map[tpcw.Interaction]float64{},
	}
	for _, in := range tpcw.Interactions() {
		c.Web[in] = webMS / 1000
		if in.IsBrowse() {
			c.Backend[in] = 0
		} else {
			c.Backend[in] = backendMS / 1000
			c.Writes[in] = 1
		}
	}
	return c
}

func TestSimulateConservation(t *testing.T) {
	c := syntheticCosts(2, 4)
	res := Simulate(c, Config{Workload: tpcw.Shopping, Servers: 2, UsersPerServer: 10, Duration: 60, Seed: 1})
	if res.Completed == 0 {
		t.Fatal("nothing completed")
	}
	// Closed-loop upper bound: nUsers / (think + service) interactions/sec.
	upper := float64(20) / 1.0
	if res.WIPS > upper {
		t.Errorf("WIPS %f exceeds closed-loop bound %f", res.WIPS, upper)
	}
	if res.BackendUtil < 0 || res.BackendUtil > 1 || res.WebUtil < 0 || res.WebUtil > 1 {
		t.Errorf("utilizations out of range: %+v", res)
	}
}

func TestSimulateUtilizationMatchesLittleLaw(t *testing.T) {
	// Light load: utilization ≈ throughput × demand.
	c := syntheticCosts(5, 10)
	res := Simulate(c, Config{Workload: tpcw.Ordering, Servers: 2, UsersPerServer: 5, Duration: 120, Seed: 3})
	var backendDemand float64
	for in, pct := range tpcw.Mix(tpcw.Ordering) {
		backendDemand += pct / 100 * c.Backend[in]
	}
	expected := res.WIPS * backendDemand / 2 // two backend CPUs
	if math.Abs(res.BackendUtil-expected) > 0.05 {
		t.Errorf("backend util %f, utilization law predicts %f", res.BackendUtil, expected)
	}
}

func TestSimulateScalesWithServers(t *testing.T) {
	// Pure browse load (no backend): doubling servers ≈ doubles peak WIPS.
	c := syntheticCosts(20, 40)
	cfg := Config{Workload: tpcw.Browsing, Seed: 5}
	cfg.Servers = 1
	u1, r1 := FindMaxThroughput(c, cfg, true)
	cfg.Servers = 2
	u2, r2 := FindMaxThroughput(c, cfg, true)
	if u1 == 0 || u2 == 0 {
		t.Fatal("search failed")
	}
	ratio := r2.WIPS / r1.WIPS
	if ratio < 1.7 || ratio > 2.3 {
		t.Errorf("scale-out ratio %f, want ~2 (r1=%f r2=%f)", ratio, r1.WIPS, r2.WIPS)
	}
}

func TestSimulateBackendBottleneckCapsScaleout(t *testing.T) {
	// Heavy backend demand: adding servers must NOT scale throughput.
	c := syntheticCosts(1, 50)
	cfg := Config{Workload: tpcw.Ordering, Seed: 8}
	cfg.Servers = 1
	_, r1 := FindMaxThroughput(c, cfg, false)
	cfg.Servers = 5
	_, r5 := FindMaxThroughput(c, cfg, false)
	if r5.WIPS > r1.WIPS*1.6 {
		t.Errorf("backend-bound workload scaled: %f -> %f", r1.WIPS, r5.WIPS)
	}
}

func TestReplicationAddsLoad(t *testing.T) {
	c := syntheticCosts(5, 10)
	c.ReaderPerTxn = 0.004
	c.ApplyPerTxn = 0.003
	base := Config{Workload: tpcw.Ordering, Servers: 2, UsersPerServer: 20, Duration: 60, Seed: 9}
	on := base
	on.Replication = true
	off := base
	off.Replication = false
	resOn := Simulate(c, on)
	resOff := Simulate(c, off)
	if resOn.BackendUtil <= resOff.BackendUtil {
		t.Errorf("log reader should add backend load: on=%f off=%f", resOn.BackendUtil, resOff.BackendUtil)
	}
	if resOn.WebUtil <= resOff.WebUtil {
		t.Errorf("apply agents should add cache load: on=%f off=%f", resOn.WebUtil, resOff.WebUtil)
	}
}

func TestFindMaxThroughputRespectsLatency(t *testing.T) {
	c := syntheticCosts(30, 0)
	cfg := Config{Workload: tpcw.Browsing, Servers: 1, Seed: 11}
	users, res := FindMaxThroughput(c, cfg, true)
	if users == 0 {
		t.Fatal("no feasible load")
	}
	if res.P90Latency > LatencyLimit {
		t.Errorf("accepted config violates latency: %f", res.P90Latency)
	}
	if res.WebUtil > UtilCap+0.02 {
		t.Errorf("accepted config violates utilization cap: %f", res.WebUtil)
	}
}

func TestSimulateDeterministic(t *testing.T) {
	c := syntheticCosts(3, 6)
	cfg := Config{Workload: tpcw.Shopping, Servers: 3, UsersPerServer: 7, Duration: 30, Seed: 42}
	r1 := Simulate(c, cfg)
	r2 := Simulate(c, cfg)
	if r1.WIPS != r2.WIPS || r1.P90Latency != r2.P90Latency {
		t.Error("same seed must reproduce identical results")
	}
}

// ---- end-to-end calibration + experiments at a small scale ----

var smallConfig = tpcw.Config{Items: 120, Customers: 200, Seed: 5}

func smallCalibration(t *testing.T) *CalibrationResult {
	t.Helper()
	cal, err := Calibrate(smallConfig, 4)
	if err != nil {
		t.Fatal(err)
	}
	return cal
}

// countedLink counts the statements a cache sends to its backend.
type countedLink struct {
	exec.RemoteClient
	calls int
}

func (l *countedLink) Query(sqlText string, params exec.Params) (*exec.ResultSet, error) {
	l.calls++
	return l.RemoteClient.Query(sqlText, params)
}

func (l *countedLink) QueryTraced(sqlText string, params exec.Params, traceID string) (*exec.ResultSet, *trace.WireSpan, error) {
	l.calls++
	return l.RemoteClient.QueryTraced(sqlText, params, traceID)
}

// TestCalibrateProducesSaneCosts checks the calibrated system by counting,
// not by timing: Calibrate's costs are wall-clock medians over a few
// repetitions and move with host load, so a threshold on a share of them is a
// coin toss on a busy 1-core box.
func TestCalibrateProducesSaneCosts(t *testing.T) {
	cal := smallCalibration(t)
	for _, in := range tpcw.Interactions() {
		if cal.NoCache.Backend[in] < 0 || cal.Cached.Web[in] < 0 {
			t.Errorf("%s: negative cost", in)
		}
	}
	// In cached mode, browse-class interactions put (almost) no load on the
	// backend — that is the whole point of MTCache: only Home asks it for
	// anything, one lookup in the uncached customer table.
	link := &countedLink{RemoteClient: engine.NewLink(cal.Backend.DB)}
	cal.Cache.DB.SetRemote(link)
	app := tpcw.NewApp(core.ConnectCache(cal.Cache), smallConfig)
	session := app.NewSession(3)
	for rep := 0; rep < 5; rep++ {
		for _, in := range tpcw.Interactions() {
			if !in.IsBrowse() {
				continue
			}
			before := link.calls
			if _, err := app.Run(session, in); err != nil {
				t.Fatalf("%s: %v", in, err)
			}
			if n := link.calls - before; n > 1 || (n == 1 && in != tpcw.Home) {
				t.Errorf("%s made %d backend calls", in, n)
			}
		}
	}
	// BuyConfirm must generate write transactions.
	if cal.Cached.Writes[tpcw.BuyConfirm] < 1 {
		t.Errorf("BuyConfirm writes: %f", cal.Cached.Writes[tpcw.BuyConfirm])
	}
	// The replication pipeline ran: pulls read the backend's log and the
	// cache applied what they returned.
	if r, a := cal.Backend.Repl.Stats.ReaderTime.Value(), cal.Cache.Stats.TxnsApplied.Value(); r == 0 || a == 0 {
		t.Errorf("replication counters: %d ns reading the log, %d transactions applied", r, a)
	}
}

// The experiment tests below are the one front-end of the capacity
// simulation: `go test ./internal/sim -run TestExperiment -v` logs the
// EXPERIMENTS.md §6.2.1 and §6.2.2 tables and asserts their shape. They run
// over a recorded calibration, not a live one: Calibrate times the real
// engine with the wall clock, so its costs move with host load and a
// threshold on them is a coin toss on a busy 1-core box. The recording was
// taken at 500 items / 1000 customers; at the tiny scale of smallCalibration
// the baseline shape itself does not hold (see EXPERIMENTS.md). Re-record
// after a change that moves per-interaction costs:
//
//	go test ./internal/sim -run TestExperimentShapes -update-calibration
var updateCalibration = flag.Bool("update-calibration", false, "re-record testdata/calibration.json from a live calibration")

const recordedCalibrationPath = "testdata/calibration.json"

// recordedCalibration is the checked-in cost model (costs only: no live
// servers behind it).
type recordedCalibration struct {
	Config      tpcw.Config
	Reps        int
	ScaleFactor float64
	NoCache     Costs
	Cached      Costs
}

var recordOnce sync.Once

func loadRecordedCalibration(t *testing.T) *CalibrationResult {
	t.Helper()
	if *updateCalibration {
		recordOnce.Do(func() { recordCalibration(t) })
	}
	data, err := os.ReadFile(recordedCalibrationPath)
	if err != nil {
		t.Fatal(err)
	}
	var rec recordedCalibration
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatalf("%s: %v", recordedCalibrationPath, err)
	}
	return &CalibrationResult{NoCache: rec.NoCache, Cached: rec.Cached, ScaleFactor: rec.ScaleFactor}
}

func recordCalibration(t *testing.T) {
	t.Helper()
	rec := recordedCalibration{Config: tpcw.Config{Items: 500, Customers: 1000, Seed: 5}, Reps: 15}
	cal, err := Calibrate(rec.Config, rec.Reps)
	if err != nil {
		t.Fatal(err)
	}
	rec.ScaleFactor, rec.NoCache, rec.Cached = cal.ScaleFactor, cal.NoCache, cal.Cached
	data, err := json.MarshalIndent(rec, "", "\t")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(recordedCalibrationPath, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestExperimentShapesMatchPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep in short mode")
	}
	cal := loadRecordedCalibration(t)

	// Baseline ordering: Browsing < Shopping < Ordering (paper: 50/82/283).
	base := ExperimentBaseline(cal, 5)
	var tbl strings.Builder
	fmt.Fprintf(&tbl, "§6.2.1 baseline: no caching, backend at ~90%% CPU (paper: 50 / 82 / 283 WIPS)\n")
	fmt.Fprintf(&tbl, "%-10s %8s %8s %12s\n", "Workload", "Users", "WIPS", "BackendCPU%")
	for _, r := range base {
		fmt.Fprintf(&tbl, "%-10s %8d %8.0f %12.1f\n", r.Workload, r.Users, r.WIPS, r.BackendUtil*100)
	}
	t.Log(tbl.String())
	if !(base[0].WIPS < base[1].WIPS && base[1].WIPS < base[2].WIPS) {
		t.Errorf("baseline ordering wrong: %+v", base)
	}

	// Scale-out: Browsing WIPS at 5 servers ≈ 5× WIPS at 1 server, and
	// backend stays lightly loaded (paper: 7.5%% at five servers).
	pts := ExperimentScaleout(cal, 5)
	t.Log("§6.2.1 scale-out with caching (paper at five servers: 129/7.5%, 199/15.9%, 271/55.4%)\n" + FormatScaleout(pts))
	get := func(w tpcw.Workload, n int) ScaleoutPoint {
		for _, p := range pts {
			if p.Workload == w && p.Servers == n {
				return p
			}
		}
		t.Fatalf("missing point %s/%d", w, n)
		return ScaleoutPoint{}
	}
	b1, b5 := get(tpcw.Browsing, 1), get(tpcw.Browsing, 5)
	if ratio := b5.WIPS / b1.WIPS; ratio < 3.5 {
		t.Errorf("browsing scale-out %f, want near-linear (~5)", ratio)
	}
	if b5.BackendUtil > 0.35 {
		t.Errorf("browsing backend load at 5 servers: %.1f%%, want low", b5.BackendUtil*100)
	}
	// Ordering: backend load clearly higher than Browsing (paper: 55.4% vs
	// 7.5%). Assert the ordering, not the magnitude — EXPERIMENTS.md records
	// the measured gap.
	o5 := get(tpcw.Ordering, 5)
	if o5.BackendUtil < b5.BackendUtil*1.3 {
		t.Errorf("ordering backend load (%.1f%%) should exceed browsing (%.1f%%)",
			o5.BackendUtil*100, b5.BackendUtil*100)
	}
}

func TestExperimentReplicationOverheadShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment in short mode")
	}
	r := ExperimentReplicationOverhead(loadRecordedCalibration(t))
	t.Logf("§6.2.2 replication overhead (Ordering): backend WIPS reader on %.0f / off %.0f, "+
		"reduction %.1f%% (paper ~10%%), idle mid-tier apply CPU %.1f%% (paper ~15%%)",
		r.WIPSReaderOn, r.WIPSReaderOff, r.ReductionPct, r.IdleCacheApplyUtil*100)
	if r.WIPSReaderOff <= r.WIPSReaderOn {
		t.Errorf("reader off should raise throughput: on=%f off=%f", r.WIPSReaderOn, r.WIPSReaderOff)
	}
	if r.ReductionPct < 0 || r.ReductionPct > 50 {
		t.Errorf("reduction out of plausible range: %f%%", r.ReductionPct)
	}
	// The paper measured ~15% on an idle cache that only applies changes;
	// assert a sane utilization, EXPERIMENTS.md records the value.
	if r.IdleCacheApplyUtil <= 0 || r.IdleCacheApplyUtil > 1.0 {
		t.Errorf("idle cache apply utilization implausible: %f", r.IdleCacheApplyUtil)
	}
}

func TestExperimentReplicationLatencyLive(t *testing.T) {
	if testing.Short() {
		t.Skip("live latency experiment in short mode")
	}
	cal := smallCalibration(t)
	app := tpcw.NewApp(core.ConnectCache(cal.Cache), tpcw.Config{Items: 120, Customers: 200, Seed: 5})
	res, err := ExperimentReplicationLatency(cal.Cache, app, 40*time.Millisecond, 500*time.Millisecond, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("§6.2.3 replication latency (live, 40ms agents): light %v, heavy %v (paper: 0.55 s / 1.67 s)",
		res.LightLoadMean.Round(time.Millisecond), res.HeavyLoadMean.Round(time.Millisecond))
	if res.LightLoadMean <= 0 {
		t.Fatal("no light-load latency")
	}
	if res.HeavyLoadMean <= res.LightLoadMean {
		t.Errorf("heavy load should have higher latency: light=%v heavy=%v",
			res.LightLoadMean, res.HeavyLoadMean)
	}
}
