package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"

	"mtcache/internal/tpcw"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		got  float64
	}{
		{12000, 0.99, 0.99}, // 120 samples beyond p99
		{1000, 0.99, 0.99},  // exactly 10 beyond
		{999, 0.99, 0.95},   // 9.99 beyond p99: fall back
		{150, 0.99, 0.90},   // 7.5 beyond p95, 15 beyond p90
		{144, 0.95, 0.90},   // a one-client round's propagation sample
		{15, 0.99, 0.50},    // nothing above the median is supported
		{100000, 0.95, 0.95},
	} {
		if got := supportedPercentile(c.n, c.want); got != c.got {
			t.Errorf("supportedPercentile(%d, %g) = %g, want %g", c.n, c.want, got, c.got)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for p, want := range map[float64]float64{0.5: 5, 0.9: 9, 0.91: 10, 0.99: 10, 0.1: 1, 0.01: 1} {
		if got := percentile(v, p); got != want {
			t.Errorf("percentile(p=%g) = %g, want %g", p, got, want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("empty sample must give 0")
	}
}

func TestMedianOverRounds(t *testing.T) {
	if got := median([]float64{5, 1, 9, 3, 7}); got != 5 {
		t.Errorf("odd median = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
	if median(nil) != 0 {
		t.Error("empty median must be 0")
	}
}

// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] and
// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5].
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles of 1..10 = %g, %g", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2, 3, 4, 5})
	if !near(q1, 1.5) || !near(q3, 4.5) {
		t.Errorf("quartiles of 1..5 = %g, %g", q1, q3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5}); !near(got, 1) {
		t.Errorf("spread = %g, want 1", got)
	}
	if spread([]float64{7}) != 0 {
		t.Error("a single round has no spread")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: spanOp, Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: spanRouter, Start: 10, End: 60},
		{ID: 3, Parent: 2, Name: spanBackTCP, Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: spanRouter, Start: 70, End: 90},
		// Overlapping children are covered once: 20..50 and 40..55 cover 35.
		{ID: 5, Parent: 2, Name: spanBackTCP, Start: 40, End: 55},
	}
	self := selfTimes(spans)
	want := map[int]float64{1: 30, 2: 15, 3: 30, 4: 20, 5: 15}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
}

func TestRungDifference(t *testing.T) {
	upper := map[string]shapeStat{"a": {Median: 300, N: 100}, "b": {Median: 1000, N: 50}, "rare": {Median: 9999, N: 3}}
	lower := map[string]shapeStat{"a": {Median: 200, N: 100}, "b": {Median: 800, N: 50}, "rare": {Median: 1, N: 3}}
	freq := map[string]float64{"a": 3, "b": 1, "rare": 1, "absent": 5}
	// (3*(300-200) + 1*(1000-800)) / 4; "rare" has too few samples and
	// "absent" none, so both drop out and the weights renormalise.
	if got := rungDiff(upper, lower, freq); !near(got, 125) {
		t.Errorf("rungDiff = %g, want 125", got)
	}
	if got := weighted(upper, freq); !near(got, (3*300+1000)/4.0) {
		t.Errorf("weighted = %g", got)
	}
	if rungDiff(upper, map[string]shapeStat{}, freq) != 0 {
		t.Error("no common shape must give 0")
	}
}

func TestRungStatsLeavesOutDirectBackHops(t *testing.T) {
	var spans []span
	id := 0
	add := func(parent int, name, shape string, start, end int64) int {
		id++
		spans = append(spans, span{ID: id, Parent: parent, Name: name, Shape: shape, Start: start, End: end})
		return id
	}
	for i := 0; i < 20; i++ {
		op := add(0, spanOp, "Op", 0, 5000)
		st := add(op, spanEngine, "q", 0, 1000) // TCP back hop: 1 µs statement, 0.4 µs self
		add(st, spanBackTCP, "q", 100, 700)
		st = add(op, spanEngine, "q", 2000, 2500) // direct back hop: left out of the rung median
		add(st, spanBackDirect, "q", 2100, 2200)
	}
	stats, freq := rungStats(spans)
	if got := stats[spanEngine]["q"]; got.N != 20 || !near(got.Median, 1) {
		t.Errorf("engine rung = %+v, want 20 samples of 1 µs", got)
	}
	if got := stats["engine.cache.self"]["q"]; got.N != 40 || !near(got.Median, 0.4) {
		t.Errorf("engine self = %+v, want 40 samples with median 0.4 µs", got)
	}
	if freq["stmt"]["q"] != 40 || freq["back"]["q"] != 40 {
		t.Errorf("freq = %v", freq)
	}
	if got := rungDiff(stats[spanBackTCP], stats[spanBackDirect], freq["back"]); !near(got, 0.5) {
		t.Errorf("back hop self = %g, want 0.5 µs", got)
	}
	if got := stats["op.self"]["*"].Median; !near(got, 3.5) {
		t.Errorf("op self = %g, want 3.5 µs", got)
	}
}

func opStream(w workloadSpec, seed int64, client, n int) []op {
	g := newGenerator(w, seed, client, tpcw.DefaultConfig())
	out := make([]op, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

func TestGeneratorIsPureFunctionOfSeedWorkloadClient(t *testing.T) {
	for _, w := range workloads {
		a, b := opStream(w, 7, 1, 2000), opStream(w, 7, 1, 2000)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same (seed, workload, client) gave different streams", w.Name)
		}
		if reflect.DeepEqual(a, opStream(w, 8, 1, 2000)) {
			t.Errorf("%s: another seed gave the same stream", w.Name)
		}
		if reflect.DeepEqual(a, opStream(w, 7, 0, 2000)) {
			t.Errorf("%s: another client gave the same stream", w.Name)
		}
	}
}

func TestGeneratorProbesAndMixes(t *testing.T) {
	cfg := tpcw.DefaultConfig()
	for _, w := range workloads {
		for client := 0; client < 2; client++ {
			probes, browse, interactions := 0, 0, 0
			shapes := map[string]int{}
			for i, o := range opStream(w, 1, client, 20000) {
				switch o.Kind {
				case opProbe:
					probes++
					if client != 0 || (i+1)%probeEvery != 0 {
						t.Fatalf("%s: probe at op %d of client %d", w.Name, i+1, client)
					}
				case opInteraction:
					interactions++
					if o.Interaction.IsBrowse() {
						browse++
					}
				case opSQL:
					shapes[o.Shape]++
					if o.checkRows(o.Rows) != nil || o.checkRows(o.Rows-1) == nil {
						t.Fatalf("%s: bad row invariant on %+v", w.Name, o)
					}
				}
			}
			if want := map[int]int{0: 20000 / probeEvery, 1: 0}[client]; probes != want {
				t.Errorf("%s client %d: %d probes, want %d", w.Name, client, probes, want)
			}
			if w.tpcw {
				share := 100 * float64(browse) / float64(interactions)
				if want := tpcw.BrowseShare(w.mix); math.Abs(share-want) > 1 {
					t.Errorf("%s: browse share %.1f%%, want %.0f%%", w.Name, share, want)
				}
			} else if len(shapes) != 5 {
				t.Errorf("%s: shapes %v, want 5", w.Name, shapes)
			}
		}
	}
	if got := tpcw.BrowseShare(tpcw.Browsing); math.Abs(got-95) > 0.01 {
		t.Errorf("Browsing browse share = %g, want 95", got)
	}
	if probeItem(cfg) <= int64(cfg.Items) {
		t.Error("the probe row must lie outside the items the workloads touch")
	}
}

func endToEndDoc(rounds map[string][]float64) *document {
	wd := &workloadDoc{Name: "browsing", EndToEnd: map[string]*metricDoc{}}
	for _, spec := range endToEnd {
		r := rounds[spec.Name]
		if r == nil {
			r = []float64{100, 100, 100, 100, 100}
		}
		wd.EndToEnd[spec.Name] = &metricDoc{Value: median(r), Unit: spec.Unit, Rounds: r}
	}
	return &document{Comparable: true, Workloads: []*workloadDoc{wd}}
}

func TestCompareVerdicts(t *testing.T) {
	base := endToEndDoc(nil)
	cand := endToEndDoc(map[string][]float64{
		"latency_p50_ms":       {130, 130, 130, 130, 130},      // lower is better, bound 25%: worse
		"throughput_ops_s":     {130, 130, 130, 130, 130},      // higher is better: better
		"cpu_ms_per_op":        {120, 120, 120, 120, 120},      // inside the bound, steady: same
		"latency_p99_ms":       {70, 90, 105, 120, 140},        // inside the bound, rounds vary by 48%: unresolved
		"success_rate":         {99.8, 99.8, 99.8, 99.8, 99.8}, // 0.2% down on a 0.1% bound: worse
		"allocs_per_op":        {80, 80, 80, 80, 80},           // 20% fewer on a 15% bound: better
		"backend_calls_per_op": {109, 109, 109, 109, 109},      // 9% more on a 15% bound: same
	})
	rows, err := compare(base, cand)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]verdict{}
	for _, r := range rows {
		if r.Workload != "browsing" {
			t.Errorf("row for workload %q", r.Workload)
		}
		got[r.Metric] = r.Verdict
	}
	want := map[string]verdict{
		"latency_p50_ms": worse, "throughput_ops_s": better, "cpu_ms_per_op": same,
		"latency_p99_ms": unresolved, "success_rate": worse, "allocs_per_op": better,
		"backend_calls_per_op": same, "heap_live_mb": same, "setup_s": same,
	}
	for metric, v := range want {
		if got[metric] != v {
			t.Errorf("%s: verdict %s, want %s", metric, got[metric], v)
		}
	}
	if len(rows) != len(endToEnd) {
		t.Errorf("%d rows, want one per end-to-end metric (%d)", len(rows), len(endToEnd))
	}

	cand.Comparable = false
	if _, err := compare(base, cand); err == nil {
		t.Error("a -quick document must be refused")
	}
	cand.Comparable = true
	cand.Workloads[0].Name = "other"
	if _, err := compare(base, cand); err == nil {
		t.Error("a missing workload must be an error")
	}
}

func TestAggregateEndToEndTakesMedianOverRounds(t *testing.T) {
	var rounds []*roundResult
	for r := 0; r < 5; r++ {
		res := &roundResult{Attempted: 100, Values: map[string]float64{"throughput_ops_s": float64(1000 + r)},
			Samples: map[string]int{"latency": 200}, Percentile: 0.95}
		rounds = append(rounds, res)
	}
	wd := &workloadDoc{}
	aggregateEndToEnd(wd, rounds)
	if got := wd.EndToEnd["throughput_ops_s"]; got.Value != 1002 || len(got.Rounds) != 5 {
		t.Errorf("throughput = %+v, want the median of the rounds", got)
	}
	if got := wd.EndToEnd["latency_p99_ms"]; got.Percentile != 0.95 || !reflect.DeepEqual(got.Samples, []int{200, 200, 200, 200, 200}) {
		t.Errorf("latency p99 = %+v, want the percentile the rounds could support and n per round", got)
	}
	if wd.Attempted != 500 {
		t.Errorf("attempted = %d", wd.Attempted)
	}
}

type manifestMetric struct {
	Name, Unit, Better string
	Bound              float64
}

// BENCHMARK.json repeats the workload and metric lists for the acceptance
// driver; this keeps the two from drifting apart.
func TestBenchmarkManifestMatchesMetricLists(t *testing.T) {
	var m struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []manifestMetric `json:"end_to_end"`
		PerLayer  []manifestMetric `json:"per_layer"`
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	// The manifest gates the end-to-end metrics that do not scale with the
	// host's speed; the others lead its per_layer list, without a bound.
	var gated, ungated []metricSpec
	for _, spec := range endToEnd {
		if spec.HostSpeed {
			ungated = append(ungated, spec)
		} else {
			gated = append(gated, spec)
		}
	}
	check := func(kind string, got []manifestMetric, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: manifest has %d metrics, the bench %d", kind, len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			if !bounded {
				w.Bound = 0
			}
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better || g.Bound != w.Bound {
				t.Errorf("%s[%d]: manifest %+v, bench %+v", kind, i, g, w)
			}
		}
	}
	check("end_to_end", m.EndToEnd, gated, true)
	check("per_layer", m.PerLayer, append(ungated, perLayer...), false)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest has %d workloads", len(m.Workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.Name || m.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: manifest %+v, bench %s", i, m.Workloads[i], w.Name)
		}
	}
}

// TestRoundSmoke runs one tiny untraced and one tiny traced round on a real
// fleet: every answer check, the convergence check and every metric key.
func TestRoundSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two fleets")
	}
	dir := t.TempDir()
	untraced, err := runRound(roundSpec{Workload: "adhoc_local", Seed: 1, N: 2 * probeEvery, Clients: 2, OutDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	traced, err := runRound(roundSpec{Workload: "ordering", Seed: 1, N: 4 * probeEvery, Clients: 1, Traced: true, OutDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*roundResult{untraced, traced} {
		if r.Failed != 0 || len(r.Errors) != 0 {
			t.Errorf("%s: failed=%d errors=%v", r.Spec.Workload, r.Failed, r.Errors)
		}
		for _, spec := range endToEnd {
			if v, ok := r.Values[spec.Name]; !ok || v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %g", r.Spec.Workload, spec.Name, v)
			}
		}
		for _, spec := range perLayer {
			if _, ok := r.Layer[spec.Name]; !ok && tracedOnly[spec.Name] == r.Spec.Traced && spec.Name != "trace.overhead_ratio" {
				t.Errorf("%s: per-layer metric %s missing", r.Spec.Workload, spec.Name)
			}
		}
	}
	if untraced.Attempted != 4*probeEvery || len(untraced.BackHopCalls) != numCaches {
		t.Errorf("untraced round: attempted %d, back-hop calls %v", untraced.Attempted, untraced.BackHopCalls)
	}
	if traced.Layer["storage.fsyncs_per_commit"] <= 0 {
		t.Error("ordering's traced round must carry the durable-commit measurement")
	}
	var spans []span
	data, err := os.ReadFile(dir + "/trace-ordering.json")
	if err == nil {
		err = json.Unmarshal(data, &spans)
	}
	if err != nil || len(spans) == 0 {
		t.Fatalf("trace file: %d spans, %v", len(spans), err)
	}
}
