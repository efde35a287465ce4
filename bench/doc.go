package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// document is the result of a run: the environment it was taken in and, per
// workload, every metric's median with the per-round values it came from.
type document struct {
	// Comparable is false for -quick runs and single-workload driver runs;
	// -compare refuses them.
	Comparable bool           `json:"comparable"`
	Env        environment    `json:"env"`
	Workloads  []*workloadDoc `json:"workloads"`
}

type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       int64  `json:"seed"`
	Clients    int    `json:"clients"`
	Quick      bool   `json:"quick,omitempty"`
}

type workloadDoc struct {
	Name   string `json:"name"`
	Why    string `json:"why"`
	N      int    `json:"n_per_client_per_round"`
	Rounds int    `json:"rounds"`
	LayerN int    `json:"n_per_layer_round,omitempty"`
	// WindowS is each end-to-end round's measured wall time.
	WindowS   []float64 `json:"window_s,omitempty"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Errors    []string  `json:"errors,omitempty"`
	// BackHopCalls[round][cache] shows how the fixed session order pinned the
	// clients: with two clients on two caches both columns carry load.
	BackHopCalls [][]int64             `json:"back_hop_calls_per_cache,omitempty"`
	EndToEnd     map[string]*metricDoc `json:"end_to_end,omitempty"`
	PerLayer     map[string]*metricDoc `json:"per_layer,omitempty"`
	TraceFile    string                `json:"trace_file,omitempty"`
}

type metricDoc struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Rounds []float64 `json:"rounds,omitempty"`
	// Samples is the per-round sample count behind a percentile, Percentile
	// the percentile reported (lower than the name says when a round had too
	// few samples to support it).
	Samples    []int   `json:"samples,omitempty"`
	Percentile float64 `json:"percentile,omitempty"`
}

func readEnvironment(seed int64, quick bool) environment {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return environment{Commit: commit, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: seed, Clients: numClients, Quick: quick}
}

// sampleKey maps a percentile metric to the sample count behind it.
var sampleKey = map[string]string{
	"latency_p50_ms": "latency", "latency_p99_ms": "latency", "read_p50_ms": "read",
	"write_p50_ms": "write",
}

// aggregateEndToEnd folds a workload's rounds into medians.
func aggregateEndToEnd(wd *workloadDoc, rounds []*roundResult) {
	wd.EndToEnd = map[string]*metricDoc{}
	for _, r := range rounds {
		wd.Attempted += r.Attempted
		wd.Failed += r.Failed
		wd.Errors = append(wd.Errors, r.Errors...)
		wd.BackHopCalls = append(wd.BackHopCalls, r.BackHopCalls)
		wd.WindowS = append(wd.WindowS, math.Round(r.WindowS*100)/100)
	}
	for _, spec := range endToEnd {
		m := &metricDoc{Unit: spec.Unit}
		for _, r := range rounds {
			m.Rounds = append(m.Rounds, r.Values[spec.Name])
			if key, ok := sampleKey[spec.Name]; ok {
				m.Samples = append(m.Samples, r.Samples[key])
			}
		}
		m.Value = median(m.Rounds)
		if spec.Name == "latency_p99_ms" {
			m.Percentile = 1
			for _, r := range rounds {
				if r.Percentile < m.Percentile {
					m.Percentile = r.Percentile
				}
			}
		}
		wd.EndToEnd[spec.Name] = m
	}
}

// aggregatePerLayer takes the shipped-system numbers from the untraced
// one-client round and the ladder numbers from the traced one.
func aggregatePerLayer(wd *workloadDoc, untraced, traced *roundResult) {
	wd.PerLayer = map[string]*metricDoc{}
	for _, r := range []*roundResult{untraced, traced} {
		wd.Attempted += r.Attempted
		wd.Failed += r.Failed
		wd.Errors = append(wd.Errors, r.Errors...)
	}
	for _, spec := range perLayer {
		src := untraced
		if tracedOnly[spec.Name] {
			src = traced
		}
		wd.PerLayer[spec.Name] = &metricDoc{Value: src.Layer[spec.Name], Unit: spec.Unit}
	}
	wd.PerLayer["trace.overhead_ratio"].Value = overheadRatio(untraced, traced)
}

// overheadRatio is what tracing costs: the router rung's weighted statement
// median in the traced round over the same figure of the untraced round,
// across the shapes both rounds sampled enough.
func overheadRatio(untraced, traced *roundResult) float64 {
	a, b := untraced.Shapes[spanRouter], traced.Shapes[spanRouter]
	freq := sampledOnAll(untraced.Freq, a, b)
	return ratio(weighted(b, freq), weighted(a, freq))
}

// print writes every metric by name with its unit.
func (d *document) print(w io.Writer) {
	fmt.Fprintf(w, "commit %s  %s  num_cpu=%d GOMAXPROCS=%d  seed=%d  clients=%d\n",
		d.Env.Commit, d.Env.GoVersion, d.Env.NumCPU, d.Env.GOMAXPROCS, d.Env.Seed, d.Env.Clients)
	for _, wd := range d.Workloads {
		fmt.Fprintf(w, "\n== %s: %s\n", wd.Name, wd.Why)
		fmt.Fprintf(w, "   attempted=%d failed=%d error_rate=%g\n", wd.Attempted, wd.Failed,
			ratio(float64(wd.Failed), float64(wd.Attempted)))
		for _, e := range wd.Errors {
			fmt.Fprintf(w, "   ERROR %s\n", e)
		}
		if wd.EndToEnd != nil {
			fmt.Fprintf(w, "   %d rounds of N=%d per client, measuring %v s; back-hop calls per cache by round: %v\n",
				wd.Rounds, wd.N, wd.WindowS, wd.BackHopCalls)
			for _, spec := range endToEnd {
				m := wd.EndToEnd[spec.Name]
				note := ""
				if len(m.Samples) > 0 {
					note = fmt.Sprintf("  n/round=%v", m.Samples)
				}
				if m.Percentile > 0 {
					note += fmt.Sprintf("  p=%g", m.Percentile*100)
				}
				fmt.Fprintf(w, "   %-24s %14.4f %-6s spread %5.1f%%  bound %4.1f%%%s\n",
					spec.Name, m.Value, m.Unit, spread(m.Rounds)*100, spec.Bound*100, note)
			}
		}
		if wd.PerLayer != nil {
			fmt.Fprintf(w, "   per layer (one client, N=%d; spans in %s)\n", wd.LayerN, wd.TraceFile)
			for _, spec := range perLayer {
				m := wd.PerLayer[spec.Name]
				fmt.Fprintf(w, "   %-34s %14.4f %s\n", spec.Name, m.Value, m.Unit)
			}
		}
	}
}

func (d *document) write(path string) error {
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readDocument(path string) (*document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	d := &document{}
	if err := json.Unmarshal(data, d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

func (d *document) workload(name string) *workloadDoc {
	for _, wd := range d.Workloads {
		if wd.Name == name {
			return wd
		}
	}
	return nil
}
