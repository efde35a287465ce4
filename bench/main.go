// Command bench is the fleet benchmark: one command builds the routed cache
// fleet, runs four workloads, checks every answer and prints every metric by
// name with its unit. See README.md for the metrics and how they interact.
//
//	bash bench/run.sh -seed 1                    full run: 4 workloads x (5 rounds + 2 per-layer rounds)
//	bash bench/run.sh -compare a.json b.json     apply the bounds to two full runs
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1   one driver run (BENCHMARK.json)
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
)

const (
	fullRounds = 5
	// tracedRunRounds is how many end-to-end rounds a driver run with --trace 1
	// affords next to its two one-client rounds: its host-speed metrics carry
	// no bound, and the run has to stay near 40 s.
	tracedRunRounds = 3
	// numClients is the closed-loop client count of an end-to-end round: the
	// sandbox's nproc, fixed so that a run means the same on a larger host.
	numClients = 2
	// nominalRoundSeconds is how long a round of a workload's N operations per
	// client measures on the two-core sandbox the sizes were chosen on; the
	// driver's --seconds is converted to operations with it.
	nominalRoundSeconds = 6.0
	// nominalLayerSeconds is the same for a one-client round of N operations.
	nominalLayerSeconds = 5.0
)

func main() {
	var (
		seed     = flag.Int64("seed", 1, "workload seed: the operation streams are a pure function of (seed, workload, client)")
		workload = flag.String("workload", "", "driver mode: run only this workload and end with one JSON line")
		seconds  = flag.Int("seconds", 30, "driver mode: seconds of measurement, converted to operations per round")
		traced   = flag.Int("trace", 0, "driver mode: 0 = gated end-to-end metrics (5 rounds), 1 = also the two one-client rounds; host-speed and per-layer metrics")
		quick    = flag.Bool("quick", false, "1 round of N/10: smoke test only, the document is marked non-comparable")
		cmp      = flag.Bool("compare", false, "compare two result documents: -compare base.json candidate.json")
		outDir   = flag.String("out", "bench/out", "directory for result.json and trace-<workload>.json")
		docPath  = flag.String("o", "", "full run: path of the result document (default <out>/result.json)")
		child    = flag.String("child", "", "internal: run one round described by this JSON and print its result")
	)
	flag.Parse()
	switch {
	case *child != "":
		os.Exit(childMain(*child))
	case *cmp:
		os.Exit(compareMain(flag.Args()))
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	if *workload != "" {
		os.Exit(driverMain(*workload, *seed, *seconds, *traced == 1, *outDir))
	}

	p := plan{seed: *seed, rounds: fullRounds, scale: 1, layerScale: 1, endToEnd: true, perLayer: true,
		workloads: workloads, outDir: *outDir, quick: *quick}
	if *quick {
		p.rounds, p.scale, p.layerScale = 1, 0.1, 0.1
	}
	doc, err := p.execute()
	if err != nil {
		fatal(err)
	}
	doc.Comparable = !*quick
	doc.print(os.Stdout)
	path := *docPath
	if path == "" {
		path = filepath.Join(*outDir, "result.json")
	}
	if err := doc.write(path); err != nil {
		fatal(err)
	}
	fmt.Printf("\nwrote %s\n", path)
	if failed(doc) {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func failed(d *document) bool {
	for _, wd := range d.Workloads {
		if wd.Failed > 0 {
			return true
		}
	}
	return false
}

// plan is what one invocation runs.
type plan struct {
	seed       int64
	rounds     int
	scale      float64 // multiplies a workload's N in the end-to-end rounds
	layerScale float64 // multiplies it in the two per-layer rounds
	endToEnd   bool
	perLayer   bool
	workloads  []workloadSpec
	outDir     string
	quick      bool
}

func scaled(n int, scale float64) int {
	if s := int(math.Round(float64(n) * scale)); s > probeEvery {
		return s
	}
	return probeEvery // at least one probe, so every write metric has a sample
}

// execute runs the plan's rounds, each in a fresh process. End-to-end rounds
// of the workloads are interleaved (b, o, l, r, b, o, ...) so that slow drift
// of the host lands on every workload alike.
func (p plan) execute() (*document, error) {
	doc := &document{Env: readEnvironment(p.seed, p.quick)}
	docs := map[string]*workloadDoc{}
	for _, w := range p.workloads {
		docs[w.Name] = &workloadDoc{Name: w.Name, Why: w.Why}
		doc.Workloads = append(doc.Workloads, docs[w.Name])
	}
	if p.endToEnd {
		results := map[string][]*roundResult{}
		for r := 0; r < p.rounds; r++ {
			for _, w := range p.workloads {
				res, err := runChild(roundSpec{Workload: w.Name, Seed: p.seed, Round: r, N: scaled(w.N, p.scale),
					Clients: numClients, OutDir: p.outDir})
				if err != nil {
					return nil, err
				}
				results[w.Name] = append(results[w.Name], res)
			}
		}
		for _, w := range p.workloads {
			docs[w.Name].N, docs[w.Name].Rounds = scaled(w.N, p.scale), p.rounds
			aggregateEndToEnd(docs[w.Name], results[w.Name])
		}
	}
	if p.perLayer {
		for _, w := range p.workloads {
			spec := roundSpec{Workload: w.Name, Seed: p.seed, N: scaled(w.N, p.layerScale), Clients: 1, OutDir: p.outDir}
			untraced, err := runChild(spec)
			if err != nil {
				return nil, err
			}
			spec.Traced = true
			traced, err := runChild(spec)
			if err != nil {
				return nil, err
			}
			docs[w.Name].LayerN = spec.N
			docs[w.Name].TraceFile = filepath.Join(p.outDir, "trace-"+w.Name+".json")
			aggregatePerLayer(docs[w.Name], untraced, traced)
		}
	}
	return doc, nil
}

// runChild re-executes this binary for one round and waits for it: a fresh
// process gives every round a fresh heap, registry and fleet.
func runChild(spec roundSpec) (*roundResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	arg, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-child", string(arg))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("round %s/%d: %w", spec.Workload, spec.Round, err)
	}
	res := &roundResult{}
	if err := json.Unmarshal(out.Bytes(), res); err != nil {
		return nil, fmt.Errorf("round %s/%d: bad result: %w", spec.Workload, spec.Round, err)
	}
	return res, nil
}

func childMain(arg string) int {
	var spec roundSpec
	if err := json.Unmarshal([]byte(arg), &spec); err != nil {
		fmt.Fprintln(os.Stderr, "bench: child:", err)
		return 2
	}
	res, err := runRound(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s round %d: %v\n", spec.Workload, spec.Round, err)
		return 2
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		return 2
	}
	return 0
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench -compare base.json candidate.json")
		return 2
	}
	base, err := readDocument(args[0])
	if err != nil {
		fatal(err)
	}
	cand, err := readDocument(args[1])
	if err != nil {
		fatal(err)
	}
	rows, err := compare(base, cand)
	if err != nil {
		fatal(err)
	}
	if printComparison(os.Stdout, rows) {
		return 1
	}
	return 0
}

// driverResult is the last line of a driver run.
type driverResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverMain is one run of the acceptance driver on one workload, sized from
// --seconds. --trace 0 runs the five end-to-end rounds and reports the gated
// end-to-end metrics. --trace 1 reports everything BENCHMARK.json lists under
// per_layer: the host-speed end-to-end metrics, from three rounds of the same
// size, and the layer metrics from the two one-client rounds.
func driverMain(name string, seed int64, seconds int, traced bool, outDir string) int {
	w, ok := workloadByName(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
		return 2
	}
	p := plan{seed: seed, rounds: fullRounds, workloads: []workloadSpec{w}, outDir: outDir,
		endToEnd: true, perLayer: traced,
		scale:      float64(seconds) / fullRounds / nominalRoundSeconds,
		layerScale: float64(seconds) / 2 / nominalLayerSeconds}
	if traced {
		p.rounds = tracedRunRounds
	}
	doc, err := p.execute()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	doc.print(os.Stdout)
	wd := doc.Workloads[0]
	out := driverResult{Correct: wd.Failed == 0, Attempted: wd.Attempted, Failed: wd.Failed, Metrics: map[string]driverValue{}}
	for _, spec := range endToEnd {
		if spec.HostSpeed == traced {
			out.Metrics[spec.Name] = driverValue{Value: wd.EndToEnd[spec.Name].Value, Unit: spec.Unit}
		}
	}
	for name, m := range wd.PerLayer {
		out.Metrics[name] = driverValue{Value: m.Value, Unit: m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}
