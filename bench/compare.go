package main

import (
	"errors"
	"fmt"
	"io"
)

// verdict of one (metric, workload) pairing between a baseline and a
// candidate document.
type verdict string

const (
	same       verdict = "same"
	worse      verdict = "worse"
	better     verdict = "better"
	unresolved verdict = "unresolved" // inside the bound, but the rounds vary by more than the bound
)

type comparison struct {
	Workload, Metric string
	Base, Cand       float64
	Ratio            float64 // Cand / Base
	Bound            float64
	Spread           float64 // the wider of the two documents' run-to-run spreads
	Verdict          verdict
}

// judge compares one metric. The change is signed so that positive means
// worse; it is a regression only beyond the bound, and an unchanged result
// only when the rounds themselves agree within the bound.
func judge(spec metricSpec, base, cand *metricDoc) comparison {
	c := comparison{Metric: spec.Name, Base: base.Value, Cand: cand.Value, Bound: spec.Bound,
		Ratio: ratio(cand.Value, base.Value), Spread: spread(base.Rounds)}
	if s := spread(cand.Rounds); s > c.Spread {
		c.Spread = s
	}
	change := ratio(cand.Value-base.Value, base.Value)
	if spec.Better == "higher" {
		change = -change
	}
	switch {
	case change > spec.Bound:
		c.Verdict = worse
	case change < -spec.Bound:
		c.Verdict = better
	case c.Spread > spec.Bound:
		c.Verdict = unresolved
	default:
		c.Verdict = same
	}
	return c
}

// compare judges every end-to-end metric on every workload of the baseline.
func compare(base, cand *document) ([]comparison, error) {
	if !base.Comparable || !cand.Comparable {
		return nil, errors.New("a -quick or single-workload document is not comparable")
	}
	var out []comparison
	for _, bw := range base.Workloads {
		cw := cand.workload(bw.Name)
		if cw == nil {
			return nil, fmt.Errorf("candidate has no workload %s", bw.Name)
		}
		for _, spec := range endToEnd {
			bm, cm := bw.EndToEnd[spec.Name], cw.EndToEnd[spec.Name]
			if bm == nil || cm == nil {
				return nil, fmt.Errorf("%s/%s missing from a document", bw.Name, spec.Name)
			}
			c := judge(spec, bm, cm)
			c.Workload = bw.Name
			out = append(out, c)
		}
	}
	return out, nil
}

// printComparison writes one row per (metric, workload) and reports whether
// any row is worse.
func printComparison(w io.Writer, rows []comparison) (anyWorse bool) {
	fmt.Fprintf(w, "%-13s %-22s %14s %14s %18s %7s %7s  %s\n",
		"workload", "metric", "base", "candidate", "ratio (of base)", "bound", "spread", "verdict")
	for _, c := range rows {
		fmt.Fprintf(w, "%-13s %-22s %14.4f %14.4f %7.4f of %-8.4g %6.1f%% %6.1f%%  %s\n",
			c.Workload, c.Metric, c.Base, c.Cand, c.Ratio, c.Base, c.Bound*100, c.Spread*100, c.Verdict)
		if c.Verdict == worse {
			anyWorse = true
		}
	}
	return anyWorse
}
