package opt

import (
	"fmt"
	"math"
	"runtime"

	"mtcache/internal/exec"
	"mtcache/internal/types"
)

// Degree-of-parallelism selection. Parallelism is modeled the same way the
// paper models data location: as a physical property with an enforcer. The
// Exchange operator is the enforcer; this pass decides, cost-based, where to
// place it and with what DOP. A pipeline of cost C run at DOP d costs
// roughly C/d + d·ParallelStartupCost + outRows·costExchangeRow, so small
// lookups never parallelize while large scans, probes and aggregations do.

// pipeInfo describes a partitionable pipeline: a Scan or IndexScan leaf
// under Filter/Project/HashJoin-probe/IndexJoin-outer wrappers.
type pipeInfo struct {
	rows    float64 // rows entering the pipeline at the partitioned leaf
	perRow  float64 // cost units of pipeline work per leaf row
	outRows float64 // estimated rows crossing the Exchange
	scan    *exec.Scan
	iscan   *exec.IndexScan
	joins   []*exec.HashJoin // probe-side joins to mark ShareBuild
}

// dopCap is the effective parallelism ceiling: Options.MaxDOP bounded by the
// scheduler's processor count. Below 2 the planner emits no Exchange at all,
// keeping serial plans identical to the pre-parallelism planner.
func (pl *planner) dopCap() int {
	cap := runtime.GOMAXPROCS(0)
	if m := pl.env.Opts.MaxDOP; m > 0 && m < cap {
		cap = m
	}
	return cap
}

// parallelize returns p unchanged, or a copy whose operator tree has the
// most profitable Exchange inserted and whose cost reflects the savings.
func (pl *planner) parallelize(p *plan) *plan {
	cap := pl.dopCap()
	if cap < 2 || p.op == nil {
		return p
	}
	// Work on a private clone: subtrees may be shared with other candidates
	// kept during planning, and markParallel mutates leaves in place.
	root := exec.CloneOperator(p.op)
	newRoot, saved, changed := pl.parallelizeOp(root, cap)
	if !changed {
		return p
	}
	q := *p
	q.op = newRoot
	q.cost = math.Max(p.cost-saved, 1)
	return &q
}

// parallelizeOp rewrites op bottom-up, returning the (possibly replaced)
// operator, the cost saved, and whether anything changed. It parallelizes at
// most one pipeline per branch — the outermost profitable one.
func (pl *planner) parallelizeOp(op exec.Operator, cap int) (exec.Operator, float64, bool) {
	if agg, ok := op.(*exec.HashAgg); ok {
		if out, saved, ok2 := pl.parallelAgg(agg, cap); ok2 {
			return out, saved, true
		}
	}
	if info, ok := pl.matchPipeline(op); ok {
		if ex, saved, ok2 := pl.wrapExchange(op, info, cap); ok2 {
			return ex, saved, true
		}
		return op, 0, false
	}
	var saved float64
	var changed bool
	for i := 0; op.Child(i) != nil; i++ {
		in := op.Child(i)
		out, s, c := pl.parallelizeOp(*in, cap)
		*in = out
		saved += s
		changed = changed || c
	}
	return op, saved, changed
}

// matchPipeline recognizes a partitionable pipeline rooted at op: a heap or
// index scan, possibly under Filter/Project wrappers and hash-join probes.
// Anything else (Remote, Values, aggregates, sorts) breaks the pipeline.
func (pl *planner) matchPipeline(op exec.Operator) (pipeInfo, bool) {
	switch x := op.(type) {
	case *exec.Scan:
		rows := pl.statsRows(x.TableName)
		return pipeInfo{rows: rows, perRow: costScanRow, outRows: rows, scan: x}, rows > 0
	case *exec.IndexScan:
		rows := x.EstRows
		return pipeInfo{rows: rows, perRow: costSeekRow, outRows: rows, iscan: x}, rows > 1
	case *exec.Filter:
		info, ok := pl.matchPipeline(x.Input)
		if !ok {
			return info, false
		}
		info.perRow += costPredEval
		info.outRows = math.Max(info.outRows*defaultSelectivity, 1)
		return info, true
	case *exec.Project:
		info, ok := pl.matchPipeline(x.Input)
		if !ok {
			return info, false
		}
		info.perRow += costProjectRow * float64(len(x.Exprs))
		return info, true
	case *exec.HashJoin:
		if x.LeftOuter {
			// LEFT JOIN probes partition fine (each probe row is matched or
			// padded independently), but keep them serial until the padding
			// path has dedicated parallel tests.
			return pipeInfo{}, false
		}
		info, ok := pl.matchPipeline(x.Left)
		if !ok {
			return info, false
		}
		info.perRow += costHashProbe
		info.joins = append(info.joins, x)
		return info, true
	case *exec.IndexJoin:
		// Streams over its outer input like a hash probe: each worker seeks
		// the shared snapshot for its own partition of outer rows.
		if x.LeftOuter {
			return pipeInfo{}, false // serial, like LEFT JOIN hash probes
		}
		info, ok := pl.matchPipeline(x.Outer)
		if !ok {
			return info, false
		}
		// perRow is per leaf row; only rows surviving the filters below seek.
		info.perRow += (costSeekBase + costSeekRow) * info.outRows / info.rows
		return info, true
	}
	return pipeInfo{}, false
}

// statsRows is the cataloged row count of a storage table, 0 when unknown.
func (pl *planner) statsRows(name string) float64 {
	t := pl.env.Cat.Table(name)
	if t == nil || t.Stats.Load() == nil {
		return 0
	}
	return float64(t.Stats.Load().RowCount)
}

// chooseDOP picks the cheapest power-of-two DOP ≤ cap for a pipeline of the
// given cost, or 1 when serial wins.
func (pl *planner) chooseDOP(pipeCost, exchangeRows float64, cap int) (int, float64) {
	startup := pl.env.Opts.ParallelStartupCost
	best, bestCost := 1, pipeCost
	for d := 2; d <= cap; d *= 2 {
		c := pipeCost/float64(d) + float64(d)*startup + exchangeRows*costExchangeRow
		if c < bestCost {
			best, bestCost = d, c
		}
	}
	return best, pipeCost - bestCost
}

// wrapExchange wraps a matched pipeline in an Exchange when profitable.
func (pl *planner) wrapExchange(op exec.Operator, info pipeInfo, cap int) (exec.Operator, float64, bool) {
	pipeCost := info.rows * info.perRow
	dop, saved := pl.chooseDOP(pipeCost, info.outRows, cap)
	if dop < 2 {
		return nil, 0, false
	}
	markParallel(info)
	return &exec.Exchange{Template: op, DOP: dop}, saved, true
}

// parallelAgg splits a HashAgg into per-worker PartialAggs under an Exchange
// and a merging FinalAgg above it. DISTINCT aggregates are not mergeable and
// disqualify the split.
func (pl *planner) parallelAgg(agg *exec.HashAgg, cap int) (exec.Operator, float64, bool) {
	for _, s := range agg.Aggs {
		if s.Distinct {
			return nil, 0, false
		}
	}
	info, ok := pl.matchPipeline(agg.Input)
	if !ok {
		return nil, 0, false
	}
	// Workers do the aggregation work too; only tiny per-group partial rows
	// cross the Exchange.
	pipeCost := info.rows*info.perRow + info.outRows*costAggRow
	dop, saved := pl.chooseDOP(pipeCost, parallelAggExchangeRows, cap)
	if dop < 2 {
		return nil, 0, false
	}
	nKeys := len(agg.GroupBy)
	cols := append([]exec.ColInfo{}, agg.Cols[:nKeys]...)
	for i, spec := range agg.Aggs {
		cols = append(cols, partialCols(i, spec, agg.Cols[nKeys+i])...)
	}
	markParallel(info)
	partial := &exec.PartialAgg{Input: agg.Input, GroupBy: agg.GroupBy, Aggs: agg.Aggs, Cols: cols}
	ex := &exec.Exchange{Template: partial, DOP: dop}
	final := &exec.FinalAgg{Input: ex, GroupKeys: nKeys, Aggs: agg.Aggs, Cols: agg.Cols}
	return final, saved, true
}

// parallelAggExchangeRows stands in for dop×groups, the (small) number of
// partial rows gathered; group-count estimates are not tracked on the op.
const parallelAggExchangeRows = 256

// defaultSelectivity mirrors the generic predicate selectivity used for
// residual filters when no histogram applies.
const defaultSelectivity = 0.33

// partialCols names the partial-state columns one aggregate ships; AVG
// ships (sum, count).
func partialCols(i int, spec exec.AggSpec, final exec.ColInfo) []exec.ColInfo {
	if spec.Func == exec.AggAvg {
		return []exec.ColInfo{
			{Name: fmt.Sprintf("$p%d_sum", i), Kind: types.KindFloat},
			{Name: fmt.Sprintf("$p%d_cnt", i), Kind: types.KindInt},
		}
	}
	out := final
	out.Name = fmt.Sprintf("$p%d", i)
	return []exec.ColInfo{out}
}

// markParallel marks the pipeline's leaf for partition binding and its probe
// joins for shared builds.
func markParallel(info pipeInfo) {
	if info.scan != nil {
		info.scan.Parallel = true
	}
	if info.iscan != nil {
		info.iscan.Parallel = true
	}
	for _, j := range info.joins {
		j.ShareBuild = true
	}
}
