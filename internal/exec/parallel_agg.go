package exec

import "mtcache/internal/types"

// Two-phase parallel aggregation: each Exchange worker runs a PartialAgg
// over its partition, emitting per-group partial states instead of final
// results; a FinalAgg above the Exchange merges the partials. The split is
// lossless for COUNT/SUM/MIN/MAX and for AVG (shipped as sum+count), so
// FinalAgg's output is exactly what a serial HashAgg would produce, modulo
// group order. DISTINCT aggregates are not splittable and stay serial.

// PartialWidth is how many partial-state columns this aggregate ships from
// workers to the merge: AVG ships (sum, count), everything else one value.
func (s AggSpec) PartialWidth() int {
	if s.Func == AggAvg {
		return 2
	}
	return 1
}

// partials appends the accumulated state to row as partial-result cells, the
// mergeable form FinalAgg consumes.
func (a *aggState) partials(row types.Row, spec AggSpec) types.Row {
	switch spec.Func {
	case AggCount, AggCountStar:
		return append(row, types.NewInt(a.count))
	case AggAvg:
		if a.count == 0 {
			return append(row, types.Null, types.NewInt(0))
		}
		return append(row, types.NewFloat(a.sum), types.NewInt(a.count))
	default:
		return append(row, a.result(spec))
	}
}

// PartialAgg is the per-worker half of a two-phase aggregation. Output rows
// are [group keys..., partial states...]; every worker emits a row for the
// global group even over an empty partition (FinalAgg merges them away).
type PartialAgg struct {
	Input   Operator
	GroupBy []Expr
	Aggs    []AggSpec
	Cols    []ColInfo

	table aggTable
	arena rowArena // output rows
	out   []types.Row
	pos   int
}

func (p *PartialAgg) Columns() []ColInfo    { return p.Cols }
func (p *PartialAgg) Child(i int) *Operator { return slot(i, &p.Input) }
func (p *PartialAgg) EachExpr(fn func(Expr)) {
	visit(fn, p.GroupBy...)
	visitAggs(fn, p.Aggs)
}
func (p *PartialAgg) clone() Operator {
	return &PartialAgg{Input: p.Input, GroupBy: p.GroupBy, Aggs: p.Aggs, Cols: p.Cols}
}
func (p *PartialAgg) passesRows() bool { return false }
func (p *PartialAgg) reset(result bool) int {
	p.pos = 0
	return p.table.reset() + p.arena.release(!result) + wipe(&p.out)
}

func (p *PartialAgg) Open(ctx *Ctx) error {
	if err := p.table.run(ctx, p.Input, p.GroupBy, p.Aggs); err != nil {
		return err
	}
	width := len(p.GroupBy)
	for _, spec := range p.Aggs {
		width += spec.PartialWidth()
	}
	p.out = p.table.render(&p.arena, p.out, p.Aggs, width, (*aggState).partials)
	p.pos = 0
	return nil
}

// BatchNext slices the materialized output.
func (p *PartialAgg) BatchNext(_ *Ctx, b *Batch) error {
	sliceBatch(p.out, &p.pos, b)
	return nil
}

func (p *PartialAgg) Close() error { return nil }

// mergeState accumulates one aggregate across partial rows.
type mergeState struct {
	count   int64
	sum     float64
	sumInt  int64
	allInt  bool
	started bool
	best    types.Value // MIN/MAX
}

func (m *mergeState) merge(spec AggSpec, cells types.Row) {
	switch spec.Func {
	case AggCount, AggCountStar:
		m.count += cells[0].Int()
	case AggSum:
		v := cells[0]
		if v.IsNull() {
			return // empty partition
		}
		if v.K == types.KindInt {
			m.sumInt += v.Int()
		} else {
			m.allInt = false
		}
		m.sum += v.Float()
		m.started = true
	case AggAvg:
		cnt := cells[1].Int()
		if cnt == 0 {
			return
		}
		m.sum += cells[0].Float()
		m.count += cnt
	case AggMin:
		v := cells[0]
		if v.IsNull() {
			return
		}
		if !m.started || types.Compare(v, m.best) < 0 {
			m.best = v
		}
		m.started = true
	case AggMax:
		v := cells[0]
		if v.IsNull() {
			return
		}
		if !m.started || types.Compare(v, m.best) > 0 {
			m.best = v
		}
		m.started = true
	}
}

func (m *mergeState) result(spec AggSpec) types.Value {
	switch spec.Func {
	case AggCount, AggCountStar:
		return types.NewInt(m.count)
	case AggSum:
		if !m.started {
			return types.Null
		}
		if m.allInt {
			return types.NewInt(m.sumInt)
		}
		return types.NewFloat(m.sum)
	case AggAvg:
		if m.count == 0 {
			return types.Null
		}
		return types.NewFloat(m.sum / float64(m.count))
	default: // MIN/MAX
		if !m.started {
			return types.Null
		}
		return m.best
	}
}

// FinalAgg merges partial aggregate rows into final results. Input rows are
// [group keys... (GroupKeys of them), partial states...]; output matches the
// serial HashAgg layout [group keys..., agg results...].
type FinalAgg struct {
	Input     Operator
	GroupKeys int
	Aggs      []AggSpec
	Cols      []ColInfo

	in     Batch        // input scratch; group keys alias its rows, so never Ephemeral
	groups groupSet     // keyed by the leading GroupKeys columns of the partial rows
	states []mergeState // group g's states are states[g*len(Aggs):][:len(Aggs)]
	arena  rowArena     // output rows
	out    []types.Row
	pos    int
}

func (f *FinalAgg) Columns() []ColInfo     { return f.Cols }
func (f *FinalAgg) Child(i int) *Operator  { return slot(i, &f.Input) }
func (f *FinalAgg) EachExpr(fn func(Expr)) { visitAggs(fn, f.Aggs) }
func (f *FinalAgg) clone() Operator {
	return &FinalAgg{Input: f.Input, GroupKeys: f.GroupKeys, Aggs: f.Aggs, Cols: f.Cols}
}
func (f *FinalAgg) passesRows() bool { return false }
func (f *FinalAgg) reset(result bool) int {
	f.pos = 0
	return f.in.reset() + f.groups.reset() + wipe(&f.states) + f.arena.release(!result) + wipe(&f.out)
}

func (f *FinalAgg) Open(ctx *Ctx) error {
	if err := f.Input.Open(ctx); err != nil {
		return err
	}
	f.groups.start()
	f.states = f.states[:0]
	newGroup := func(keys types.Row, hash uint64) int {
		for range f.Aggs {
			f.states = append(f.states, mergeState{allInt: true})
		}
		g := f.groups.add(keys)
		f.groups.link(g, hash)
		return g
	}
	if f.GroupKeys == 0 {
		newGroup(types.Row{}, (types.Row{}).Hash())
	}
	for {
		if err := f.Input.BatchNext(ctx, &f.in); err != nil {
			return err
		}
		if len(f.in.Rows) == 0 {
			break
		}
		for _, row := range f.in.Rows {
			keys := types.Row(row[:f.GroupKeys])
			hash := keys.Hash()
			g := f.groups.find(keys, hash)
			if g < 0 {
				g = newGroup(keys, hash)
			}
			states := f.states[g*len(f.Aggs):][:len(f.Aggs)]
			off := f.GroupKeys
			for i, spec := range f.Aggs {
				w := spec.PartialWidth()
				states[i].merge(spec, types.Row(row[off:off+w]))
				off += w
			}
		}
	}
	f.Input.Close()
	f.out = f.out[:0]
	width := f.GroupKeys + len(f.Aggs)
	f.arena.hint(len(f.groups.order) * width)
	for g := range f.groups.order {
		row := append(f.arena.alloc(width)[:0], f.groups.order[g].keys...)
		for i, spec := range f.Aggs {
			row = append(row, f.states[g*len(f.Aggs)+i].result(spec))
		}
		f.out = append(f.out, row)
	}
	f.pos = 0
	return nil
}

// BatchNext slices the materialized output.
func (f *FinalAgg) BatchNext(_ *Ctx, b *Batch) error {
	sliceBatch(f.out, &f.pos, b)
	return nil
}

func (f *FinalAgg) Close() error { return f.Input.Close() }
