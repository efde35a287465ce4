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

// partials renders the accumulated state as partial-result cells, the
// mergeable form FinalAgg consumes.
func (a *aggState) partials(spec AggSpec) []types.Value {
	switch spec.Func {
	case AggCount, AggCountStar:
		return []types.Value{types.NewInt(a.count)}
	case AggAvg:
		if a.count == 0 {
			return []types.Value{types.Null, types.NewInt(0)}
		}
		return []types.Value{types.NewFloat(a.sum), types.NewInt(a.count)}
	default:
		return []types.Value{a.result(spec)}
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

	out []types.Row
	pos int
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

func (p *PartialAgg) Open(ctx *Ctx) error {
	order, err := aggregateInput(ctx, p.Input, p.GroupBy, p.Aggs)
	if err != nil {
		return err
	}
	p.out = p.out[:0]
	for _, g := range order {
		row := make(types.Row, 0, len(p.Cols))
		row = append(row, g.keys...)
		for i, spec := range p.Aggs {
			row = append(row, g.states[i].partials(spec)...)
		}
		p.out = append(p.out, row)
	}
	p.pos = 0
	return nil
}

// BatchNext slices the materialized output.
func (p *PartialAgg) BatchNext(_ *Ctx, b *Batch) error {
	sliceBatch(p.out, &p.pos, b)
	return nil
}

func (p *PartialAgg) Close() error {
	p.out = nil
	return nil
}

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

	out []types.Row
	pos int
}

func (f *FinalAgg) Columns() []ColInfo     { return f.Cols }
func (f *FinalAgg) Child(i int) *Operator  { return slot(i, &f.Input) }
func (f *FinalAgg) EachExpr(fn func(Expr)) { visitAggs(fn, f.Aggs) }
func (f *FinalAgg) clone() Operator {
	return &FinalAgg{Input: f.Input, GroupKeys: f.GroupKeys, Aggs: f.Aggs, Cols: f.Cols}
}

// finalGroup is one output group's merge state.
type finalGroup struct {
	keys   types.Row
	states []*mergeState
}

func (f *FinalAgg) Open(ctx *Ctx) error {
	if err := f.Input.Open(ctx); err != nil {
		return err
	}
	groups := make(map[uint64][]*finalGroup)
	var order []*finalGroup
	newGroup := func(keys types.Row) *finalGroup {
		g := &finalGroup{keys: keys, states: make([]*mergeState, len(f.Aggs))}
		for i := range g.states {
			g.states[i] = &mergeState{allInt: true}
		}
		order = append(order, g)
		return g
	}
	if f.GroupKeys == 0 {
		groups[(types.Row{}).Hash()] = []*finalGroup{newGroup(types.Row{})}
	}
	var b Batch
	for {
		if err := f.Input.BatchNext(ctx, &b); err != nil {
			return err
		}
		if len(b.Rows) == 0 {
			break
		}
		for _, row := range b.Rows {
			keys := types.Row(row[:f.GroupKeys])
			hash := keys.Hash()
			var g *finalGroup
			for _, cand := range groups[hash] {
				if types.RowsEqual(cand.keys, keys) {
					g = cand
					break
				}
			}
			if g == nil {
				g = newGroup(keys)
				groups[hash] = append(groups[hash], g)
			}
			off := f.GroupKeys
			for i, spec := range f.Aggs {
				w := spec.PartialWidth()
				g.states[i].merge(spec, types.Row(row[off:off+w]))
				off += w
			}
		}
	}
	f.Input.Close()
	f.out = f.out[:0]
	for _, g := range order {
		row := make(types.Row, 0, len(g.keys)+len(f.Aggs))
		row = append(row, g.keys...)
		for i, spec := range f.Aggs {
			row = append(row, g.states[i].result(spec))
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

func (f *FinalAgg) Close() error {
	f.out = nil
	return f.Input.Close()
}
