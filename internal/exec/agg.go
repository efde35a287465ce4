package exec

import (
	"fmt"

	"mtcache/internal/types"
)

// AggFunc enumerates the supported aggregate functions.
type AggFunc uint8

const (
	AggCount AggFunc = iota
	AggCountStar
	AggSum
	AggAvg
	AggMin
	AggMax
)

// ParseAggFunc maps a function name (upper case) to an AggFunc.
// star selects COUNT(*) vs COUNT(expr).
func ParseAggFunc(name string, star bool) (AggFunc, bool) {
	switch name {
	case "COUNT":
		if star {
			return AggCountStar, true
		}
		return AggCount, true
	case "SUM":
		return AggSum, true
	case "AVG":
		return AggAvg, true
	case "MIN":
		return AggMin, true
	case "MAX":
		return AggMax, true
	}
	return 0, false
}

// AggSpec is one aggregate computation.
type AggSpec struct {
	Func     AggFunc
	Arg      Expr // nil for COUNT(*)
	Distinct bool
}

// visitAggs calls fn on each aggregate's argument (COUNT(*) has none).
func visitAggs(fn func(Expr), aggs []AggSpec) {
	for _, a := range aggs {
		visit(fn, a.Arg)
	}
}

// aggState accumulates one aggregate for one group.
type aggState struct {
	count   int64
	sum     float64
	sumInt  int64
	allInt  bool
	min     types.Value
	max     types.Value
	started bool
	seen    map[uint64][]types.Value // for DISTINCT
}

func newAggState() *aggState { return &aggState{allInt: true} }

func (a *aggState) add(spec AggSpec, v types.Value) {
	if spec.Func != AggCountStar && v.IsNull() {
		return // SQL aggregates ignore NULLs
	}
	if spec.Distinct {
		if a.seen == nil {
			a.seen = make(map[uint64][]types.Value)
		}
		h := v.Hash()
		for _, prev := range a.seen[h] {
			if types.Equal(prev, v) {
				return
			}
		}
		a.seen[h] = append(a.seen[h], v)
	}
	a.count++
	switch spec.Func {
	case AggSum, AggAvg:
		if v.K == types.KindInt {
			a.sumInt += v.Int()
		} else {
			a.allInt = false
		}
		a.sum += v.Float()
	case AggMin:
		if !a.started || types.Compare(v, a.min) < 0 {
			a.min = v
		}
	case AggMax:
		if !a.started || types.Compare(v, a.max) > 0 {
			a.max = v
		}
	}
	a.started = true
}

func (a *aggState) result(spec AggSpec) types.Value {
	switch spec.Func {
	case AggCount, AggCountStar:
		return types.NewInt(a.count)
	case AggSum:
		if a.count == 0 {
			return types.Null
		}
		if a.allInt {
			return types.NewInt(a.sumInt)
		}
		return types.NewFloat(a.sum)
	case AggAvg:
		if a.count == 0 {
			return types.Null
		}
		return types.NewFloat(a.sum / float64(a.count))
	case AggMin:
		if !a.started {
			return types.Null
		}
		return a.min
	case AggMax:
		if !a.started {
			return types.Null
		}
		return a.max
	}
	return types.Null
}

// HashAgg groups its input by the GroupBy expressions and computes the
// aggregates. Output rows are [group keys..., agg results...].
// With no GroupBy the output is a single global-aggregate row.
type HashAgg struct {
	Input   Operator
	GroupBy []Expr
	Aggs    []AggSpec
	Cols    []ColInfo

	out []types.Row
	pos int
}

func (h *HashAgg) Columns() []ColInfo    { return h.Cols }
func (h *HashAgg) Child(i int) *Operator { return slot(i, &h.Input) }
func (h *HashAgg) EachExpr(fn func(Expr)) {
	visit(fn, h.GroupBy...)
	visitAggs(fn, h.Aggs)
}
func (h *HashAgg) clone() Operator {
	return &HashAgg{Input: h.Input, GroupBy: h.GroupBy, Aggs: h.Aggs, Cols: h.Cols}
}

// aggGroup is one group's accumulated state, shared by HashAgg and the
// per-worker PartialAgg.
type aggGroup struct {
	keys   types.Row
	states []*aggState
}

// aggregateInput opens, drains and closes input, grouping rows by the
// groupBy expressions and feeding the aggregate states. Input is pulled in
// batches; the group-key row is evaluated into a reusable buffer and cloned
// only when it starts a new group. Groups come back in first-seen order.
// With no groupBy, one global group exists even for empty input.
func aggregateInput(ctx *Ctx, input Operator, groupBy []Expr, aggs []AggSpec) ([]*aggGroup, error) {
	if err := input.Open(ctx); err != nil {
		return nil, err
	}
	groups := make(map[uint64][]*aggGroup)
	var order []*aggGroup
	newGroup := func(keys types.Row) *aggGroup {
		g := &aggGroup{keys: keys, states: make([]*aggState, len(aggs))}
		for i := range g.states {
			g.states[i] = newAggState()
		}
		order = append(order, g)
		return g
	}
	if len(groupBy) == 0 {
		// Global aggregate: one group exists even with zero input rows.
		// Register it under the empty row's hash so per-row lookups find it.
		groups[(types.Row{}).Hash()] = []*aggGroup{newGroup(types.Row{})}
	}

	// Fast path: grouping by one column of INT values probes a direct
	// int-keyed table instead of evaluating the key expression, FNV-hashing
	// it and comparing candidate key rows for every input row; column
	// aggregate arguments are read by index. The first row whose key is not
	// a non-NULL INT migrates the groups built so far into the generic table
	// and aggregation continues interpreted.
	keyCol := -1
	if len(groupBy) == 1 {
		if c, ok := groupBy[0].(*ColExpr); ok {
			keyCol = c.I
		}
	}
	var intGroups map[int64]*aggGroup
	var argCols []int
	if keyCol >= 0 {
		intGroups = make(map[int64]*aggGroup)
		argCols = make([]int, len(aggs))
		for i, s := range aggs {
			switch a := s.Arg.(type) {
			case nil:
				argCols[i] = -2 // COUNT(*): no argument
			case *ColExpr:
				argCols[i] = a.I
			default:
				argCols[i] = -1 // interpreted argument
			}
		}
	}

	keyBuf := make(types.Row, len(groupBy))
	var b Batch
	// Group keys are cloned and aggregate inputs copied by value, so the
	// producer may recycle delivered rows.
	b.Ephemeral = true
	for {
		if err := input.BatchNext(ctx, &b); err != nil {
			return nil, err
		}
		if len(b.Rows) == 0 {
			break
		}
		rows := b.Rows
		if intGroups != nil {
			n, err := aggIntKeyBatch(ctx, rows, keyCol, argCols, aggs, intGroups, newGroup)
			if err != nil {
				return nil, err
			}
			if n == len(rows) {
				continue
			}
			for _, g := range order {
				h := g.keys.Hash()
				groups[h] = append(groups[h], g)
			}
			intGroups = nil
			rows = rows[n:]
		}
		for _, row := range rows {
			for i, e := range groupBy {
				v, err := e.Eval(row, &ctx.Env)
				if err != nil {
					return nil, err
				}
				keyBuf[i] = v
			}
			hash := keyBuf.Hash()
			var g *aggGroup
			for _, cand := range groups[hash] {
				if types.RowsEqual(cand.keys, keyBuf) {
					g = cand
					break
				}
			}
			if g == nil {
				g = newGroup(append(types.Row{}, keyBuf...))
				groups[hash] = append(groups[hash], g)
			}
			for i, spec := range aggs {
				var v types.Value
				if spec.Arg != nil {
					var err error
					v, err = spec.Arg.Eval(row, &ctx.Env)
					if err != nil {
						return nil, err
					}
				}
				g.states[i].add(spec, v)
			}
		}
	}
	input.Close()
	return order, nil
}

// aggIntKeyBatch aggregates rows grouped by the INT values of column keyCol,
// returning how many leading rows it consumed. It stops (and the caller
// migrates to the generic hash table) at the first row whose key is not a
// non-NULL INT.
func aggIntKeyBatch(ctx *Ctx, rows []types.Row, keyCol int, argCols []int, aggs []AggSpec, intGroups map[int64]*aggGroup, newGroup func(types.Row) *aggGroup) (int, error) {
	for n, row := range rows {
		if keyCol >= len(row) || row[keyCol].K != types.KindInt {
			return n, nil
		}
		k := row[keyCol].Int()
		g := intGroups[k]
		if g == nil {
			g = newGroup(types.Row{types.NewInt(k)})
			intGroups[k] = g
		}
		for i := range aggs {
			var v types.Value
			switch c := argCols[i]; {
			case c == -2:
				// COUNT(*): no argument.
			case c >= 0 && c < len(row):
				v = row[c]
			default:
				var err error
				v, err = aggs[i].Arg.Eval(row, &ctx.Env)
				if err != nil {
					return n, err
				}
			}
			g.states[i].add(aggs[i], v)
		}
	}
	return len(rows), nil
}

func (h *HashAgg) Open(ctx *Ctx) error {
	order, err := aggregateInput(ctx, h.Input, h.GroupBy, h.Aggs)
	if err != nil {
		return err
	}
	h.out = h.out[:0]
	for _, g := range order {
		row := make(types.Row, 0, len(g.keys)+len(h.Aggs))
		row = append(row, g.keys...)
		for i, spec := range h.Aggs {
			row = append(row, g.states[i].result(spec))
		}
		h.out = append(h.out, row)
	}
	h.pos = 0
	return nil
}

// BatchNext slices the materialized output.
func (h *HashAgg) BatchNext(_ *Ctx, b *Batch) error {
	sliceBatch(h.out, &h.pos, b)
	return nil
}

func (h *HashAgg) Close() error {
	h.out = nil
	return nil
}

// ValidateAggShape sanity-checks an AggSpec list against the operator's
// declared columns; used by plan construction tests.
func (h *HashAgg) ValidateAggShape() error {
	want := len(h.GroupBy) + len(h.Aggs)
	if len(h.Cols) != want {
		return fmt.Errorf("exec: HashAgg declares %d columns, computes %d", len(h.Cols), want)
	}
	return nil
}
