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

// final appends the aggregate's result to row.
func (a *aggState) final(row types.Row, spec AggSpec) types.Row { return append(row, a.result(spec)) }

// HashAgg groups its input by the GroupBy expressions and computes the
// aggregates. Output rows are [group keys..., agg results...].
// With no GroupBy the output is a single global-aggregate row.
type HashAgg struct {
	Input   Operator
	GroupBy []Expr
	Aggs    []AggSpec
	Cols    []ColInfo

	table aggTable
	arena rowArena // output rows
	out   []types.Row
	pos   int
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
func (h *HashAgg) passesRows() bool { return false }
func (h *HashAgg) reset(result bool) int {
	h.pos = 0
	return h.table.reset() + h.arena.release(!result) + wipe(&h.out)
}

// aggGroup is one group of an aggregation: its key row and the next group
// whose key row has the same hash (an index into groupSet.order plus one).
type aggGroup struct {
	keys types.Row
	next int32
}

// groupSet is the groups of one aggregation in first-seen order, found by key
// row through a hash table whose chains are threaded through the groups
// themselves: a map and one flat slice, both kept between executions.
type groupSet struct {
	heads map[uint64]int32 // key-row hash → first group of the chain, index plus one
	order []aggGroup
}

// start empties the set for a new execution.
func (s *groupSet) start() {
	if s.heads == nil {
		s.heads = make(map[uint64]int32)
	}
	clear(s.heads)
	s.order = s.order[:0]
}

// find returns the group whose key row equals keys, -1 when there is none.
func (s *groupSet) find(keys types.Row, hash uint64) int {
	for c := s.heads[hash]; c != 0; c = s.order[c-1].next {
		if types.RowsEqual(s.order[c-1].keys, keys) {
			return int(c - 1)
		}
	}
	return -1
}

// add appends a group (which find does not see until it is linked) and
// returns its index.
func (s *groupSet) add(keys types.Row) int {
	s.order = append(s.order, aggGroup{keys: keys})
	return len(s.order) - 1
}

// link makes group g findable under its key row's hash.
func (s *groupSet) link(g int, hash uint64) {
	s.order[g].next = s.heads[hash]
	s.heads[hash] = int32(g) + 1
}

func (s *groupSet) reset() int {
	n := len(s.heads) * hashEntryBytes
	clear(s.heads)
	return n + wipe(&s.order)
}

// aggTable is the grouping state shared by HashAgg and the per-worker
// PartialAgg. Groups and their aggregate states live in two flat slices and
// group keys in an arena, so a table that has been run once groups its next
// input without allocating.
type aggTable struct {
	groupSet
	intGroups map[int64]int32 // single INT key → group, index plus one
	states    []aggState      // group g's states are states[g*len(aggs):][:len(aggs)]
	keys      rowArena        // group key rows
	keyBuf    types.Row       // the current row's key
	argCols   []int           // int-key path: column each aggregate reads, see run
	in        Batch           // input scratch
}

func (t *aggTable) reset() int {
	n := len(t.intGroups) * hashEntryBytes
	clear(t.intGroups)
	return n + t.groupSet.reset() + wipe(&t.states) + t.keys.release(true) + wipe(&t.keyBuf) +
		wipe(&t.argCols) + t.in.reset()
}

// newGroup appends a group with the given key row and fresh states and
// returns its index.
func (t *aggTable) newGroup(keys types.Row, aggs int) int {
	for i := 0; i < aggs; i++ {
		t.states = append(t.states, aggState{allInt: true})
	}
	return t.add(keys)
}

// run opens, drains and closes input, grouping rows by the groupBy
// expressions and feeding the aggregate states. Input is pulled in batches;
// the group-key row is evaluated into a reusable buffer and copied only when
// it starts a new group. Groups are left in t.order in first-seen order.
// With no groupBy, one global group exists even for empty input.
func (t *aggTable) run(ctx *Ctx, input Operator, groupBy []Expr, aggs []AggSpec) error {
	if err := input.Open(ctx); err != nil {
		return err
	}
	t.start()
	t.states = t.states[:0]
	t.keys.hint(BatchSize * len(groupBy))
	if len(groupBy) == 0 {
		// Global aggregate: one group exists even with zero input rows.
		// Register it under the empty row's hash so per-row lookups find it.
		t.link(t.newGroup(types.Row{}, len(aggs)), (types.Row{}).Hash())
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
	byInt := keyCol >= 0
	if byInt {
		if t.intGroups == nil {
			t.intGroups = make(map[int64]int32)
		}
		clear(t.intGroups)
		t.argCols = t.argCols[:0]
		for _, s := range aggs {
			switch a := s.Arg.(type) {
			case nil:
				t.argCols = append(t.argCols, -2) // COUNT(*): no argument
			case *ColExpr:
				t.argCols = append(t.argCols, a.I)
			default:
				t.argCols = append(t.argCols, -1) // interpreted argument
			}
		}
	}

	t.keyBuf = t.keyBuf[:0]
	for range groupBy {
		t.keyBuf = append(t.keyBuf, types.Null)
	}
	// Group keys are copied and aggregate inputs read by value, so the
	// producer may recycle delivered rows.
	t.in.Ephemeral = true
	for {
		if err := input.BatchNext(ctx, &t.in); err != nil {
			return err
		}
		if len(t.in.Rows) == 0 {
			break
		}
		rows := t.in.Rows
		if byInt {
			n, err := t.intKeyBatch(ctx, rows, keyCol, aggs)
			if err != nil {
				return err
			}
			if n == len(rows) {
				continue
			}
			for g := range t.order {
				t.link(g, t.order[g].keys.Hash())
			}
			byInt = false
			rows = rows[n:]
		}
		for _, row := range rows {
			for i, e := range groupBy {
				v, err := e.Eval(row, &ctx.Env)
				if err != nil {
					return err
				}
				t.keyBuf[i] = v
			}
			hash := t.keyBuf.Hash()
			g := t.find(t.keyBuf, hash)
			if g < 0 {
				keys := t.keys.alloc(len(t.keyBuf))
				copy(keys, t.keyBuf)
				g = t.newGroup(keys, len(aggs))
				t.link(g, hash)
			}
			states := t.states[g*len(aggs):][:len(aggs)]
			for i, spec := range aggs {
				var v types.Value
				if spec.Arg != nil {
					var err error
					v, err = spec.Arg.Eval(row, &ctx.Env)
					if err != nil {
						return err
					}
				}
				states[i].add(spec, v)
			}
		}
	}
	input.Close()
	return nil
}

// intKeyBatch aggregates rows grouped by the INT values of column keyCol,
// returning how many leading rows it consumed. It stops (and the caller
// migrates to the generic hash table) at the first row whose key is not a
// non-NULL INT.
func (t *aggTable) intKeyBatch(ctx *Ctx, rows []types.Row, keyCol int, aggs []AggSpec) (int, error) {
	for n, row := range rows {
		if keyCol >= len(row) || row[keyCol].K != types.KindInt {
			return n, nil
		}
		k := row[keyCol].Int()
		g := int(t.intGroups[k]) - 1
		if g < 0 {
			keys := t.keys.alloc(1)
			keys[0] = types.NewInt(k)
			g = t.newGroup(keys, len(aggs))
			t.intGroups[k] = int32(g) + 1
		}
		states := t.states[g*len(aggs):][:len(aggs)]
		for i := range aggs {
			var v types.Value
			switch c := t.argCols[i]; {
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
			states[i].add(aggs[i], v)
		}
	}
	return len(rows), nil
}

// render builds one output row per group in arena storage: the group's keys,
// then what cells appends for each of its aggregate states.
func (t *aggTable) render(arena *rowArena, out []types.Row, aggs []AggSpec, width int, cells func(st *aggState, row types.Row, spec AggSpec) types.Row) []types.Row {
	out = out[:0]
	arena.hint(len(t.order) * width)
	for g := range t.order {
		row := append(arena.alloc(width)[:0], t.order[g].keys...)
		for i, spec := range aggs {
			row = cells(&t.states[g*len(aggs)+i], row, spec)
		}
		out = append(out, row)
	}
	return out
}

func (h *HashAgg) Open(ctx *Ctx) error {
	if err := h.table.run(ctx, h.Input, h.GroupBy, h.Aggs); err != nil {
		return err
	}
	h.out = h.table.render(&h.arena, h.out, h.Aggs, len(h.GroupBy)+len(h.Aggs), (*aggState).final)
	h.pos = 0
	return nil
}

// BatchNext slices the materialized output.
func (h *HashAgg) BatchNext(_ *Ctx, b *Batch) error {
	sliceBatch(h.out, &h.pos, b)
	return nil
}

func (h *HashAgg) Close() error { return nil }

// ValidateAggShape sanity-checks an AggSpec list against the operator's
// declared columns; used by plan construction tests.
func (h *HashAgg) ValidateAggShape() error {
	want := len(h.GroupBy) + len(h.Aggs)
	if len(h.Cols) != want {
		return fmt.Errorf("exec: HashAgg declares %d columns, computes %d", len(h.Cols), want)
	}
	return nil
}
