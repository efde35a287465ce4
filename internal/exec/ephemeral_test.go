package exec

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"mtcache/internal/sql"
	"mtcache/internal/storage"
	"mtcache/internal/types"
)

// The Batch.Ephemeral contract, checked by a machine in both directions.
//
// A consumer that sets Ephemeral promises to copy out what it keeps before
// its next pull; in return the producer may overwrite the rows it delivered.
// poison is the most hostile operator the contract allows, on both sides of
// it: it always pulls Ephemeral itself, and whatever it delivered to a puller
// that declared Ephemeral it destroys at the next pull. hoard is the most
// demanding consumer: it never declares Ephemeral, keeps every row it was
// ever handed, and at the end checks that none has changed since. Either one
// is spliced between an operator and its input, at one edge of a tree at a
// time and at all of them, over every join shape the other tests of this
// package run; a tree must produce the same rows whatever is spliced where.

// poisoned is what a destroyed value reads as.
var poisoned = types.NewString("\x00poisoned\x00")

// poison pulls its input Ephemeral and copies every row out before its next
// pull, as the flag requires. The copies are what it delivers; the ones it
// delivered to a puller that declared Ephemeral are overwritten with a
// sentinel on the following call, exactly as a recycling producer may.
type poison struct {
	Input Operator

	in        Batch
	delivered []types.Row // copies handed to an Ephemeral puller by the last call
}

func (p *poison) Columns() []ColInfo    { return p.Input.Columns() }
func (p *poison) Open(ctx *Ctx) error   { return p.Input.Open(ctx) }
func (p *poison) Close() error          { return p.Input.Close() }
func (p *poison) Child(i int) *Operator { return slot(i, &p.Input) }
func (p *poison) EachExpr(func(Expr))   {}
func (p *poison) clone() Operator       { return &poison{Input: p.Input} }
func (p *poison) passesRows() bool      { return false } // it delivers copies
func (p *poison) reset(bool) int        { return p.in.reset() + wipe(&p.delivered) }

func (p *poison) BatchNext(ctx *Ctx, b *Batch) error {
	for _, row := range p.delivered {
		for i := range row {
			row[i] = poisoned
		}
	}
	p.delivered = p.delivered[:0]
	p.in.Ephemeral = true
	if err := p.Input.BatchNext(ctx, &p.in); err != nil {
		return err
	}
	b.Rows = b.Rows[:0]
	for _, row := range p.in.Rows {
		c := row.Clone()
		b.Rows = append(b.Rows, c)
		if b.Ephemeral {
			p.delivered = append(p.delivered, c)
		}
	}
	return nil
}

// hoard pulls its input durable whatever its own puller declared, keeps every
// row together with a copy taken when it arrived, and passes the rows on
// untouched. check fails if any kept row differs from its copy: a producer
// recycled storage under a consumer that did not ask. With fickle set every
// other pull is Ephemeral instead (those rows are copied and the copies passed
// on, nothing is kept): the promise is per call, so a producer must not
// rewind over what an earlier durable call delivered. A hoard inside an
// Exchange template never runs itself — its clones do, one per worker — so
// every hoard, cloned or made by hand, signs into All for the final check.
type hoard struct {
	Input  Operator
	Fickle bool
	All    *hoards

	calls        int
	kept, copies []types.Row
}

// hoards is every hoard of one run; a shared build clones its side on a
// worker goroutine, hence the lock.
type hoards struct {
	mu  sync.Mutex
	all []*hoard
}

func (hs *hoards) add(h *hoard) *hoard {
	hs.mu.Lock()
	defer hs.mu.Unlock()
	hs.all = append(hs.all, h)
	return h
}

func (h *hoard) Columns() []ColInfo    { return h.Input.Columns() }
func (h *hoard) Open(ctx *Ctx) error   { return h.Input.Open(ctx) }
func (h *hoard) Close() error          { return h.Input.Close() }
func (h *hoard) Child(i int) *Operator { return slot(i, &h.Input) }
func (h *hoard) EachExpr(func(Expr))   {}
func (h *hoard) clone() Operator {
	return h.All.add(&hoard{Input: h.Input, Fickle: h.Fickle, All: h.All})
}
func (h *hoard) passesRows() bool { return true }

// reset keeps what was hoarded: check runs after the instance is released,
// and again after later executions have reused it.
func (h *hoard) reset(bool) int { h.calls = 0; return 0 }

func (h *hoard) BatchNext(ctx *Ctx, b *Batch) error {
	asked := b.Ephemeral
	defer func() { b.Ephemeral = asked }()
	h.calls++
	b.Ephemeral = h.Fickle && h.calls%2 == 0
	if err := h.Input.BatchNext(ctx, b); err != nil {
		return err
	}
	for i, row := range b.Rows {
		if b.Ephemeral {
			b.Rows[i] = row.Clone()
			continue
		}
		h.kept = append(h.kept, row)
		h.copies = append(h.copies, row.Clone())
	}
	return nil
}

func (h *hoard) check(t *testing.T, label string) {
	t.Helper()
	for i, row := range h.kept {
		for j := range row {
			if row[j] != h.copies[i][j] {
				t.Fatalf("%s: row %d of %d delivered to a durable consumer was %v and is now %v",
					label, i, len(h.kept), h.copies[i], row)
			}
		}
	}
}

// splice rebuilds op with wrap applied above the only-th operator of the tree
// in pre-order (0 = the root), or above every one when only < 0. It returns
// the new root and, through n, counts the operators. An Exchange's template
// is part of the tree: the wrappers spliced into it are cloned per worker
// with the rest, so the lookup-join and hash-probe pipelines also run with a
// wrapper at every edge inside the workers.
func splice(op Operator, wrap func(Operator) Operator, only int, n *int) Operator {
	me := *n
	*n++
	for i := 0; op.Child(i) != nil; i++ {
		in := op.Child(i)
		*in = splice(*in, wrap, only, n)
	}
	if only < 0 || only == me {
		return wrap(op)
	}
	return op
}

// contractTree is one plan to run under the wrappers. build returns a fresh
// tree each time (splice rewrites it in place); want is what it must produce,
// in order when ordered is set.
type contractTree struct {
	name    string
	store   *storage.Store // nil for trees over Values only
	build   func() Operator
	want    []types.Row
	ordered bool
}

func (ct *contractTree) run(t *testing.T, op Operator) []types.Row {
	t.Helper()
	if ct.store != nil {
		return runOp(t, ct.store, op, nil).Rows
	}
	rs, err := Run(op, &Ctx{})
	if err != nil {
		t.Fatal(err)
	}
	return rs.Rows
}

func (ct *contractTree) require(t *testing.T, label string, got []types.Row) {
	t.Helper()
	want := ct.want
	if !ct.ordered {
		got, want = sortedRows(got), sortedRows(want)
	}
	requireRowsInOrder(t, label, got, want)
}

// underWrappers runs the tree bare, then with poison, hoard and the fickle
// hoard spliced in at every single edge and at all edges at once.
func (ct *contractTree) underWrappers(t *testing.T) {
	t.Helper()
	ct.require(t, ct.name+" bare", ct.run(t, ct.build()))
	edges := 0
	splice(ct.build(), func(op Operator) Operator { return op }, -1, &edges)
	for _, mode := range []string{"poison", "hoard", "fickle"} {
		for only := -1; only < edges; only++ {
			label := fmt.Sprintf("%s %s@%d", ct.name, mode, only)
			var all hoards
			wrap := func(op Operator) Operator {
				if mode == "poison" {
					return &poison{Input: op}
				}
				return all.add(&hoard{Input: op, Fickle: mode == "fickle", All: &all})
			}
			n := 0
			got := ct.run(t, splice(ct.build(), wrap, only, &n))
			ct.require(t, label, got)
			for _, h := range all.all {
				h.check(t, label)
			}
		}
	}
}

// valuesTable is a Values operator over multi-column INT rows.
func valuesTable(names []string, rows []types.Row) *Values {
	v := valuesOf("", rows)
	v.Cols = intCols(names...)
	return v
}

// indexJoinTrees are the plans of TestIndexJoinDifferential — lookup join,
// hash join building on either side (the left build under a Project), the
// lookup join partitioned across Exchange workers — plus a hash join whose
// probe side is an Exchange, and each join under a HashAgg, the consumer that
// makes joins recycle in production.
func indexJoinTrees(t *testing.T) []contractTree {
	residual := &BinExpr{Op: sql.OpLT, L: &ColExpr{I: 3}, R: &BinExpr{Op: sql.OpAdd, L: &ColExpr{I: 7}, R: &ConstExpr{V: types.NewInt(10)}}}
	swapped := &BinExpr{Op: sql.OpLT, L: &ColExpr{I: 7}, R: &BinExpr{Op: sql.OpAdd, L: &ColExpr{I: 3}, R: &ConstExpr{V: types.NewInt(10)}}}
	innerPred := &BinExpr{Op: sql.OpLT, L: &ColExpr{I: 3}, R: &ConstExpr{V: types.NewInt(15)}}
	var trees []contractTree
	// {0, 12} is the empty probe side, {150, 9} and {9, 150} cross batch
	// boundaries on either side with fan-out from the 8-value key domain.
	for seed, size := range [][2]int{{0, 12}, {12, 0}, {25, 25}, {150, 9}, {9, 150}} {
		rng := rand.New(rand.NewSource(int64(seed) + 1))
		s, lRows, rRows := newJoinStore(t, rng, size[0], size[1])
		for _, jc := range joinCases {
			for _, outer := range []bool{false, true} {
				jc, outer := jc, outer
				filteredR := func() Operator { return &Filter{Input: scanOf("r", false), Pred: innerPred} }
				lookup := func(parallel bool) Operator {
					return &IndexJoin{
						Outer: scanOf("l", parallel), OuterKeys: colsExprs(jc.lKeys...),
						TableName: "r", IndexName: jc.index,
						InnerCols: joinCols("r"), Proj: []int{0, 1, 2, 3},
						Pred: innerPred, Residual: residual, LeftOuter: outer,
					}
				}
				hashRight := func(left Operator) Operator {
					return &HashJoin{
						Left: left, Right: filteredR(),
						LeftKeys: colsExprs(jc.lKeys...), RightKeys: colsExprs(jc.rKeys...),
						Residual: residual, LeftOuter: outer,
					}
				}
				variants := map[string]func() Operator{
					"lookup":           func() Operator { return lookup(false) },
					"hash-build-right": func() Operator { return hashRight(scanOf("l", false)) },
					"hash-over-exchange": func() Operator {
						return hashRight(&Exchange{Template: scanOf("l", true), DOP: 2})
					},
				}
				if !outer {
					variants["hash-build-left"] = func() Operator {
						return &Project{
							Input: &HashJoin{
								Left: filteredR(), Right: scanOf("l", false),
								LeftKeys: colsExprs(jc.rKeys...), RightKeys: colsExprs(jc.lKeys...),
								Residual: swapped,
							},
							Exprs: colsExprs(4, 5, 6, 7, 0, 1, 2, 3),
							Cols:  append(joinCols("l"), joinCols("r")...),
						}
					}
					variants["lookup-dop2"] = func() Operator { return &Exchange{Template: lookup(true), DOP: 2} }
					variants["hash-shared-build-dop2"] = func() Operator {
						j := hashRight(scanOf("l", true)).(*HashJoin)
						j.ShareBuild = true
						return &Exchange{Template: j, DOP: 2}
					}
				}
				want := naiveJoin(t, lRows, rRows, jc, innerPred, residual, outer)
				// The same join under an aggregate: COUNT(*), SUM(l.v + r.v)
				// and MAX(r.id) by l.k, answered from the naive join's rows.
				aggWant := naiveGroups(want)
				name := fmt.Sprintf("%s/l%d-r%d/leftouter=%v", jc.name, size[0], size[1], outer)
				for vname, build := range variants {
					build := build
					trees = append(trees,
						contractTree{name: name + "/" + vname, store: s, build: build, want: want},
						contractTree{name: name + "/agg-over-" + vname, store: s, want: aggWant,
							build: func() Operator { return groupOver(build()) }})
				}
			}
		}
	}
	return trees
}

// groupOver aggregates a join of l ++ r by l.k.
func groupOver(in Operator) Operator {
	return &HashAgg{
		Input:   in,
		GroupBy: colsExprs(1),
		Aggs: []AggSpec{
			{Func: AggCountStar},
			{Func: AggSum, Arg: &BinExpr{Op: sql.OpAdd, L: &ColExpr{I: 3}, R: &ColExpr{I: 7}}},
			{Func: AggMax, Arg: &ColExpr{I: 4}},
		},
		Cols: intCols("k", "n", "s", "m"),
	}
}

// naiveGroups is groupOver's answer computed from joined rows.
func naiveGroups(joined []types.Row) []types.Row {
	type group struct {
		key      types.Value
		n, sum   int64
		max      types.Value
		anySum   bool
		position int
	}
	var groups []*group
	find := func(k types.Value) *group {
		for _, g := range groups {
			if g.key.IsNull() == k.IsNull() && types.Compare(g.key, k) == 0 {
				return g
			}
		}
		g := &group{key: k, position: len(groups)}
		groups = append(groups, g)
		return g
	}
	for _, row := range joined {
		g := find(row[1])
		g.n++
		if !row[3].IsNull() && !row[7].IsNull() {
			g.sum += row[3].Int() + row[7].Int()
			g.anySum = true
		}
		if !row[4].IsNull() && (g.max.IsNull() || types.Compare(row[4], g.max) > 0) {
			g.max = row[4]
		}
	}
	out := make([]types.Row, len(groups))
	for i, g := range groups {
		sum := types.Null
		if g.anySum {
			sum = types.NewInt(g.sum)
		}
		out[i] = types.Row{g.key, types.NewInt(g.n), sum, g.max}
	}
	return out
}

// nestedLoopTrees are the plans of TestNestedLoopAcrossBatchBoundaries and
// TestNestedLoopFanOutPastBatchSize.
func nestedLoopTrees() []contractTree {
	mod3 := func(col int) Expr {
		return &BinExpr{Op: sql.OpMod, L: &ColExpr{I: col}, R: &ConstExpr{V: types.NewInt(3)}}
	}
	pred := &BinExpr{Op: sql.OpAnd,
		L: &BinExpr{Op: sql.OpEQ, L: mod3(0), R: mod3(1)},
		R: &BinExpr{Op: sql.OpLE, L: &ColExpr{I: 0}, R: &ColExpr{I: 1}},
	}
	var trees []contractTree
	for _, nl := range boundarySizes {
		for _, nr := range []int{0, 1, 5, BatchSize + 1} {
			for _, leftOuter := range []bool{false, true} {
				nl, nr, leftOuter := nl, nr, leftOuter
				var want []types.Row
				for x := 0; x < nl; x++ {
					matched := false
					for y := 0; y < nr; y++ {
						if x%3 == y%3 && x <= y {
							matched = true
							want = append(want, types.Row{types.NewInt(int64(x)), types.NewInt(int64(y))})
						}
					}
					if !matched && leftOuter {
						want = append(want, types.Row{types.NewInt(int64(x)), types.Null})
					}
				}
				trees = append(trees, contractTree{
					name: fmt.Sprintf("nestedloop/l=%d r=%d leftouter=%v", nl, nr, leftOuter),
					want: want, ordered: true,
					build: func() Operator {
						return &NestedLoop{
							Left:  valuesOf("x", intRows(nl, identity)),
							Right: valuesOf("y", intRows(nr, identity)),
							Pred:  pred, LeftOuter: leftOuter,
						}
					},
				})
			}
		}
	}
	const fan = 3*BatchSize + 5
	var cross []types.Row
	for x := 0; x < 2; x++ {
		for y := 0; y < fan; y++ {
			cross = append(cross, types.Row{types.NewInt(int64(x)), types.NewInt(int64(y))})
		}
	}
	trees = append(trees, contractTree{
		name: "nestedloop/fan-out past a batch", want: cross, ordered: true,
		build: func() Operator {
			return &NestedLoop{
				Left:  valuesOf("x", intRows(2, identity)),
				Right: valuesOf("y", intRows(fan, identity)),
				Pred:  &ConstExpr{V: types.NewBool(true)},
			}
		},
	})
	return trees
}

// hashJoinTrees are the hash-join shapes the store-backed differential does
// not reach in a fixed order: a probe row fanning out past a batch (so one
// call spills its arena chunk), LEFT OUTER padding next to recycled rows, a
// residual that rejects candidates after they were carved, and a chain of
// joins under a Project like getBestSellers'.
func hashJoinTrees() []contractTree {
	const fan = 3*BatchSize + 5
	zero := func(col int) []Expr {
		return []Expr{&BinExpr{Op: sql.OpMul, L: &ColExpr{I: col}, R: &ConstExpr{V: types.NewInt(0)}}}
	}
	var trees []contractTree

	// Every probe row matches every build row, in build order.
	var cross []types.Row
	for x := 0; x < 3; x++ {
		for y := 0; y < fan; y++ {
			cross = append(cross, types.Row{types.NewInt(int64(x)), types.NewInt(int64(y))})
		}
	}
	trees = append(trees, contractTree{
		name: "hash/fan-out past a batch", want: cross, ordered: true,
		build: func() Operator {
			return &HashJoin{
				Left:     valuesOf("x", intRows(3, identity)),
				Right:    valuesOf("y", intRows(fan, identity)),
				LeftKeys: zero(0), RightKeys: zero(0),
			}
		},
	})

	// x = y with y only even, the residual keeping y % 3 != 0: odd x and
	// rejected x are padded when LEFT OUTER, and pads interleave with matches.
	for _, n := range boundarySizes {
		for _, leftOuter := range []bool{false, true} {
			n, leftOuter := n, leftOuter
			var want []types.Row
			for x := 0; x < n; x++ {
				switch {
				case x%2 == 0 && x%3 != 0:
					want = append(want, types.Row{types.NewInt(int64(x)), types.NewInt(int64(x))})
				case leftOuter:
					want = append(want, types.Row{types.NewInt(int64(x)), types.Null})
				}
			}
			residual := &BinExpr{Op: sql.OpNE,
				L: &BinExpr{Op: sql.OpMod, L: &ColExpr{I: 1}, R: &ConstExpr{V: types.NewInt(3)}},
				R: &ConstExpr{V: types.NewInt(0)}}
			trees = append(trees, contractTree{
				name: fmt.Sprintf("hash/residual n=%d leftouter=%v", n, leftOuter),
				want: want, ordered: true,
				build: func() Operator {
					return &HashJoin{
						Left:     valuesOf("x", intRows(n, identity)),
						Right:    valuesOf("y", intRows((n+1)/2, func(i int) int64 { return int64(2 * i) })),
						LeftKeys: colsExprs(0), RightKeys: colsExprs(0),
						Residual: residual, LeftOuter: leftOuter,
					}
				},
			})
		}
	}

	// Project ← NestedLoop ← HashJoin ← HashJoin: every level re-materializes
	// its rows, and every level above the first is pulled Ephemeral.
	const n = 2*BatchSize + 7
	var chain []types.Row
	for x := 0; x < n; x++ {
		for z := 0; z < 3; z++ {
			if z <= x%4 {
				chain = append(chain, types.Row{types.NewInt(int64(3*x + z)), types.NewInt(int64(x))})
			}
		}
	}
	trees = append(trees, contractTree{
		name: "chain/project-nestedloop-hash-hash", want: chain, ordered: true,
		build: func() Operator {
			ab := &HashJoin{
				Left:     valuesOf("a", intRows(n, identity)),
				Right:    valuesOf("b", intRows(n, identity)),
				LeftKeys: colsExprs(0), RightKeys: colsExprs(0),
			}
			abc := &HashJoin{
				Left: ab, Right: valuesTable([]string{"c", "c4"}, func() []types.Row {
					rows := make([]types.Row, n)
					for i := range rows {
						rows[i] = types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 4))}
					}
					return rows
				}()),
				LeftKeys: colsExprs(1), RightKeys: colsExprs(0),
			}
			// a, b, c, c4, z with z <= c4
			nl := &NestedLoop{
				Left: abc, Right: valuesOf("z", intRows(3, identity)),
				Pred: &BinExpr{Op: sql.OpLE, L: &ColExpr{I: 4}, R: &ColExpr{I: 3}},
			}
			return &Project{
				Input: nl,
				Exprs: []Expr{
					&BinExpr{Op: sql.OpAdd, L: &BinExpr{Op: sql.OpMul, L: &ColExpr{I: 0}, R: &ConstExpr{V: types.NewInt(3)}}, R: &ColExpr{I: 4}},
					&ColExpr{I: 2},
				},
				Cols: intCols("k", "c"),
			}
		},
	})
	return trees
}

// TestEphemeralContract runs every join shape under both wrappers at every
// level. Exchange workers run clones of their template, each with an arena of
// its own; CI runs this at -race -cpu=1,4, where a shared one would show.
func TestEphemeralContract(t *testing.T) {
	var trees []contractTree
	trees = append(trees, indexJoinTrees(t)...)
	trees = append(trees, nestedLoopTrees()...)
	trees = append(trees, hashJoinTrees()...)
	rows := 0
	for i := range trees {
		trees[i].underWrappers(t)
		rows += len(trees[i].want)
	}
	if len(trees) < 200 || rows < 5000 {
		t.Fatalf("%d trees producing %d rows: the contract test checks too little", len(trees), rows)
	}
}

// TestPoisonAndHoardHaveTeeth: the wrappers catch the two mistakes they exist
// for. A consumer that keeps Ephemeral rows past its next pull sees them
// poisoned; a producer that recycles under a durable pull is caught by hoard.
func TestPoisonAndHoardHaveTeeth(t *testing.T) {
	src := func() Operator { return valuesOf("x", intRows(2*BatchSize, identity)) }

	// keeper declares Ephemeral and keeps the rows anyway.
	p := &poison{Input: src()}
	if err := p.Open(&Ctx{}); err != nil {
		t.Fatal(err)
	}
	b := Batch{Ephemeral: true}
	if err := p.BatchNext(&Ctx{}, &b); err != nil {
		t.Fatal(err)
	}
	first := b.Rows[0]
	if first[0].Int() != 0 {
		t.Fatalf("first row %v", first)
	}
	var next Batch
	next.Ephemeral = true
	if err := p.BatchNext(&Ctx{}, &next); err != nil {
		t.Fatal(err)
	}
	if first[0] != poisoned {
		t.Errorf("a row kept past the next Ephemeral pull still reads %v", first)
	}

	// A Project forced to recycle under a durable consumer.
	proj := &Project{Input: src(), Exprs: colsExprs(0), Cols: intCols("x")}
	h := &hoard{Input: recycleAlways{proj}}
	if _, err := Run(h, &Ctx{}); err != nil {
		t.Fatal(err)
	}
	caught := false
	for i, row := range h.kept {
		if row[0] != h.copies[i][0] {
			caught = true
		}
	}
	if !caught {
		t.Error("hoard did not notice a producer recycling under a durable pull")
	}
}

// recycleAlways lies to its input about what its puller asked for.
type recycleAlways struct{ Operator }

func (r recycleAlways) BatchNext(ctx *Ctx, b *Batch) error {
	b.Ephemeral = true
	defer func() { b.Ephemeral = false }()
	return r.Operator.BatchNext(ctx, b)
}

// TestRowArenaRecycle pins the arena's rewind rule call by call.
func TestRowArenaRecycle(t *testing.T) {
	var a rowArena
	carve := func(n int, tag int64) []types.Row {
		rows := make([]types.Row, n)
		for i := range rows {
			rows[i] = a.alloc(2)
			rows[i][0], rows[i][1] = types.NewInt(tag), types.NewInt(tag)
		}
		return rows
	}
	same := func(x, y []types.Row) bool {
		return &x[0][0] == &y[0][0] && &x[len(x)-1][1] == &y[len(y)-1][1]
	}
	intact := func(what string, rows []types.Row, tag int64) {
		t.Helper()
		for _, row := range rows {
			if row[0].Int() != tag || row[1].Int() != tag {
				t.Fatalf("%s: a row delivered by a durable call now reads %v", what, row)
			}
		}
	}

	a.hint(8)
	a.recycle(false)
	durable := carve(4, 1)
	a.recycle(true)
	e1 := carve(4, 2)
	a.recycle(true)
	e2 := carve(4, 3)
	if !same(e1, e2) {
		t.Error("two Ephemeral calls in a row should share storage")
	}
	intact("first call", durable, 1)

	// A call that spills past its chunk: the next call gets one chunk as
	// large as the whole call was, and the one after that reuses it.
	a.recycle(true)
	carve(40, 4) // ten chunks of 8
	a.recycle(true)
	big := carve(40, 5)
	a.recycle(true)
	again := carve(40, 6)
	if !same(big, again) {
		t.Error("after a spill the arena should settle on one chunk")
	}
	if allocs := testing.AllocsPerRun(10, func() {
		a.recycle(true)
		for i := 0; i < 40; i++ {
			a.alloc(2)
		}
	}); allocs != 0 {
		t.Errorf("steady-state Ephemeral calls allocate %v times", allocs)
	}

	// The promise is per call: what a durable call in between delivered is
	// never rewound over, in the chunk's free tail or anywhere else.
	a.recycle(true)
	carve(10, 7) // leaves a free tail in the 80-value chunk
	a.recycle(false)
	kept := carve(3, 8)
	for i := int64(0); i < 3; i++ {
		a.recycle(true)
		carve(40, 9+i)
	}
	intact("durable call between Ephemeral ones", kept, 8)
	intact("first call, at the end", durable, 1)
}
