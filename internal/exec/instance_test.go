package exec

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"mtcache/internal/sql"
	"mtcache/internal/trace"
	"mtcache/internal/types"
)

// Plan instances across executions. An instance that has run is reset and
// run again with its buffers kept, so the one thing that must never happen is
// a row of an earlier result living in memory a later execution writes. The
// machine below is the across-executions half of the poison and hoard
// wrappers of ephemeral_test.go: it runs one instance over and over with
// different parameters, hoards every result together with a copy, after each
// release overwrites every buffer the instance kept, and requires every
// hoarded result to still equal its copy and every execution to return what
// a fresh clone returns.

// eachOperator calls fn on every operator of the tree.
func eachOperator(op Operator, fn func(Operator)) {
	fn(op)
	for i := 0; op.Child(i) != nil; i++ {
		eachOperator(*op.Child(i), fn)
	}
}

// eachKeptField calls fn on every unexported field of the operator.
func eachKeptField(op Operator, fn func(name string, v reflect.Value)) {
	v := reflect.ValueOf(op).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		if f.IsExported() || f.Type == reflect.TypeOf(leaf{}) {
			continue
		}
		fv := v.Field(i)
		fn(v.Type().Name()+"."+f.Name, reflect.NewAt(f.Type, unsafe.Pointer(fv.UnsafeAddr())).Elem())
	}
}

// spoil overwrites everything a released instance kept: every slice over its
// whole capacity, through the structs buffers are made of. Values become the
// poisoned sentinel, rows a one-value poisoned row, integers a number no
// ordinal or cursor can be. Lengths stay zero, as reset left them: the next
// execution must write whatever it reads.
func spoil(v reflect.Value) {
	switch v.Kind() {
	case reflect.Slice:
		full := v.Slice(0, v.Cap())
		for i := 0; i < full.Len(); i++ {
			spoilElem(full.Index(i))
		}
	case reflect.Struct:
		if v.Type() == reflect.TypeOf(types.Value{}) {
			return // a scalar left in a struct is run state, and reset zeroed it
		}
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			spoil(reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem())
		}
	}
}

func spoilElem(e reflect.Value) {
	switch e.Kind() {
	case reflect.Int, reflect.Int32, reflect.Int64:
		e.SetInt(1<<30 + 12345)
	case reflect.Slice: // a row in a window, a sort buffer, a match list
		if e.Type().Elem() == reflect.TypeOf(types.Value{}) {
			e.Set(reflect.ValueOf(types.Row{poisoned}).Convert(e.Type()))
		}
	case reflect.Struct:
		if e.Type() == reflect.TypeOf(types.Value{}) {
			e.Set(reflect.ValueOf(poisoned))
			return
		}
		for i := 0; i < e.NumField(); i++ {
			f := e.Field(i)
			spoilElem(reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem())
		}
	}
}

// spoilTree spoils every buffer of the tree; the state shared with the
// template is the plan's, not the instance's, and is left alone.
func spoilTree(root Operator) {
	eachOperator(root, func(op Operator) {
		eachKeptField(op, func(name string, v reflect.Value) {
			if !sharedState[name] {
				spoil(v)
			}
		})
	})
}

// reuseTree is one parameterized plan: build returns the template.
type reuseTree struct {
	name  string
	build func() Operator
}

// paramLeaf is l filtered by v < @p: the knob that makes every execution a
// different size.
func paramLeaf() Operator {
	return &Filter{
		Input: scanOf("l"),
		Pred:  &BinExpr{Op: sql.OpLT, L: &ColExpr{I: 3}, R: param("p")},
	}
}

// reuseTrees crosses the operators that build rows in an arena with every
// operator that can stand between them and the root passing rows through,
// and adds the shapes where the arena's rows are consumed inside the tree —
// durably (under a Sort below a Project) and Ephemeral (under an aggregate) —
// and roots that emit storage rows and remote rows.
func reuseTrees(remote *sizedRemote) []reuseTree {
	eq := func(l, r int) Expr { return &BinExpr{Op: sql.OpEQ, L: &ColExpr{I: l}, R: &ColExpr{I: r}} }
	producers := map[string]func(leaf Operator) Operator{
		"indexjoin": func(leaf Operator) Operator {
			return &IndexJoin{
				Outer: leaf, OuterKeys: colsExprs(1), TableName: "r", IndexName: "ix_k",
				InnerCols: joinCols("r"), Proj: []int{0, 1, 2, 3},
			}
		},
		"hashjoin": func(leaf Operator) Operator {
			return &HashJoin{Left: leaf, Right: scanOf("r"), LeftKeys: colsExprs(1), RightKeys: colsExprs(1)}
		},
		"hashleftjoin": func(leaf Operator) Operator {
			return &HashJoin{Left: leaf, Right: scanOf("r"), LeftKeys: colsExprs(2), RightKeys: colsExprs(0), LeftOuter: true}
		},
		"nestedloop": func(leaf Operator) Operator {
			return &NestedLoop{
				Left:  leaf,
				Right: &Filter{Input: scanOf("r"), Pred: &BinExpr{Op: sql.OpLT, L: &ColExpr{I: 0}, R: &ConstExpr{V: types.NewInt(6)}}},
				Pred:  eq(1, 5), LeftOuter: true,
			}
		},
		"project": func(leaf Operator) Operator {
			return &Project{
				Input: leaf,
				Exprs: []Expr{&ColExpr{I: 0}, &BinExpr{Op: sql.OpAdd, L: &ColExpr{I: 3}, R: &ConstExpr{V: types.NewInt(100)}}, &ColExpr{I: 1}},
				Cols:  intCols("id", "v100", "k"),
			}
		},
		"hashagg": func(leaf Operator) Operator {
			return &HashAgg{
				Input: leaf, GroupBy: colsExprs(1, 2),
				Aggs: []AggSpec{{Func: AggCountStar}, {Func: AggMax, Arg: &ColExpr{I: 3}}},
				Cols: intCols("k", "k2", "n", "m"),
			}
		},
	}
	byFirst := []SortKey{{E: &ColExpr{I: 0}, Desc: true}, {E: &BinExpr{Op: sql.OpAdd, L: &ColExpr{I: 1}, R: &ColExpr{I: 2}}}}
	roots := map[string]func(p func(leaf Operator) Operator) Operator{
		"bare":   func(p func(Operator) Operator) Operator { return p(paramLeaf()) },
		"filter": func(p func(Operator) Operator) Operator { return &Filter{Input: p(paramLeaf()), Pred: eq(0, 0)} },
		"sort":   func(p func(Operator) Operator) Operator { return &Sort{Input: p(paramLeaf()), Keys: byFirst} },
		"topn": func(p func(Operator) Operator) Operator {
			return &TopN{Input: p(paramLeaf()), Keys: byFirst, N: param("n")}
		},
		"limit": func(p func(Operator) Operator) Operator {
			return &Limit{Input: p(paramLeaf()), N: param("n")}
		},
		"distinct": func(p func(Operator) Operator) Operator { return &Distinct{Input: p(paramLeaf())} },
		"unionall": func(p func(Operator) Operator) Operator {
			return &UnionAll{Inputs: []Operator{
				&StartupFilter{Input: p(paramLeaf()), Guard: &BinExpr{Op: sql.OpLT, L: param("p"), R: &ConstExpr{V: types.NewInt(12)}}},
				p(paramLeaf()),
			}}
		},
		// The producer's rows stay inside the tree: kept by the Sort for the
		// whole execution, then copied by the Project above it.
		"project-over-sort": func(p func(Operator) Operator) Operator {
			return &Project{
				Input: &Sort{Input: p(paramLeaf()), Keys: byFirst},
				Exprs: colsExprs(2, 1, 0), Cols: intCols("c", "b", "a"),
			}
		},
		// … or read Ephemeral, one recycled chunk for the whole run.
		"agg-over": func(p func(Operator) Operator) Operator {
			return &HashAgg{
				Input: p(paramLeaf()), GroupBy: colsExprs(2),
				Aggs: []AggSpec{{Func: AggCountStar}, {Func: AggSum, Arg: &ColExpr{I: 0}}, {Func: AggMin, Arg: &ColExpr{I: 1}}},
				Cols: intCols("g", "n", "s", "m"),
			}
		},
	}
	var trees []reuseTree
	for pn, p := range producers {
		for rn, r := range roots {
			p, r := p, r
			trees = append(trees, reuseTree{name: rn + "/" + pn, build: func() Operator { return r(p) }})
		}
	}
	// Roots whose rows are storage's and the remote result's: nothing of the
	// instance's is in the result at all.
	trees = append(trees,
		reuseTree{name: "scan", build: func() Operator { return paramLeaf() }},
		reuseTree{name: "sort/scan", build: func() Operator { return &Sort{Input: paramLeaf(), Keys: byFirst} }},
		reuseTree{name: "indexscan", build: func() Operator {
			return &IndexScan{TableName: "l", IndexName: "ix_k", Cols: joinCols("l"), Hi: []Expr{param("n")}}
		}},
		reuseTree{name: "remote", build: func() Operator {
			return &Remote{SQLText: "SELECT …", Cols: intCols("a", "b"), Params: []*ParamExpr{param("p")}}
		}},
		reuseTree{name: "topn/remote", build: func() Operator {
			return &TopN{Input: &Remote{SQLText: "SELECT …", Cols: intCols("a", "b"), Params: []*ParamExpr{param("p")}}, Keys: []SortKey{{E: &ColExpr{I: 1}}}, N: param("n")}
		}},
	)
	return trees
}

// sizedRemote answers every query with p fresh rows, as a wire client does.
type sizedRemote struct{}

func (sizedRemote) Query(_ string, params Params) (*ResultSet, error) {
	rows := make([]types.Row, params["p"].Int())
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i)), types.NewInt(int64(i * 7 % 5))}
	}
	return &ResultSet{Cols: intCols("a", "b"), Rows: rows}, nil
}
func (r sizedRemote) QueryTraced(sqlText string, params Params, _ string) (*ResultSet, *trace.WireSpan, error) {
	rs, err := r.Query(sqlText, params)
	return rs, nil, err
}

func cloneRows(rows []types.Row) []types.Row {
	out := make([]types.Row, len(rows))
	for i, r := range rows {
		out[i] = r.Clone()
	}
	return out
}

func TestInstanceReuseNeverTouchesAResult(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	s, _, _ := newJoinStore(t, rng, 300, 40)
	tx := s.Begin(false)
	defer tx.Abort()
	remote := &sizedRemote{}
	run := func(op Operator, params Params) []types.Row {
		t.Helper()
		rs, err := drain(op, &Ctx{Env: envOf(params), Txn: tx, Remote: remote, Counters: &Counters{}})
		if err != nil {
			t.Fatal(err)
		}
		return rs.Rows
	}
	// v is uniform in [0, 20): sizes go up, down to nothing, and back.
	ps := []int64{3, 20, 0, 11, 20, 1, 7}
	trees := reuseTrees(remote)
	results := 0
	for _, tree := range trees {
		tmpl := tree.build()
		Prepare(tmpl)
		inst := CloneOperator(tmpl)
		var hoarded, copies [][]types.Row
		for round, p := range ps {
			params := Params{"p": types.NewInt(p), "n": types.NewInt(p / 2)}
			got := run(inst, params)
			want := run(CloneOperator(tmpl), params)
			label := fmt.Sprintf("%s, execution %d (p=%d)", tree.name, round, p)
			requireRowsInOrder(t, label, got, want)
			hoarded, copies = append(hoarded, got), append(copies, cloneRows(got))
			results += len(got)

			resetTree(inst, true)
			spoilTree(inst)
			for i := range hoarded {
				for j, row := range hoarded[i] {
					for c := range row {
						if !types.Identical(row[c], copies[i][j][c]) {
							t.Fatalf("%s: row %d of the result of execution %d was %v and reads %v after execution %d was released",
								tree.name, j, i, copies[i][j], row, round)
						}
					}
				}
			}
		}
	}
	if len(trees) < 55 || results < 20000 {
		t.Fatalf("%d trees returning %d rows: the machine checks too little", len(trees), results)
	}
}

// TestReleasedInstanceKeepsItsBuffers: the point of keeping an instance. A
// join under an aggregate under a sort, run twice, allocates the second time
// only what the result is made of.
func TestReleasedInstanceKeepsItsBuffers(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	rng := rand.New(rand.NewSource(5))
	s, _, _ := newJoinStore(t, rng, 400, 50)
	tx := s.Begin(false)
	defer tx.Abort()
	tmpl := &Project{
		Input: &Sort{
			Input: &HashAgg{
				Input: &IndexJoin{
					Outer: paramLeaf(), OuterKeys: colsExprs(1), TableName: "r", IndexName: "ix_k",
					InnerCols: joinCols("r"), Proj: []int{0, 3},
				},
				GroupBy: colsExprs(0),
				Aggs:    []AggSpec{{Func: AggCountStar}, {Func: AggSum, Arg: &ColExpr{I: 5}}},
				Cols:    intCols("id", "n", "s"),
			},
			Keys: []SortKey{{E: &ColExpr{I: 2}, Desc: true}},
		},
		Exprs: colsExprs(0, 2), Cols: intCols("id", "s"),
	}
	Prepare(tmpl)
	var pool Instances
	params := Params{"p": types.NewInt(15)}
	exec := func() int {
		inst := pool.Take()
		if inst == nil {
			inst = &Instance{Root: CloneOperator(tmpl)}
		}
		bindTest(&inst.Ctx.Env, params)
		inst.Ctx.Txn, inst.Ctx.EstRows = tx, 300
		var rs ResultSet
		if err := Run(inst.Root, &inst.Ctx, &rs); err != nil {
			t.Fatal(err)
		}
		pool.Release(inst)
		return len(rs.Rows)
	}
	fresh := testing.AllocsPerRun(20, func() {
		if _, err := drain(CloneOperator(tmpl), &Ctx{Env: envOf(params), Txn: tx, EstRows: 300}); err != nil {
			t.Fatal(err)
		}
	})
	rows := exec()
	if rows < 200 {
		t.Fatalf("%d rows", rows)
	}
	// What is left is the result: its row slice and one arena chunk per batch
	// of rows, 5 objects. The instance keeps its Ctx and Run's window, shares
	// the compiled filter predicate and the join's schema with the template,
	// and binds views that are values (14 objects when it did none of that).
	const ceiling = 7
	kept := testing.AllocsPerRun(50, func() { exec() })
	t.Logf("%d rows: %v allocations on a kept instance, %v on a fresh clone", rows, kept, fresh)
	if kept > ceiling || kept*4 > fresh {
		t.Errorf("a kept instance allocates %v times per execution, want at most %d and a quarter of a fresh clone's %v", kept, ceiling, fresh)
	}
	if trees, bytes := pool.Kept(); trees != 1 || bytes == 0 || bytes > maxKept {
		t.Errorf("the pool holds %d trees of %d bytes", trees, bytes)
	}
}

// TestInstancesBounds: the free list is bounded in trees and each tree in
// bytes; what does not fit is dropped.
func TestInstancesBounds(t *testing.T) {
	var pool Instances
	for i := 0; i < maxParked+3; i++ {
		pool.Release(&Instance{Root: &Values{}})
	}
	if trees, _ := pool.Kept(); trees != maxParked {
		t.Errorf("%d trees parked, the bound is %d", trees, maxParked)
	}
	for i := 0; i < maxParked; i++ {
		if pool.Take() == nil {
			t.Fatalf("Take %d found nothing", i)
		}
	}
	if pool.Take() != nil {
		t.Error("Take on an empty list returns a tree")
	}

	// A sort that kept more rows than an instance may hold on to.
	big := &Sort{Input: valuesOf("x", intRows(maxKept/20, identity)), Keys: []SortKey{{E: &ColExpr{I: 0}}}}
	if _, err := drain(big, &Ctx{}); err != nil {
		t.Fatal(err)
	}
	pool.Release(&Instance{Root: big})
	if trees, _ := pool.Kept(); trees != 0 {
		t.Errorf("an instance holding more than %d bytes was parked", maxKept)
	}
}

// TestReleasedInstancePinsNothing walks an instance that has really run —
// scans, a lookup join, an aggregate, a sort — with its parameters in slots,
// and requires what Release promises: every pointer and interface of the run
// state and of the Ctx nil, every kept slice zero over its whole capacity,
// every map empty. No transaction, table or index view, row version or
// string is reachable from it. What the instance shares with the template
// is the template's own.
func TestReleasedInstancePinsNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s, _, _ := newJoinStore(t, rng, 300, 40)
	tx := s.Begin(false)
	defer tx.Abort()
	for _, tree := range reuseTrees(&sizedRemote{}) {
		tmpl := tree.build()
		Prepare(tmpl)
		inst := &Instance{Root: CloneOperator(tmpl)}
		params := Params{"p": types.NewInt(14), "n": types.NewInt(9)}
		inst.Ctx = Ctx{Env: envOf(params), Txn: tx, Remote: sizedRemote{}, Counters: &Counters{}}
		var rs ResultSet
		if err := Run(inst.Root, &inst.Ctx, &rs); err != nil {
			t.Fatal(err)
		}
		inst.reset()
		requirePinsNothing(t, tree.name, tmpl, inst)
	}
}

// requirePinsNothing applies notEmpty (operator_test.go) to the Ctx of a
// released instance and to every run-state field of every operator of its
// tree, and requires every field on sharedState to be identical to the one
// of the template's operator in the same place.
func requirePinsNothing(t testing.TB, label string, tmpl Operator, inst *Instance) {
	t.Helper()
	if what := notEmpty(reflect.ValueOf(&inst.Ctx).Elem()); what != "" {
		t.Errorf("%s: the Ctx of a released instance holds %s", label, what)
	}
	var shared []reflect.Value
	eachOperator(tmpl, func(op Operator) {
		eachKeptField(op, func(name string, v reflect.Value) {
			if sharedState[name] {
				shared = append(shared, v)
			}
		})
	})
	eachOperator(inst.Root, func(op Operator) {
		eachKeptField(op, func(name string, v reflect.Value) {
			if sharedState[name] {
				if len(shared) == 0 || !identical(v, shared[0]) {
					t.Errorf("%s: %s of a released instance is not the template's", label, name)
				}
				shared = shared[1:]
				return
			}
			if what := notEmpty(v); what != "" {
				t.Errorf("%s: %s of a released instance holds %s", label, name, what)
			}
		})
	})
}

// TestTopRowsBuildNoHeadersPastN: a warm instance of TOP 50 … ORDER BY over
// 100 rows, run the way a plan answering a statement is — into the row slice
// its Result kept, sized to the estimate (50), its values carved from the
// Result's slab — makes nothing: Limit reads the input's 64-row batch into a
// window of its own and copies the 50 headers it owes into the result's. It
// made a row-header array every run while the projection under it appended
// the whole batch into the result's window, which Limit then cut to 50.
func TestTopRowsBuildNoHeadersPastN(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	s := newTestStore(t, 100)
	tx := s.Begin(false)
	defer tx.Abort()
	tmpl := &Limit{
		Input: &Project{
			Input: &Sort{Input: &Scan{TableName: "nums", Cols: numsCols()}, Keys: []SortKey{{E: &ColExpr{I: 0}, Desc: true}}},
			Exprs: colsExprs(1, 0), Cols: numsCols(),
		},
		N: &ConstExpr{V: types.NewInt(50)},
	}
	Prepare(tmpl)
	var pool Instances
	var slab Slab
	kept := make([]types.Row, 0, 50) // the row slice a Result keeps
	exec := func() {
		inst := pool.Take()
		if inst == nil {
			inst = &Instance{Root: CloneOperator(tmpl)}
		}
		inst.Ctx.Txn, inst.Ctx.EstRows, inst.Ctx.Slab = tx, 50, &slab
		rs := ResultSet{Rows: kept}
		if err := Run(inst.Root, &inst.Ctx, &rs); err != nil {
			t.Fatal(err)
		}
		if len(rs.Rows) != 50 || rs.Rows[0][1].Int() != 99 || rs.Rows[49][1].Int() != 50 {
			t.Fatalf("%d rows, from %v to %v", len(rs.Rows), rs.Rows[0], rs.Rows[len(rs.Rows)-1])
		}
		pool.Release(inst)
		clear(rs.Rows)
		slab.Reset()
	}
	exec()
	if allocs := testing.AllocsPerRun(50, exec); allocs != 0 {
		t.Errorf("a warm TOP 50 over 100 sorted rows allocates %v times per execution, want 0", allocs)
	}
}
