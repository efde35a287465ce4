package exec

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"
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

// eachOperator calls fn on every operator of the tree, the worker trees an
// Exchange keeps included.
func eachOperator(op Operator, fn func(Operator)) {
	fn(op)
	if ex, ok := op.(*Exchange); ok {
		for _, w := range ex.workers {
			eachOperator(w, fn)
		}
	}
	for i := 0; op.Child(i) != nil; i++ {
		eachOperator(*op.Child(i), fn)
	}
}

// eachKeptField calls fn on every unexported field of the operator except
// its inputs and worker trees, which eachOperator visits.
func eachKeptField(op Operator, fn func(name string, v reflect.Value)) {
	v := reflect.ValueOf(op).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		if f.IsExported() || f.Type == reflect.TypeOf([]Operator(nil)) || f.Type == reflect.TypeOf(leaf{}) {
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

func spoilTree(root Operator) {
	eachOperator(root, func(op Operator) {
		eachKeptField(op, func(_ string, v reflect.Value) { spoil(v) })
	})
}

// reuseTree is one parameterized plan: build returns the template.
type reuseTree struct {
	name      string
	build     func() Operator
	unordered bool // an Exchange interleaves its workers' rows
}

// paramLeaf is l filtered by v < @p: the knob that makes every execution a
// different size.
func paramLeaf(parallel bool) Operator {
	return &Filter{
		Input: scanOf("l", parallel),
		Pred:  &BinExpr{Op: sql.OpLT, L: &ColExpr{I: 3}, R: &ParamExpr{Name: "p"}},
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
			return &HashJoin{Left: leaf, Right: scanOf("r", false), LeftKeys: colsExprs(1), RightKeys: colsExprs(1)}
		},
		"hashleftjoin": func(leaf Operator) Operator {
			return &HashJoin{Left: leaf, Right: scanOf("r", false), LeftKeys: colsExprs(2), RightKeys: colsExprs(0), LeftOuter: true}
		},
		"nestedloop": func(leaf Operator) Operator {
			return &NestedLoop{
				Left:  leaf,
				Right: &Filter{Input: scanOf("r", false), Pred: &BinExpr{Op: sql.OpLT, L: &ColExpr{I: 0}, R: &ConstExpr{V: types.NewInt(6)}}},
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
		"bare":   func(p func(Operator) Operator) Operator { return p(paramLeaf(false)) },
		"filter": func(p func(Operator) Operator) Operator { return &Filter{Input: p(paramLeaf(false)), Pred: eq(0, 0)} },
		"sort":   func(p func(Operator) Operator) Operator { return &Sort{Input: p(paramLeaf(false)), Keys: byFirst} },
		"topn": func(p func(Operator) Operator) Operator {
			return &TopN{Input: p(paramLeaf(false)), Keys: byFirst, N: &ParamExpr{Name: "n"}}
		},
		"limit": func(p func(Operator) Operator) Operator {
			return &Limit{Input: p(paramLeaf(false)), N: &ParamExpr{Name: "n"}}
		},
		"distinct": func(p func(Operator) Operator) Operator { return &Distinct{Input: p(paramLeaf(false))} },
		"unionall": func(p func(Operator) Operator) Operator {
			return &UnionAll{Inputs: []Operator{
				&StartupFilter{Input: p(paramLeaf(false)), Guard: &BinExpr{Op: sql.OpLT, L: &ParamExpr{Name: "p"}, R: &ConstExpr{V: types.NewInt(12)}}},
				p(paramLeaf(false)),
			}}
		},
		"exchange": func(p func(Operator) Operator) Operator { return &Exchange{Template: p(paramLeaf(true)), DOP: 2} },
		"sort-over-exchange": func(p func(Operator) Operator) Operator {
			return &Sort{Input: &Exchange{Template: p(paramLeaf(true)), DOP: 2}, Keys: []SortKey{{E: &ColExpr{I: 0}}}}
		},
		// The producer's rows stay inside the tree: kept by the Sort for the
		// whole execution, then copied by the Project above it.
		"project-over-sort": func(p func(Operator) Operator) Operator {
			return &Project{
				Input: &Sort{Input: p(paramLeaf(false)), Keys: byFirst},
				Exprs: colsExprs(2, 1, 0), Cols: intCols("c", "b", "a"),
			}
		},
		// … or read Ephemeral, one recycled chunk for the whole run.
		"agg-over": func(p func(Operator) Operator) Operator {
			return &HashAgg{
				Input: p(paramLeaf(false)), GroupBy: colsExprs(2),
				Aggs: []AggSpec{{Func: AggCountStar}, {Func: AggSum, Arg: &ColExpr{I: 0}}, {Func: AggMin, Arg: &ColExpr{I: 1}}},
				Cols: intCols("g", "n", "s", "m"),
			}
		},
		"final-over-exchange-over-partial": func(p func(Operator) Operator) Operator {
			aggs := []AggSpec{{Func: AggCountStar}, {Func: AggAvg, Arg: &ColExpr{I: 0}}}
			return &FinalAgg{
				Input: &Exchange{DOP: 2, Template: &PartialAgg{
					Input: p(paramLeaf(true)), GroupBy: colsExprs(2), Aggs: aggs, Cols: intCols("g", "n", "s", "c"),
				}},
				GroupKeys: 1, Aggs: aggs, Cols: intCols("g", "n", "a"),
			}
		},
	}
	var trees []reuseTree
	for pn, p := range producers {
		for rn, r := range roots {
			p, r := p, r
			trees = append(trees, reuseTree{
				name: rn + "/" + pn, build: func() Operator { return r(p) },
				unordered: rn == "exchange" || rn == "sort-over-exchange" || rn == "final-over-exchange-over-partial",
			})
		}
	}
	// Roots whose rows are storage's and the remote result's: nothing of the
	// instance's is in the result at all.
	trees = append(trees,
		reuseTree{name: "scan", build: func() Operator { return paramLeaf(false) }},
		reuseTree{name: "sort/scan", build: func() Operator { return &Sort{Input: paramLeaf(false), Keys: byFirst} }},
		reuseTree{name: "indexscan", build: func() Operator {
			return &IndexScan{TableName: "l", IndexName: "ix_k", Cols: joinCols("l"), Hi: []Expr{&ParamExpr{Name: "n"}}}
		}},
		reuseTree{name: "exchange/scan", unordered: true, build: func() Operator { return &Exchange{Template: paramLeaf(true), DOP: 2} }},
		reuseTree{name: "remote", build: func() Operator { return &Remote{SQLText: "SELECT …", Cols: intCols("a", "b")} }},
		reuseTree{name: "topn/remote", build: func() Operator {
			return &TopN{Input: &Remote{SQLText: "SELECT …", Cols: intCols("a", "b")}, Keys: []SortKey{{E: &ColExpr{I: 1}}}, N: &ParamExpr{Name: "n"}}
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
		rs, err := Run(op, &Ctx{Params: params, Txn: tx, Remote: remote, Counters: &Counters{}})
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
		inst := CloneOperator(tmpl)
		var hoarded, copies [][]types.Row
		for round, p := range ps {
			params := Params{"p": types.NewInt(p), "n": types.NewInt(p / 2)}
			got := run(inst, params)
			want := run(CloneOperator(tmpl), params)
			label := fmt.Sprintf("%s, execution %d (p=%d)", tree.name, round, p)
			if tree.unordered {
				requireRowsInOrder(t, label, sortedRows(got), sortedRows(want))
			} else {
				requireRowsInOrder(t, label, got, want)
			}
			hoarded, copies = append(hoarded, got), append(copies, cloneRows(got))
			results += len(got)

			resetTree(inst, true)
			spoilTree(inst)
			for i := range hoarded {
				for j, row := range hoarded[i] {
					for c := range row {
						if row[c] != copies[i][j][c] {
							t.Fatalf("%s: row %d of the result of execution %d was %v and reads %v after execution %d was released",
								tree.name, j, i, copies[i][j], row, round)
						}
					}
				}
			}
		}
	}
	if len(trees) < 70 || results < 20000 {
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
					Outer: paramLeaf(false), OuterKeys: colsExprs(1), TableName: "r", IndexName: "ix_k",
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
	var pool Instances
	params := Params{"p": types.NewInt(15)}
	exec := func() int {
		root := pool.Take()
		if root == nil {
			root = CloneOperator(tmpl)
		}
		rs, err := Run(root, &Ctx{Params: params, Txn: tx, EstRows: 300})
		if err != nil {
			t.Fatal(err)
		}
		pool.Release(root)
		return len(rs.Rows)
	}
	fresh := testing.AllocsPerRun(20, func() {
		if _, err := Run(CloneOperator(tmpl), &Ctx{Params: params, Txn: tx, EstRows: 300}); err != nil {
			t.Fatal(err)
		}
	})
	rows := exec()
	if rows < 200 {
		t.Fatalf("%d rows", rows)
	}
	// What is left is the result (the set, its row slice, one arena chunk per
	// batch of rows), the context, and what Open builds anew from the plan and
	// the snapshot: two table views and an index view, the compiled filter
	// predicate, the join's schema.
	const ceiling = 16
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
		pool.Release(&Values{})
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
	if _, err := Run(big, &Ctx{}); err != nil {
		t.Fatal(err)
	}
	pool.Release(big)
	if trees, _ := pool.Kept(); trees != 0 {
		t.Errorf("an instance holding more than %d bytes was parked", maxKept)
	}
}

// TestPooledExchangeLeavesNoGoroutines: an Exchange's worker trees are kept
// with the instance, its goroutines are not — Close waits for them, so every
// execution ends with as many goroutines as it started with — and an
// execution cancelled mid-stream fails, which drops the instance.
func TestPooledExchangeLeavesNoGoroutines(t *testing.T) {
	s := newTestStore(t, 3000)
	tmpl := &Sort{
		Input: &Exchange{Template: &Filter{
			Input: parallelScan(),
			Pred:  &BinExpr{Op: sql.OpLT, L: &ColExpr{I: 0}, R: &ParamExpr{Name: "p"}},
		}, DOP: 4},
		Keys: []SortKey{{E: &ColExpr{I: 0}}},
	}
	var pool Instances
	// runPooled is the engine's protocol: take or clone, run, release unless
	// the execution failed.
	runPooled := func(ctx *Ctx) (*ResultSet, error) {
		root := pool.Take()
		if root == nil {
			root = CloneOperator(tmpl)
		}
		rs, err := Run(root, ctx)
		if err == nil {
			pool.Release(root)
		}
		return rs, err
	}
	settle := func(want int) int {
		deadline := time.Now().Add(2 * time.Second)
		n := runtime.NumGoroutine()
		for n > want && time.Now().Before(deadline) {
			runtime.Gosched()
			n = runtime.NumGoroutine()
		}
		return n
	}
	before := runtime.NumGoroutine()
	var workers []Operator
	for i, p := range []int64{900, 10, 0, 1000, 700} {
		tx := s.Begin(false)
		rs, err := runPooled(&Ctx{Params: Params{"p": types.NewInt(p)}, Txn: tx, Counters: &Counters{}})
		tx.Abort()
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(rs.Rows)) != p {
			t.Fatalf("execution %d: %d rows, want %d", i, len(rs.Rows), p)
		}
		for j := range rs.Rows {
			if rs.Rows[j][0].Int() != int64(j) {
				t.Fatalf("execution %d: row %d is %v", i, j, rs.Rows[j])
			}
		}
		if n := settle(before); n > before {
			t.Fatalf("execution %d left %d goroutines behind", i, n-before)
		}
		root := pool.Take()
		ex := root.(*Sort).Input.(*Exchange)
		if i == 0 {
			workers = append(workers, ex.workers...)
		}
		if len(ex.workers) != 4 || ex.workers[0] != workers[0] || ex.workers[3] != workers[3] {
			t.Fatalf("execution %d ran on other worker trees than the first", i)
		}
		pool.Release(root)
	}

	// Cancelled while the workers are blocked on a full channel.
	cctx, cancel := context.WithCancel(context.Background())
	tx := s.Begin(false)
	defer tx.Abort()
	root := pool.Take()
	ctx := &Ctx{Params: Params{"p": types.NewInt(3000)}, Txn: tx, Counters: &Counters{}, Context: cctx}
	ctx.Env.Named = ctx.Params
	ex := root.(*Sort).Input.(*Exchange)
	if err := ex.Open(ctx); err != nil {
		t.Fatal(err)
	}
	var b Batch
	if err := ex.BatchNext(ctx, &b); err != nil || len(b.Rows) == 0 {
		t.Fatalf("first batch: %d rows, %v", len(b.Rows), err)
	}
	cancel()
	var err error
	for err == nil && len(b.Rows) > 0 {
		err = ex.BatchNext(ctx, &b)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("a cancelled execution ended with %v", err)
	}
	if err := ex.Close(); err != nil {
		t.Fatal(err)
	}
	if n := settle(before); n > before {
		t.Fatalf("the cancelled execution left %d goroutines behind", n-before)
	}
	// The same through the protocol: a failed execution parks nothing.
	cctx, cancel = context.WithCancel(context.Background())
	cancel()
	if _, err := runPooled(&Ctx{Params: Params{"p": types.NewInt(3000)}, Txn: tx, Counters: &Counters{}, Context: cctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("a cancelled execution ended with %v", err)
	}
	if trees, _ := pool.Kept(); trees != 0 {
		t.Errorf("a failed execution parked its instance (%d parked)", trees)
	}
	if n := settle(before); n > before {
		t.Fatalf("the failed execution left %d goroutines behind", n-before)
	}
}

// TestReleasedInstancePinsNothing walks an instance that has really run —
// scans, a lookup join, an aggregate, a sort, an Exchange — and requires what
// reset promises: every pointer and interface of the run state nil, every
// kept slice zero over its whole capacity, every map empty. No transaction,
// table or index view, row version or string is reachable from it.
func TestReleasedInstancePinsNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s, _, _ := newJoinStore(t, rng, 300, 40)
	tx := s.Begin(false)
	defer tx.Abort()
	for _, tree := range reuseTrees(&sizedRemote{}) {
		inst := CloneOperator(tree.build())
		params := Params{"p": types.NewInt(14), "n": types.NewInt(9)}
		if _, err := Run(inst, &Ctx{Params: params, Txn: tx, Remote: sizedRemote{}, Counters: &Counters{}}); err != nil {
			t.Fatal(err)
		}
		resetTree(inst, true)
		requirePinsNothing(t, tree.name, inst)
	}
}

// requirePinsNothing applies notEmpty (operator_test.go) to every run-state
// field of every operator of the tree.
func requirePinsNothing(t testing.TB, label string, root Operator) {
	t.Helper()
	eachOperator(root, func(op Operator) {
		eachKeptField(op, func(name string, v reflect.Value) {
			if what := notEmpty(v); what != "" {
				t.Errorf("%s: %s of a released instance holds %s", label, name, what)
			}
		})
	})
}
