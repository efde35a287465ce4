package exec

import (
	"context"
	"errors"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"mtcache/internal/catalog"
	"mtcache/internal/sql"
	"mtcache/internal/storage"
	"mtcache/internal/types"
)

func sortedRows(rows []types.Row) []types.Row {
	out := append([]types.Row(nil), rows...)
	sort.Slice(out, func(i, j int) bool { return types.CompareRows(out[i], out[j]) < 0 })
	return out
}

func requireSameRows(t *testing.T, got, want []types.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("row count %d, want %d", len(got), len(want))
	}
	g, w := sortedRows(got), sortedRows(want)
	for i := range w {
		if types.CompareRows(g[i], w[i]) != 0 {
			t.Fatalf("row %d = %v, want %v", i, g[i], w[i])
		}
	}
}

func parallelScan() *Scan {
	return &Scan{TableName: "nums", Cols: numsCols(), Parallel: true}
}

func TestExchangeScanEquivalence(t *testing.T) {
	s := newTestStore(t, 500)
	want := runOp(t, s, &Scan{TableName: "nums", Cols: numsCols()}, nil)
	for _, dop := range []int{1, 2, 3, 4, 8} {
		got := runOp(t, s, &Exchange{Template: parallelScan(), DOP: dop}, nil)
		requireSameRows(t, got.Rows, want.Rows)
	}
}

func TestExchangeIndexScanEquivalence(t *testing.T) {
	s := newTestStore(t, 500)
	mk := func(parallel bool) *IndexScan {
		return &IndexScan{
			TableName: "nums", IndexName: "__pk", Cols: numsCols(),
			Lo:       []Expr{&ConstExpr{V: types.NewInt(20)}},
			Hi:       []Expr{&ConstExpr{V: types.NewInt(399)}},
			Parallel: parallel,
		}
	}
	want := runOp(t, s, mk(false), nil)
	if len(want.Rows) != 380 {
		t.Fatalf("serial rows %d", len(want.Rows))
	}
	for _, dop := range []int{2, 4, 7} {
		got := runOp(t, s, &Exchange{Template: mk(true), DOP: dop}, nil)
		requireSameRows(t, got.Rows, want.Rows)
	}
}

func TestExchangeFilterProjectEquivalence(t *testing.T) {
	s := newTestStore(t, 400)
	mk := func(parallel bool) Operator {
		return &Project{
			Input: &Filter{
				Input: &Scan{TableName: "nums", Cols: numsCols(), Parallel: parallel},
				Pred:  &BinExpr{Op: sql.OpGE, L: &ColExpr{I: 0}, R: &ConstExpr{V: types.NewInt(100)}},
			},
			Exprs: []Expr{&BinExpr{Op: sql.OpMul, L: &ColExpr{I: 0}, R: &ConstExpr{V: types.NewInt(2)}}, &ColExpr{I: 1}},
			Cols:  []ColInfo{{Name: "a2", Kind: types.KindInt}, {Name: "b", Kind: types.KindString}},
		}
	}
	want := runOp(t, s, mk(false), nil)
	got := runOp(t, s, &Exchange{Template: mk(true), DOP: 4}, nil)
	requireSameRows(t, got.Rows, want.Rows)
}

func TestExchangeSharedBuildJoinEquivalence(t *testing.T) {
	s := newTestStore(t, 100)
	mk := func(parallel, share bool) *HashJoin {
		return &HashJoin{
			Left:       &Scan{TableName: "nums", Cols: numsCols(), Parallel: parallel},
			Right:      &Scan{TableName: "nums", Cols: numsCols()},
			LeftKeys:   []Expr{&ColExpr{I: 1}},
			RightKeys:  []Expr{&ColExpr{I: 1}},
			ShareBuild: share,
		}
	}
	want := runOp(t, s, mk(false, false), nil)
	if len(want.Rows) != 2000 { // 5 colors x 20x20 pairs
		t.Fatalf("serial join rows %d", len(want.Rows))
	}
	for _, dop := range []int{2, 4} {
		got := runOp(t, s, &Exchange{Template: mk(true, true), DOP: dop}, nil)
		requireSameRows(t, got.Rows, want.Rows)
	}
}

func TestExchangeWorkerErrorPropagation(t *testing.T) {
	s := newTestStore(t, 1000)
	divZero := &BinExpr{
		Op: sql.OpEQ,
		L:  &BinExpr{Op: sql.OpDiv, L: &ColExpr{I: 0}, R: &ConstExpr{V: types.NewInt(0)}},
		R:  &ConstExpr{V: types.NewInt(1)},
	}
	ex := &Exchange{Template: &Filter{Input: parallelScan(), Pred: divZero}, DOP: 4}
	tx := s.Begin(false)
	defer tx.Abort()
	ctx := &Ctx{Txn: tx, Counters: &Counters{}}
	if err := ex.Open(ctx); err != nil {
		t.Fatal(err)
	}
	var got error
	var b Batch
	for {
		if got = ex.BatchNext(ctx, &b); got != nil || len(b.Rows) == 0 {
			break
		}
	}
	if got == nil || !strings.Contains(got.Error(), "division by zero") {
		t.Fatalf("err = %v, want division by zero", got)
	}
	if err := ex.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ex.Close(); err != nil { // double Close is a no-op
		t.Fatal(err)
	}
}

func TestExchangeContextCancellation(t *testing.T) {
	s := newTestStore(t, 2000)
	cctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: workers must stop before producing the stream
	ex := &Exchange{Template: parallelScan(), DOP: 2}
	tx := s.Begin(false)
	defer tx.Abort()
	ctx := &Ctx{Txn: tx, Counters: &Counters{}, Context: cctx}
	if err := ex.Open(ctx); err != nil {
		t.Fatal(err)
	}
	var b Batch
	for {
		if err := ex.BatchNext(ctx, &b); err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			break
		}
		if len(b.Rows) == 0 {
			t.Fatal("stream ended cleanly despite cancelled context")
		}
	}
	if err := ex.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestExchangeEarlyCloseNoGoroutineLeak closes a parallel stream after one
// batch, repeatedly, and checks the goroutine count settles back to baseline.
func TestExchangeEarlyCloseNoGoroutineLeak(t *testing.T) {
	s := newTestStore(t, 5000)
	before := runtime.NumGoroutine()
	for iter := 0; iter < 10; iter++ {
		ex := &Exchange{Template: parallelScan(), DOP: 4}
		tx := s.Begin(false)
		ctx := &Ctx{Txn: tx, Counters: &Counters{}}
		if err := ex.Open(ctx); err != nil {
			t.Fatal(err)
		}
		var b Batch
		if err := ex.BatchNext(ctx, &b); err != nil {
			t.Fatal(err)
		}
		if err := ex.Close(); err != nil {
			t.Fatal(err)
		}
		tx.Abort()
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines %d > baseline %d after Close", runtime.NumGoroutine(), before)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// newValsStore builds vals(id INT PK, g INT, x INT, f FLOAT) with n rows:
// g = id%3, x = NULL when id%5 == 0 else id, f = id * 0.5.
func newValsStore(t *testing.T, n int64) *storage.Store {
	t.Helper()
	s := storage.NewStore()
	meta := &catalog.Table{
		Name: "vals",
		Columns: []catalog.Column{
			{Name: "id", Type: types.KindInt},
			{Name: "g", Type: types.KindInt},
			{Name: "x", Type: types.KindInt},
			{Name: "f", Type: types.KindFloat},
		},
		PrimaryKey: []int{0},
	}
	if err := s.CreateTable(meta); err != nil {
		t.Fatal(err)
	}
	tx := s.Begin(true)
	for i := int64(0); i < n; i++ {
		x := types.NewInt(i)
		if i%5 == 0 {
			x = types.Null
		}
		row := types.Row{types.NewInt(i), types.NewInt(i % 3), x, types.NewFloat(float64(i) * 0.5)}
		if _, err := tx.Insert("vals", row); err != nil {
			t.Fatal(err)
		}
	}
	tx.Commit()
	return s
}

func valsCols() []ColInfo {
	return []ColInfo{
		{Table: "vals", Name: "id", Kind: types.KindInt},
		{Table: "vals", Name: "g", Kind: types.KindInt},
		{Table: "vals", Name: "x", Kind: types.KindInt},
		{Table: "vals", Name: "f", Kind: types.KindFloat},
	}
}

// testAggSpecs covers NULL-skipping, int-preserving SUM, float SUM, and AVG.
func testAggSpecs() ([]AggSpec, []ColInfo) {
	aggs := []AggSpec{
		{Func: AggCountStar},
		{Func: AggCount, Arg: &ColExpr{I: 2}},
		{Func: AggSum, Arg: &ColExpr{I: 2}},
		{Func: AggSum, Arg: &ColExpr{I: 3}},
		{Func: AggAvg, Arg: &ColExpr{I: 2}},
		{Func: AggMin, Arg: &ColExpr{I: 2}},
		{Func: AggMax, Arg: &ColExpr{I: 3}},
	}
	cols := []ColInfo{
		{Name: "cnt_star", Kind: types.KindInt},
		{Name: "cnt_x", Kind: types.KindInt},
		{Name: "sum_x", Kind: types.KindInt},
		{Name: "sum_f", Kind: types.KindFloat},
		{Name: "avg_x", Kind: types.KindFloat},
		{Name: "min_x", Kind: types.KindInt},
		{Name: "max_f", Kind: types.KindFloat},
	}
	return aggs, cols
}

// partialAggPlan wires PartialAgg -> Exchange -> FinalAgg over a parallel
// scan, mirroring what opt.parallelAgg emits.
func partialAggPlan(groupBy []Expr, nKeys int, aggs []AggSpec, keyCols, aggCols []ColInfo, dop int) Operator {
	partialCols := append([]ColInfo(nil), keyCols...)
	for i, a := range aggs {
		if a.Func == AggAvg {
			partialCols = append(partialCols,
				ColInfo{Name: "$sum", Kind: types.KindFloat},
				ColInfo{Name: "$cnt", Kind: types.KindInt})
		} else {
			partialCols = append(partialCols, aggCols[i])
		}
	}
	partial := &PartialAgg{
		Input:   &Scan{TableName: "vals", Cols: valsCols(), Parallel: true},
		GroupBy: groupBy,
		Aggs:    aggs,
		Cols:    partialCols,
	}
	return &FinalAgg{
		Input:     &Exchange{Template: partial, DOP: dop},
		GroupKeys: nKeys,
		Aggs:      aggs,
		Cols:      append(append([]ColInfo(nil), keyCols...), aggCols...),
	}
}

func TestPartialFinalAggGroupedEquivalence(t *testing.T) {
	s := newValsStore(t, 333)
	aggs, aggCols := testAggSpecs()
	groupBy := []Expr{&ColExpr{I: 1}}
	keyCols := []ColInfo{{Name: "g", Kind: types.KindInt}}
	serial := &HashAgg{
		Input:   &Scan{TableName: "vals", Cols: valsCols()},
		GroupBy: groupBy,
		Aggs:    aggs,
		Cols:    append(append([]ColInfo(nil), keyCols...), aggCols...),
	}
	want := runOp(t, s, serial, nil)
	if len(want.Rows) != 3 {
		t.Fatalf("serial groups %d", len(want.Rows))
	}
	for _, dop := range []int{1, 2, 4} {
		got := runOp(t, s, partialAggPlan(groupBy, 1, aggs, keyCols, aggCols, dop), nil)
		requireSameRows(t, got.Rows, want.Rows)
	}
}

func TestPartialFinalAggGlobalEquivalence(t *testing.T) {
	for _, n := range []int64{0, 1, 250} { // empty input must still yield one global row
		s := newValsStore(t, n)
		aggs, aggCols := testAggSpecs()
		serial := &HashAgg{
			Input: &Scan{TableName: "vals", Cols: valsCols()},
			Aggs:  aggs,
			Cols:  aggCols,
		}
		want := runOp(t, s, serial, nil)
		if len(want.Rows) != 1 {
			t.Fatalf("n=%d: serial global rows %d", n, len(want.Rows))
		}
		got := runOp(t, s, partialAggPlan(nil, 0, aggs, nil, aggCols, 4), nil)
		requireSameRows(t, got.Rows, want.Rows)
	}
}

func TestTopNMatchesSortLimit(t *testing.T) {
	s := newTestStore(t, 200)
	keys := []SortKey{{E: &ColExpr{I: 1}}} // only 5 distinct values: ties abound
	for _, n := range []int64{0, 7, 50, 500} {
		serial := &Limit{
			Input: &Sort{Input: &Scan{TableName: "nums", Cols: numsCols()}, Keys: keys},
			N:     &ConstExpr{V: types.NewInt(n)},
		}
		want := runOp(t, s, serial, nil)
		fused := &TopN{
			Input: &Scan{TableName: "nums", Cols: numsCols()},
			Keys:  keys,
			N:     &ConstExpr{V: types.NewInt(n)},
		}
		got := runOp(t, s, fused, nil)
		if len(got.Rows) != len(want.Rows) {
			t.Fatalf("n=%d: rows %d, want %d", n, len(got.Rows), len(want.Rows))
		}
		// Exact order must match: TopN's tiebreak is input order, the same
		// order the stable Sort preserves.
		for i := range want.Rows {
			if types.CompareRows(got.Rows[i], want.Rows[i]) != 0 {
				t.Fatalf("n=%d row %d = %v, want %v", n, i, got.Rows[i], want.Rows[i])
			}
		}
	}
}

func TestTopNDescWithParamN(t *testing.T) {
	s := newTestStore(t, 100)
	keys := []SortKey{{E: &ColExpr{I: 1}, Desc: true}, {E: &ColExpr{I: 0}, Desc: true}}
	serial := &Limit{
		Input: &Sort{Input: &Scan{TableName: "nums", Cols: numsCols()}, Keys: keys},
		N:     &ParamExpr{Name: "n"},
	}
	params := Params{"n": types.NewInt(9)}
	want := runOp(t, s, serial, params)
	got := runOp(t, s, &TopN{
		Input: &Scan{TableName: "nums", Cols: numsCols()},
		Keys:  keys,
		N:     &ParamExpr{Name: "n"},
	}, params)
	if len(got.Rows) != 9 || len(want.Rows) != 9 {
		t.Fatalf("rows %d/%d, want 9", len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		if types.CompareRows(got.Rows[i], want.Rows[i]) != 0 {
			t.Fatalf("row %d = %v, want %v", i, got.Rows[i], want.Rows[i])
		}
	}
}
