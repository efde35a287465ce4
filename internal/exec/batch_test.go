package exec

import (
	"fmt"
	"testing"

	"mtcache/internal/sql"
	"mtcache/internal/types"
)

// Batch-boundary behaviour of the operators that have no input of their own
// to delegate batching to, or that keep state across input batches: empty
// input, one row, one row short of a batch, exactly a batch, one row over,
// and two batches plus one.

var boundarySizes = []int{0, 1, BatchSize - 1, BatchSize, BatchSize + 1, 2*BatchSize + 1}

func intCols(names ...string) []ColInfo {
	out := make([]ColInfo, len(names))
	for i, n := range names {
		out[i] = ColInfo{Name: n, Kind: types.KindInt}
	}
	return out
}

// intRows is n one-column rows holding key(0) … key(n-1).
func intRows(n int, key func(i int) int64) []types.Row {
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(key(i))}
	}
	return rows
}

func identity(i int) int64 { return int64(i) }

// valuesOf is a Values operator producing rows.
func valuesOf(name string, rows []types.Row) *Values {
	v := &Values{Cols: intCols(name), Rows: make([][]Expr, len(rows))}
	for i, row := range rows {
		for _, val := range row {
			v.Rows[i] = append(v.Rows[i], &ConstExpr{V: val})
		}
	}
	return v
}

// requireRowsInOrder compares got with want position by position.
func requireRowsInOrder(t *testing.T, label string, got, want []types.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range want {
		if types.CompareRows(got[i], want[i]) != 0 {
			t.Fatalf("%s: row %d = %v, want %v", label, i, got[i], want[i])
		}
	}
}

func TestLeafOperatorsAcrossBatchBoundaries(t *testing.T) {
	for _, n := range boundarySizes {
		rows := intRows(n, identity)
		ctr := &Counters{}
		ctx := &Ctx{Counters: ctr, Remote: &fakeRemote{result: &ResultSet{Cols: intCols("x"), Rows: rows}}}
		for name, op := range map[string]Operator{
			"Values":      valuesOf("x", rows),
			"VirtualScan": &VirtualScan{Name: "sys.t", Cols: intCols("x"), Rows: func() []types.Row { return rows }},
			"Remote":      &Remote{SQLText: "SELECT x FROM t", Cols: intCols("x")},
		} {
			// Every batch but the last is full, and the stream ends with
			// exactly one empty batch.
			if err := op.Open(ctx); err != nil {
				t.Fatal(err)
			}
			var b Batch
			var got []types.Row
			for {
				if err := op.BatchNext(ctx, &b); err != nil {
					t.Fatal(err)
				}
				if len(b.Rows) == 0 {
					break
				}
				if len(b.Rows) > BatchSize || (len(b.Rows) < BatchSize && len(got)+len(b.Rows) != n) {
					t.Fatalf("%s n=%d: a %d-row batch after %d rows", name, n, len(b.Rows), len(got))
				}
				got = append(got, b.Rows...)
			}
			if err := op.Close(); err != nil {
				t.Fatal(err)
			}
			requireRowsInOrder(t, fmt.Sprintf("%s n=%d", name, n), got, rows)
		}
		if ctr.RowsScanned != int64(n) || ctr.RowsRemote != int64(n) {
			t.Errorf("n=%d: RowsScanned %d (VirtualScan), RowsRemote %d (Remote)", n, ctr.RowsScanned, ctr.RowsRemote)
		}
	}
}

func TestDistinctAcrossBatchBoundaries(t *testing.T) {
	// Seven values cycle through the first two batches, so the second input
	// batch is all duplicates; fresh values only resume at row 2*BatchSize,
	// which an all-duplicate batch read as end of stream would lose.
	key := func(i int) int64 {
		if i < 2*BatchSize {
			return int64(i % 7)
		}
		return int64(1000 + i)
	}
	for _, n := range boundarySizes {
		var want []types.Row
		seen := map[int64]bool{}
		for i := 0; i < n; i++ {
			if k := key(i); !seen[k] {
				seen[k] = true
				want = append(want, types.Row{types.NewInt(k)})
			}
		}
		rs, err := drain(&Distinct{Input: valuesOf("x", intRows(n, key))}, &Ctx{})
		if err != nil {
			t.Fatal(err)
		}
		requireRowsInOrder(t, fmt.Sprintf("n=%d", n), rs.Rows, want)
	}
}

// TestDistinctKeepsComputedRows is the retention trap: Distinct both emits a
// first-seen row and keeps it for later comparisons. Were it to pull its
// input Ephemeral, the Project below would recycle one output slab per batch
// and every row of the first batch would silently turn into a later one.
func TestDistinctKeepsComputedRows(t *testing.T) {
	const n = 3*BatchSize + 8
	s := newTestStore(t, n)
	op := &Distinct{Input: &Project{
		Input: &Scan{TableName: "nums", Cols: numsCols()},
		Exprs: []Expr{&BinExpr{Op: sql.OpMul, L: &ColExpr{I: 0}, R: &ConstExpr{V: types.NewInt(2)}}},
		Cols:  intCols("twice"),
	}}
	rs := runOp(t, s, op, nil)
	requireRowsInOrder(t, "DISTINCT a * 2", rs.Rows, intRows(n, func(i int) int64 { return int64(2 * i) }))
}

func TestNestedLoopAcrossBatchBoundaries(t *testing.T) {
	// l.x % 3 = r.y % 3 AND l.x <= r.y: some left rows match nothing, the
	// rest a varying number of right rows.
	mod3 := func(col int) Expr {
		return &BinExpr{Op: sql.OpMod, L: &ColExpr{I: col}, R: &ConstExpr{V: types.NewInt(3)}}
	}
	pred := &BinExpr{Op: sql.OpAnd,
		L: &BinExpr{Op: sql.OpEQ, L: mod3(0), R: mod3(1)},
		R: &BinExpr{Op: sql.OpLE, L: &ColExpr{I: 0}, R: &ColExpr{I: 1}},
	}
	for _, nl := range boundarySizes {
		for _, nr := range []int{0, 1, 5, BatchSize + 1} {
			for _, leftOuter := range []bool{false, true} {
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
				op := &NestedLoop{
					Left:  valuesOf("x", intRows(nl, identity)),
					Right: valuesOf("y", intRows(nr, identity)),
					Pred:  pred, LeftOuter: leftOuter,
				}
				rs, err := drain(op, &Ctx{})
				if err != nil {
					t.Fatal(err)
				}
				requireRowsInOrder(t, fmt.Sprintf("l=%d r=%d leftouter=%v", nl, nr, leftOuter), rs.Rows, want)
			}
		}
	}
}

// TestNestedLoopFanOutPastBatchSize: one left row joining more right rows
// than a batch holds comes out whole, followed by the next left row's.
func TestNestedLoopFanOutPastBatchSize(t *testing.T) {
	const fan = 3*BatchSize + 5
	op := &NestedLoop{
		Left:  valuesOf("x", intRows(2, identity)),
		Right: valuesOf("y", intRows(fan, identity)),
		Pred:  &ConstExpr{V: types.NewBool(true)},
	}
	var want []types.Row
	for x := 0; x < 2; x++ {
		for y := 0; y < fan; y++ {
			want = append(want, types.Row{types.NewInt(int64(x)), types.NewInt(int64(y))})
		}
	}
	rs, err := drain(op, &Ctx{})
	if err != nil {
		t.Fatal(err)
	}
	requireRowsInOrder(t, "cross join", rs.Rows, want)
}
