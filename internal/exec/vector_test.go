package exec

import (
	"fmt"
	"testing"

	"mtcache/internal/sql"
	"mtcache/internal/types"
)

// The compiled fast paths are checked against the interpreter they replace:
// EvalBool stays in production as the fallback for predicate shapes
// compilePred does not cover, and the generic hash table stays as the
// fallback for group keys the int-keyed table does not cover, so each is the
// legitimate reference for its fast path.

// mixedRows is every combination of an INT, a FLOAT and a STRING column
// drawn from small domains that include NULL, equal values and values on
// either side of the probe constants.
func mixedRows() []types.Row {
	ints := []types.Value{types.Null, types.NewInt(-3), types.NewInt(0), types.NewInt(2), types.NewInt(7)}
	floats := []types.Value{types.Null, types.NewFloat(-1.5), types.NewFloat(2), types.NewFloat(2.5)}
	strs := []types.Value{types.Null, types.NewString(""), types.NewString("b"), types.NewString("ba")}
	var rows []types.Row
	for _, i := range ints {
		for _, f := range floats {
			for _, s := range strs {
				rows = append(rows, types.Row{i, f, s})
			}
		}
	}
	return rows
}

func TestVecPredMatchesEvalBool(t *testing.T) {
	rows := mixedRows()
	ops := []sql.BinOp{sql.OpEQ, sql.OpNE, sql.OpLT, sql.OpLE, sql.OpGT, sql.OpGE}
	// Right-hand sides of every kind against every column: same-kind fast
	// paths, cross-kind numeric comparison, incomparable kinds and NULL.
	rhsVals := []types.Value{types.Null, types.NewInt(2), types.NewFloat(2), types.NewFloat(2.25), types.NewString("b")}

	// leaf builds <column> op <rhs> (or its mirror image) with rhs as a
	// constant or as parameter @name bound in env.
	leaf := func(env *Env, name string, col int, op sql.BinOp, v types.Value, param, colOnRight bool) Expr {
		var rhs Expr = &ConstExpr{V: v}
		if param {
			rhs = &ParamExpr{Name: name}
			env.Named[name] = v
		}
		if colOnRight {
			return &BinExpr{Op: op, L: rhs, R: &ColExpr{I: col}}
		}
		return &BinExpr{Op: op, L: &ColExpr{I: col}, R: rhs}
	}
	check := func(name string, pred Expr, env *Env) {
		t.Helper()
		vp := compilePred(pred)
		if vp == nil {
			t.Fatalf("%s: shape not compiled", name)
		}
		got, rhs, err := vp.sel(rows, nil, nil, env)
		if err != nil {
			t.Fatalf("%s: sel: %v", name, err)
		}
		next := 0
		for i, row := range rows {
			want, err := EvalBool(pred, row, env)
			if err != nil {
				t.Fatalf("%s: EvalBool: %v", name, err)
			}
			held, err := vp.holds(row, rhs, env)
			if err != nil {
				t.Fatalf("%s: holds: %v", name, err)
			}
			if held != want {
				t.Fatalf("%s: row %d %v: holds=%v, EvalBool=%v", name, i, row, held, want)
			}
			if want {
				// sel keeps the same rows, in input order.
				if next >= len(got) || &got[next][0] != &row[0] {
					t.Fatalf("%s: row %d %v missing from sel output", name, i, row)
				}
				next++
			}
		}
		if next != len(got) {
			t.Fatalf("%s: sel kept %d rows, EvalBool %d", name, len(got), next)
		}
	}

	leaves := 0
	for _, op := range ops {
		for col := 0; col < 3; col++ {
			for _, v := range rhsVals {
				for _, param := range []bool{false, true} {
					for _, colOnRight := range []bool{false, true} {
						env := &Env{Named: Params{}}
						pred := leaf(env, "p", col, op, v, param, colOnRight)
						check(fmt.Sprintf("col%d %v %v param=%v colOnRight=%v", col, op, v, param, colOnRight), pred, env)
						leaves++
					}
				}
			}
		}
	}
	if want := 6 * 3 * 5 * 2 * 2; leaves != want {
		t.Fatalf("checked %d leaves, want %d", leaves, want)
	}

	// Conjunctions: every ordered pair of a constant leaf and a mirrored
	// parameter leaf over different columns.
	for _, op1 := range ops {
		for _, op2 := range ops {
			env := &Env{Named: Params{}}
			pred := &BinExpr{Op: sql.OpAnd,
				L: leaf(env, "a", 0, op1, types.NewInt(2), false, false),
				R: leaf(env, "b", 1, op2, types.NewFloat(2.25), true, true),
			}
			check(fmt.Sprintf("col0 %v 2 AND 2.25 %v col1", op1, op2), pred, env)
		}
	}
}

// TestVecPredLeavesOtherShapesToEvalBool: what compilePred does not cover
// must come back nil, so Filter keeps the interpreter for it.
func TestVecPredLeavesOtherShapesToEvalBool(t *testing.T) {
	col, c := &ColExpr{I: 0}, &ConstExpr{V: types.NewInt(1)}
	for name, e := range map[string]Expr{
		"column = column":       &BinExpr{Op: sql.OpEQ, L: col, R: &ColExpr{I: 1}},
		"OR":                    &BinExpr{Op: sql.OpOr, L: &BinExpr{Op: sql.OpEQ, L: col, R: c}, R: &BinExpr{Op: sql.OpEQ, L: col, R: c}},
		"arithmetic right side": &BinExpr{Op: sql.OpEQ, L: col, R: &BinExpr{Op: sql.OpAdd, L: c, R: c}},
		"AND over a LIKE":       &BinExpr{Op: sql.OpAnd, L: &BinExpr{Op: sql.OpEQ, L: col, R: c}, R: &LikeMatch{}},
		"bare column":           col,
	} {
		if compilePred(e) != nil {
			t.Errorf("%s: compiled, want the interpreted fallback", name)
		}
	}
}

// interpreted hides an expression's concrete type, so the operators' fast
// paths (which recognize *ColExpr) fall back to evaluating it.
type interpreted struct{ Expr }

// TestIntKeyedAggMatchesGenericTable groups the same rows by a ColExpr (the
// int-keyed table, migrating to the generic one at the first key that is not
// a non-NULL INT) and by an equivalent opaque expression (the generic table
// from the start). Groups must agree in content and first-seen order.
func TestIntKeyedAggMatchesGenericTable(t *testing.T) {
	const n = 200 // more than three batches
	for _, tc := range []struct {
		name  string
		oddAt int         // input position of the odd key, -1 for none
		odd   types.Value // the key that is not a non-NULL INT
	}{
		{"int keys only", -1, types.Null},
		{"NULL key mid-batch", 100, types.Null},
		{"NULL key on a batch boundary", 64, types.Null},
		{"FLOAT key mid-stream", 130, types.NewFloat(2.5)},
		{"STRING key mid-stream", 70, types.NewString("k")},
		{"first key is not an INT", 0, types.NewFloat(4.5)},
	} {
		rows := make([][]Expr, n)
		for i := range rows {
			key := types.NewInt(int64(i % 9))
			if i == tc.oddAt {
				key = tc.odd
			}
			arg := types.NewInt(int64(i))
			if i%11 == 0 {
				arg = types.Null // aggregates skip NULL arguments
			}
			rows[i] = []Expr{&ConstExpr{V: key}, &ConstExpr{V: arg}}
		}
		agg := func(opaque bool) []types.Row {
			wrap := func(e Expr) Expr {
				if opaque {
					return interpreted{e}
				}
				return e
			}
			key, arg := wrap(&ColExpr{I: 0}), wrap(&ColExpr{I: 1})
			op := &HashAgg{
				Input:   &Values{Cols: make([]ColInfo, 2), Rows: rows},
				GroupBy: []Expr{key},
				Aggs: []AggSpec{
					{Func: AggCountStar}, {Func: AggCount, Arg: arg}, {Func: AggSum, Arg: arg},
					{Func: AggAvg, Arg: arg}, {Func: AggMin, Arg: arg}, {Func: AggMax, Arg: arg},
				},
				Cols: make([]ColInfo, 7),
			}
			rs, err := Run(op, &Ctx{})
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			return rs.Rows
		}
		fast, generic := agg(false), agg(true)
		wantGroups := 9
		if tc.oddAt >= 0 {
			wantGroups = 10
		}
		if len(generic) != wantGroups {
			t.Fatalf("%s: generic table made %d groups, want %d", tc.name, len(generic), wantGroups)
		}
		if len(fast) != len(generic) {
			t.Fatalf("%s: %d groups by column, %d by expression", tc.name, len(fast), len(generic))
		}
		for i := range generic {
			for j := range generic[i] {
				f, g := fast[i][j], generic[i][j]
				if f.K != g.K || types.Compare(f, g) != 0 {
					t.Fatalf("%s: group %d col %d: %v by column, %v by expression", tc.name, i, j, fast[i], generic[i])
				}
			}
		}
	}
}
