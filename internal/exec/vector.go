package exec

import (
	"strings"

	"mtcache/internal/sql"
	"mtcache/internal/types"
)

// Vectorized predicate evaluation. The interpreted Expr tree pays three
// dynamic dispatches and a 24-byte Value copy per row just to compare one
// column against one constant; on a 20k-row scan that interpretation is
// nearly half the query's CPU. compilePred recognizes the filter shapes
// that dominate real plans — a conjunction of <column> <cmp> <constant or
// parameter> terms — and turns them into a flat leaf list that BatchNext
// evaluates with direct row indexing and static comparisons, touching the
// generic Expr machinery once per batch (to resolve the row-independent
// right-hand sides) instead of three times per row. Shapes compilePred does
// not cover keep the interpreted EvalBool, which is also the reference the
// property test checks the compiled form against.

// vecLeaf is one compiled comparison: row[col] op rhs, where rhs is
// row-independent (ConstExpr or ParamExpr).
type vecLeaf struct {
	col int
	op  sql.BinOp
	rhs Expr
}

// vecPred is a compiled conjunction of leaves. It is immutable after
// compilePred; per-batch scratch lives in the owning operator.
type vecPred struct {
	leaves []vecLeaf
}

// compilePred compiles e into a vectorized evaluator, or returns nil when
// e's shape is not covered and the caller must keep the interpreted path.
func compilePred(e Expr) *vecPred {
	p := &vecPred{}
	if !p.collect(e) {
		return nil
	}
	return p
}

func (p *vecPred) collect(e Expr) bool {
	b, ok := e.(*BinExpr)
	if !ok {
		return false
	}
	if b.Op == sql.OpAnd {
		return p.collect(b.L) && p.collect(b.R)
	}
	if !b.Op.IsComparison() {
		return false
	}
	col, okL := b.L.(*ColExpr)
	rhs, op := b.R, b.Op
	if !okL {
		// constant op column: flip into column form.
		col, okL = b.R.(*ColExpr)
		if !okL {
			return false
		}
		rhs, op = b.L, flipCmp(b.Op)
	}
	switch rhs.(type) {
	case *ConstExpr, *ParamExpr:
	default:
		return false
	}
	p.leaves = append(p.leaves, vecLeaf{col: col.I, op: op, rhs: rhs})
	return true
}

// flipCmp mirrors a comparison across its operands: c < x becomes x > c.
func flipCmp(op sql.BinOp) sql.BinOp {
	switch op {
	case sql.OpLT:
		return sql.OpGT
	case sql.OpGT:
		return sql.OpLT
	case sql.OpLE:
		return sql.OpGE
	case sql.OpGE:
		return sql.OpLE
	}
	return op // EQ, NE are symmetric
}

// resolve evaluates the row-independent right-hand sides into rhsBuf,
// caller scratch reused across batches.
func (p *vecPred) resolve(rhsBuf []types.Value, env *Env) ([]types.Value, error) {
	rhsBuf = rhsBuf[:0]
	for i := range p.leaves {
		v, err := p.leaves[i].rhs.Eval(nil, env)
		if err != nil {
			return rhsBuf, err
		}
		rhsBuf = append(rhsBuf, v)
	}
	return rhsBuf, nil
}

// holds reports whether row satisfies every leaf against the resolved
// right-hand sides.
func (p *vecPred) holds(row types.Row, rhs []types.Value, env *Env) (bool, error) {
	for i := range p.leaves {
		lf := &p.leaves[i]
		if lf.col < 0 || lf.col >= len(row) {
			// Defer to the interpreter for its exact error message.
			_, err := (&ColExpr{I: lf.col}).Eval(row, env)
			return false, err
		}
		l, r := &row[lf.col], &rhs[i]
		if l.K == types.KindNull || r.K == types.KindNull {
			return false, nil // NULL comparison is not true
		}
		var c int
		switch {
		case l.K == types.KindInt && r.K == types.KindInt:
			c = cmpInt(l.Int(), r.Int())
		case l.K == types.KindFloat && r.K == types.KindFloat:
			switch a, b := l.Float(), r.Float(); {
			case a < b:
				c = -1
			case a > b:
				c = 1
			}
		case l.K == types.KindString && r.K == types.KindString:
			c = strings.Compare(l.Str(), r.Str())
		default:
			c = types.Compare(*l, *r)
		}
		if !cmpHolds(lf.op, c) {
			return false, nil
		}
	}
	return true, nil
}

// sel appends the rows satisfying the predicate to out. rhsBuf is caller
// scratch for the resolved right-hand sides (reused across batches).
func (p *vecPred) sel(rows, out []types.Row, rhsBuf []types.Value, env *Env) ([]types.Row, []types.Value, error) {
	rhsBuf, err := p.resolve(rhsBuf, env)
	if err != nil {
		return out, rhsBuf, err
	}
	for _, row := range rows {
		ok, err := p.holds(row, rhsBuf, env)
		if err != nil {
			return out, rhsBuf, err
		}
		if ok {
			out = append(out, row)
		}
	}
	return out, rhsBuf, nil
}
