package opt

import (
	"strings"

	"mtcache/internal/sql"
	"mtcache/internal/types"
)

// Conjuncts splits a predicate into its top-level AND factors.
func Conjuncts(e sql.Expr) []sql.Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*sql.BinaryExpr); ok && b.Op == sql.OpAnd {
		return append(Conjuncts(b.L), Conjuncts(b.R)...)
	}
	return []sql.Expr{e}
}

// AndAll rebuilds a conjunction; nil for an empty list.
func AndAll(list []sql.Expr) sql.Expr {
	var out sql.Expr
	for _, e := range list {
		if out == nil {
			out = e
		} else {
			out = &sql.BinaryExpr{Op: sql.OpAnd, L: out, R: e}
		}
	}
	return out
}

// columnRefs collects the distinct column references in an expression.
func columnRefs(e sql.Expr) []sql.ColumnRef {
	var out []sql.ColumnRef
	seen := map[string]bool{}
	sql.WalkExpr(e, func(x sql.Expr) bool {
		if c, ok := x.(*sql.ColumnRef); ok {
			k := strings.ToLower(c.Table) + "." + strings.ToLower(c.Name)
			if !seen[k] {
				seen[k] = true
				out = append(out, *c)
			}
		}
		return true
	})
	return out
}

// simplePred is a normalized predicate of the form  col op rhs  where rhs is
// a literal or a parameter operand (@p or -@p: the normalizer leaves the sign
// of a negative literal outside the placeholder). BETWEEN expands into two
// simplePreds; IN becomes an eqSet over literals or inArgs over parameter
// operands (a list mixing the two is not simple).
type simplePred struct {
	col    sql.ColumnRef
	op     sql.BinOp // comparison; OpEQ for the IN forms
	lit    types.Value
	arg    sql.Expr // parameter operand; lit unused when non-nil
	eqSet  []types.Value
	inArgs []sql.Expr
}

func (p simplePred) isParam() bool { return p.arg != nil || p.inArgs != nil }

// args lists the parameter operands of a parameterized predicate: the one
// operand of a comparison, or every element of an IN-list.
func (p simplePred) args() []sql.Expr {
	if p.arg != nil {
		return []sql.Expr{p.arg}
	}
	return p.inArgs
}

// simplePreds extracts as many normalized predicates as possible from a
// conjunct list. Conjuncts that don't normalize (LIKE, OR, expressions)
// are returned in residual; they still execute as filters but cannot help
// prove view containment.
func simplePreds(conjuncts []sql.Expr) (preds []simplePred, residual []sql.Expr) {
	for _, c := range conjuncts {
		ps, ok := asSimplePreds(c)
		if ok {
			preds = append(preds, ps...)
		} else {
			residual = append(residual, c)
		}
	}
	return preds, residual
}

func asSimplePreds(e sql.Expr) ([]simplePred, bool) {
	switch x := e.(type) {
	case *sql.BinaryExpr:
		if !x.Op.IsComparison() {
			return nil, false
		}
		if p, ok := normalizeCmp(x.Op, x.L, x.R); ok {
			return []simplePred{p}, true
		}
		if p, ok := normalizeCmp(x.Op.Flip(), x.R, x.L); ok {
			return []simplePred{p}, true
		}
		return nil, false
	case *sql.BetweenExpr:
		if x.Not {
			return nil, false
		}
		col, ok := x.X.(*sql.ColumnRef)
		if !ok {
			return nil, false
		}
		lo, okLo := normalizeCmp(sql.OpGE, col, x.Lo)
		hi, okHi := normalizeCmp(sql.OpLE, col, x.Hi)
		if !okLo || !okHi {
			return nil, false
		}
		return []simplePred{lo, hi}, true
	case *sql.InExpr:
		if x.Not {
			return nil, false
		}
		col, ok := x.X.(*sql.ColumnRef)
		if !ok {
			return nil, false
		}
		p := simplePred{col: *col, op: sql.OpEQ}
		for _, item := range x.List {
			if lit, ok := item.(*sql.Literal); ok {
				p.eqSet = append(p.eqSet, lit.Val)
			} else if isParamOperand(item) {
				p.inArgs = append(p.inArgs, item)
			} else {
				return nil, false
			}
		}
		if (p.eqSet == nil) == (p.inArgs == nil) {
			return nil, false // empty or mixed list
		}
		return []simplePred{p}, true
	}
	return nil, false
}

func normalizeCmp(op sql.BinOp, l, r sql.Expr) (simplePred, bool) {
	col, ok := l.(*sql.ColumnRef)
	if !ok {
		return simplePred{}, false
	}
	if lit, ok := r.(*sql.Literal); ok {
		return simplePred{col: *col, op: op, lit: lit.Val}, true
	}
	if isParamOperand(r) {
		return simplePred{col: *col, op: op, arg: r}, true
	}
	return simplePred{}, false
}

// isParamOperand reports whether e is @p or -@p.
func isParamOperand(e sql.Expr) bool {
	if neg, ok := e.(*sql.UnaryExpr); ok && neg.Op == sql.OpNeg {
		e = neg.X
	}
	_, ok := e.(*sql.Param)
	return ok
}

// colKey is the case-folded identity of a column reference.
func colKey(c sql.ColumnRef) string {
	return strings.ToLower(c.Table) + "." + strings.ToLower(c.Name)
}

// colNameKey folds just the column name (for unqualified matching inside a
// single-table view definition).
func colNameKey(c sql.ColumnRef) string { return strings.ToLower(c.Name) }

// valueRange is the set of values a column may take under a conjunction of
// constant predicates.
type valueRange struct {
	lo, hi         types.Value // zero Value = unbounded
	loOpen, hiOpen bool
	eq             []types.Value // non-nil: value must be in this set
	empty          bool
}

// rangeFromPreds folds all constant predicates on one column into a range.
// Parameterized predicates are skipped (they don't constrain at plan time).
// intCol says the column's type is INT, which alone licenses rewriting an
// open integer bound to the closed one a step in: over a FLOAT column
// x < 101 admits 100.5, which x <= 100 does not.
func rangeFromPreds(preds []simplePred, intCol bool) valueRange {
	r := valueRange{}
	for _, p := range preds {
		if p.isParam() {
			continue
		}
		if p.eqSet != nil {
			r.intersectEq(p.eqSet)
			continue
		}
		switch p.op {
		case sql.OpEQ:
			r.intersectEq([]types.Value{p.lit})
		case sql.OpLT:
			r.boundHi(p.lit, true, intCol)
		case sql.OpLE:
			r.boundHi(p.lit, false, intCol)
		case sql.OpGT:
			r.boundLo(p.lit, true, intCol)
		case sql.OpGE:
			r.boundLo(p.lit, false, intCol)
		case sql.OpNE:
			// NE doesn't tighten a range usefully; ignore.
		}
	}
	return r
}

func (r *valueRange) boundHi(v types.Value, open, intCol bool) {
	// Integer domains admit exact tightening: x < 1001 ⟺ x <= 1000, which
	// lets the containment prover see through off-by-one bound styles.
	if open && intCol && v.K == types.KindInt {
		v, open = types.NewInt(v.Int()-1), false
	}
	if r.hi.IsNull() || types.Compare(v, r.hi) < 0 || (types.Equal(v, r.hi) && open) {
		r.hi, r.hiOpen = v, open
	}
	r.check()
}

func (r *valueRange) boundLo(v types.Value, open, intCol bool) {
	if open && intCol && v.K == types.KindInt {
		v, open = types.NewInt(v.Int()+1), false
	}
	if r.lo.IsNull() || types.Compare(v, r.lo) > 0 || (types.Equal(v, r.lo) && open) {
		r.lo, r.loOpen = v, open
	}
	r.check()
}

func (r *valueRange) intersectEq(set []types.Value) {
	if r.eq == nil {
		r.eq = append([]types.Value(nil), set...)
	} else {
		var keep []types.Value
		for _, v := range r.eq {
			for _, w := range set {
				if types.Equal(v, w) {
					keep = append(keep, v)
					break
				}
			}
		}
		r.eq = keep
	}
	if len(r.eq) == 0 {
		r.empty = true
	}
	r.check()
}

func (r *valueRange) check() {
	if r.eq != nil {
		var keep []types.Value
		for _, v := range r.eq {
			if r.contains(v) {
				keep = append(keep, v)
			}
		}
		// eq set dominates the range; fold bounds into the set
		r.eq = keep
		if len(r.eq) == 0 {
			r.empty = true
		}
		return
	}
	if !r.lo.IsNull() && !r.hi.IsNull() {
		c := types.Compare(r.lo, r.hi)
		if c > 0 || (c == 0 && (r.loOpen || r.hiOpen)) {
			r.empty = true
		}
	}
}

// points lists the values of a range that admits finitely many: its eq set,
// or the one value of a closed range whose bounds meet. nil otherwise.
func (r *valueRange) points() []types.Value {
	if r.eq != nil {
		return r.eq
	}
	if !r.lo.IsNull() && !r.loOpen && !r.hiOpen && types.Equal(r.lo, r.hi) {
		return []types.Value{r.lo}
	}
	return nil
}

// bound returns the range's least upper bound (dir > 0) or greatest lower
// bound (dir < 0) and whether it is excluded; NULL when the range is
// unbounded on that side (or admits nothing).
func (r *valueRange) bound(dir int) (types.Value, bool) {
	if r.eq == nil {
		if dir > 0 {
			return r.hi, r.hiOpen
		}
		return r.lo, r.loOpen
	}
	var m types.Value
	for _, v := range r.eq {
		if m.IsNull() || types.Compare(v, m)*dir > 0 {
			m = v
		}
	}
	return m, false
}

// contains reports whether value v satisfies the range bounds.
func (r *valueRange) contains(v types.Value) bool {
	if !r.lo.IsNull() {
		c := types.Compare(v, r.lo)
		if c < 0 || (c == 0 && r.loOpen) {
			return false
		}
	}
	if !r.hi.IsNull() {
		c := types.Compare(v, r.hi)
		if c > 0 || (c == 0 && r.hiOpen) {
			return false
		}
	}
	return true
}

// implied reports whether every value permitted by q is permitted by r
// (q ⊆ r): i.e. the query range implies the view predicate's range.
func (r *valueRange) impliedBy(q valueRange) bool {
	if q.empty {
		return true
	}
	if q.eq != nil {
		for _, v := range q.eq {
			if !r.containsEqAware(v) {
				return false
			}
		}
		return true
	}
	if r.eq != nil {
		// r is a finite set but q is a (possibly unbounded) range: only an
		// empty q (handled) or point range can be contained.
		if !q.lo.IsNull() && !q.hi.IsNull() && types.Equal(q.lo, q.hi) && !q.loOpen && !q.hiOpen {
			return r.containsEqAware(q.lo)
		}
		return false
	}
	// range vs range: q's bounds must be inside r's.
	if !r.lo.IsNull() {
		if q.lo.IsNull() {
			return false
		}
		c := types.Compare(q.lo, r.lo)
		if c < 0 || (c == 0 && r.loOpen && !q.loOpen) {
			return false
		}
	}
	if !r.hi.IsNull() {
		if q.hi.IsNull() {
			return false
		}
		c := types.Compare(q.hi, r.hi)
		if c > 0 || (c == 0 && r.hiOpen && !q.hiOpen) {
			return false
		}
	}
	return true
}

func (r *valueRange) containsEqAware(v types.Value) bool {
	if r.eq != nil {
		for _, w := range r.eq {
			if types.Equal(v, w) {
				return true
			}
		}
		return false
	}
	return r.contains(v)
}
