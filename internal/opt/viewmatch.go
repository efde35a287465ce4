package opt

import (
	"strings"

	"mtcache/internal/catalog"
	"mtcache/internal/sql"
	"mtcache/internal/types"
)

// ViewMatch is a successful substitution of a view for a base-table
// reference.
type ViewMatch struct {
	View *catalog.Table

	// ColMap maps base-table column names (lower-cased) to view output
	// ordinals.
	ColMap map[string]int

	// Guard is nil for an unconditional match. Otherwise it is a predicate
	// over parameters only; the view contains all required rows exactly when
	// the guard is true, and the optimizer builds a ChoosePlan (paper §5.1).
	Guard sql.Expr

	// GuardTerms describe the guard for selectivity (Fl) estimation.
	GuardTerms []GuardTerm

	// Residual holds the query conjuncts that must still be evaluated on
	// the view's rows. Conjuncts the view definition already implies are
	// dropped — so their columns need not be in the view's projection.
	Residual []sql.Expr

	// ResidualNeedsGuard marks that some conjunct left Residual only because
	// the guard implies it: the view's rows answer the query while the guard
	// holds and mean nothing once it fails, so no plan may read them on the
	// guard-false side (the mixed-result plan does).
	ResidualNeedsGuard bool
}

// GuardTerm describes one conjunct of a guard for selectivity estimation: a
// parameter operand compared by Op with Bound (or tested against EqSet),
// derived from view predicate bounds on column Col.
type GuardTerm struct {
	Op    sql.BinOp
	Bound types.Value
	EqSet []types.Value
	Col   string // underlying base-table column, for statistics
}

// MatchView tests whether view can substitute for a reference to base given
// the query's single-table conjuncts and the set of downstream-needed columns
// (lower-cased names). dynamicOK enables guarded (parameterized) matches.
//
// The test follows the select-project case of the Goldstein–Larson
// view-matching conditions: (1) the view is a select-project over the same
// table (its catalog.SelectProject says so), (2) the
// query predicate implies the view predicate (possibly conditionally on
// parameter values — the guard), (3) query conjuncts the view definition
// already implies are dropped from the residual, and (4) every needed
// column — downstream needs plus residual-conjunct columns — is in the
// view's projection.
//
// A guarded match accepts every statement the literal match accepts once the
// statement's literals are replaced by parameters bound to the same values
// (the engine plans each ad-hoc shape once, in that form): wherever the
// literal prover compares a constant with a view bound, the guard makes the
// same comparison on the parameter at run time. The converse does not hold —
// see DESIGN.md §13 for the shapes left conservative.
func MatchView(view, base *catalog.Table, conjuncts []sql.Expr, needed map[string]bool, dynamicOK bool) *ViewMatch {
	sp := view.SelectProject
	if sp == nil || !strings.EqualFold(sp.Source.Name, base.Name) {
		return nil
	}

	// Projection map: base column name -> view ordinal.
	colMap := make(map[string]int, len(sp.Ords))
	for i, ord := range sp.Ords {
		colMap[strings.ToLower(sp.Source.Columns[ord].Name)] = i
	}

	// View predicate must be fully understood.
	viewPreds, viewResidual := simplePreds(Conjuncts(sp.Filter))
	if len(viewResidual) > 0 {
		return nil
	}
	queryPreds, _ := simplePreds(conjuncts)
	byColQuery := groupByCol(queryPreds)
	intCol := func(col string) bool {
		c := base.Column(col)
		return c != nil && c.Type == types.KindInt
	}

	// Containment check per view-predicate column.
	var guard guardBuilder
	viewRanges := make(map[string]valueRange)
	for col, vPreds := range groupByCol(viewPreds) {
		vRange := rangeFromPreds(vPreds, intCol(col))
		viewRanges[col] = vRange
		qPreds := byColQuery[col]
		qRange := rangeFromPreds(qPreds, intCol(col))
		if vRange.impliedBy(qRange) {
			continue
		}
		if !dynamicOK || !guard.containment(col, intCol(col), vRange, qRange, qPreds) {
			return nil
		}
	}

	// Residual: drop conjuncts the view definition implies (redundancy
	// elimination). A conjunct is redundant when, for every simple predicate
	// it contributes, the view's range on that column is contained in the
	// predicate's range. For a parameterized predicate that is a run-time
	// condition: it joins the guard, but only when the view does not project
	// the column — otherwise filtering the view's rows costs less than a
	// guard that fails more often.
	var residual []sql.Expr
	needsGuard := false
	for _, c := range conjuncts {
		ps, _ := asSimplePreds(c)
		var byGuard guardBuilder
		redundant := len(ps) > 0
		for _, p := range ps {
			col := colNameKey(p.col)
			vRange, isViewCol := viewRanges[col]
			_, projected := colMap[col]
			switch {
			case !isViewCol || p.op == sql.OpNE:
				// OpNE folds to an unbounded range, which would read as implied.
				redundant = false
			case !p.isParam():
				pRange := rangeFromPreds([]simplePred{p}, intCol(col))
				redundant = pRange.impliedBy(vRange)
			default:
				redundant = dynamicOK && !projected && byGuard.redundancy(col, p, vRange)
			}
			if !redundant {
				break
			}
		}
		if !redundant {
			residual = append(residual, c)
			continue
		}
		if len(byGuard.exprs) > 0 {
			needsGuard = true
			guard.merge(byGuard)
		}
	}

	// Column availability: downstream needs plus residual columns.
	for col := range needed {
		if _, ok := colMap[col]; !ok {
			return nil
		}
	}
	for _, c := range residual {
		for _, ref := range columnRefs(c) {
			if _, ok := colMap[colNameKey(ref)]; !ok {
				return nil
			}
		}
	}

	return &ViewMatch{
		View: view, ColMap: colMap, Residual: residual, ResidualNeedsGuard: needsGuard,
		Guard: AndAll(guard.exprs), GuardTerms: guard.terms,
	}
}

func groupByCol(preds []simplePred) map[string][]simplePred {
	out := make(map[string][]simplePred)
	for _, p := range preds {
		k := colNameKey(p.col)
		out[k] = append(out[k], p)
	}
	return out
}

// guardBuilder accumulates the conjuncts of a guard, each  arg op bound  or
// arg IN (set)  over one parameter operand, with the GuardTerm describing it.
type guardBuilder struct {
	exprs []sql.Expr
	terms []GuardTerm
}

func (g *guardBuilder) add(e sql.Expr, t GuardTerm) {
	// The containment and the redundancy of one predicate can ask for the
	// same condition (x = @p against a view pinning x to 7: @p IN (7) both
	// times); said twice it would square the term's share of Fl.
	text := sql.DeparseExpr(e)
	for _, have := range g.exprs {
		if sql.DeparseExpr(have) == text {
			return
		}
	}
	g.exprs = append(g.exprs, e)
	g.terms = append(g.terms, t)
}

func (g *guardBuilder) merge(o guardBuilder) {
	for i, e := range o.exprs {
		g.add(e, o.terms[i])
	}
}

func (g *guardBuilder) cmp(col string, arg sql.Expr, op sql.BinOp, bound types.Value) {
	g.add(&sql.BinaryExpr{Op: op, L: arg, R: &sql.Literal{Val: bound}},
		GuardTerm{Op: op, Bound: bound, Col: col})
}

func (g *guardBuilder) in(col string, arg sql.Expr, set []types.Value) {
	list := make([]sql.Expr, len(set))
	for i, v := range set {
		list[i] = &sql.Literal{Val: v}
	}
	g.add(&sql.InExpr{X: arg, List: list},
		GuardTerm{Op: sql.OpEQ, EqSet: set, Col: col})
}

// containment adds the parameter conditions under which the query predicates
// on one column imply the view's range on that column. It returns false when
// no sound guard exists. An IN-list of parameters is an equality per
// element: every element must land inside the view's range.
func (g *guardBuilder) containment(col string, intCol bool, vRange, qRange valueRange, qPreds []simplePred) bool {
	paramOf := func(ops ...sql.BinOp) *simplePred {
		for i := range qPreds {
			p := &qPreds[i]
			if !p.isParam() {
				continue
			}
			for _, op := range ops {
				if p.op == op {
					return p
				}
			}
		}
		return nil
	}

	// Finite-set view predicate: only @p = ... can be guarded into it.
	if vRange.eq != nil {
		p := paramOf(sql.OpEQ)
		if p == nil {
			return false
		}
		for _, arg := range p.args() {
			g.in(col, arg, vRange.eq)
		}
		return true
	}

	// Upper bound of the view range.
	if !vRange.hi.IsNull() && !qRange.hiSatisfies(vRange.hi, vRange.hiOpen) {
		p := paramOf(sql.OpEQ, sql.OpLE, sql.OpLT)
		if p == nil {
			return false
		}
		// Query pred: X <= @p (or X = @p, X < @p). Containment requires
		// @p within the view's upper bound. X < @p is safe with @p <= hi
		// as well because X < @p <= hi — and over an INT column with
		// @p <= hi+1, the bound the literal prover tightens x < hi+1 to.
		op, bound := sql.OpLE, vRange.hi
		switch {
		case p.op != sql.OpLT:
			if vRange.hiOpen {
				op = sql.OpLT
			}
		case intCol && !vRange.hiOpen && bound.K == types.KindInt:
			bound = types.NewInt(bound.Int() + 1)
		}
		for _, arg := range p.args() {
			g.cmp(col, arg, op, bound)
		}
	}
	// Lower bound of the view range.
	if !vRange.lo.IsNull() && !qRange.loSatisfies(vRange.lo, vRange.loOpen) {
		p := paramOf(sql.OpEQ, sql.OpGE, sql.OpGT)
		if p == nil {
			return false
		}
		op, bound := sql.OpGE, vRange.lo
		switch {
		case p.op != sql.OpGT:
			if vRange.loOpen {
				op = sql.OpGT
			}
		case intCol && !vRange.loOpen && bound.K == types.KindInt:
			bound = types.NewInt(bound.Int() - 1)
		}
		for _, arg := range p.args() {
			g.cmp(col, arg, op, bound)
		}
	}
	return true
}

// redundancy adds the parameter conditions under which every value the view
// admits on p's column satisfies p, so the view's rows need not be filtered
// by p. It returns false when there is no such condition. It is the run-time
// form of the literal test  vRange ⊆ range(p).
func (g *guardBuilder) redundancy(col string, p simplePred, vRange valueRange) bool {
	switch p.op {
	case sql.OpEQ:
		// The view must admit finitely many values, each of them listed.
		points := vRange.points()
		if points == nil {
			return false
		}
		if p.arg != nil {
			if len(points) != 1 {
				return false
			}
			g.in(col, p.arg, points)
			return true
		}
		for _, v := range points {
			g.add(&sql.InExpr{X: &sql.Literal{Val: v}, List: p.inArgs},
				GuardTerm{Op: sql.OpEQ, Bound: v, Col: col})
		}
	case sql.OpLE, sql.OpLT, sql.OpGE, sql.OpGT:
		// col <= @p holds on every row when @p is at or above everything the
		// view admits; strictly above for col < @p, unless the view's own
		// bound is already excluded. The lower side mirrors.
		dir, op, strict := 1, sql.OpGE, sql.OpGT
		if p.op == sql.OpGE || p.op == sql.OpGT {
			dir, op, strict = -1, sql.OpLE, sql.OpLT
		}
		bound, open := vRange.bound(dir)
		if bound.IsNull() {
			return false
		}
		if (p.op == sql.OpLT || p.op == sql.OpGT) && !open {
			op = strict
		}
		g.cmp(col, p.arg, op, bound)
	default:
		return false
	}
	return true
}

// hiSatisfies reports whether this (query) range's upper side already stays
// within bound.
func (r *valueRange) hiSatisfies(bound types.Value, open bool) bool {
	probe := valueRange{hi: bound, hiOpen: open}
	return probe.impliedBy(*r)
}

// loSatisfies is the mirror of hiSatisfies.
func (r *valueRange) loSatisfies(bound types.Value, open bool) bool {
	probe := valueRange{lo: bound, loOpen: open}
	return probe.impliedBy(*r)
}

// EstimateGuardFrequency estimates Fl — the probability that the guard is
// true at run time. Per the paper (§5.1), the parameter is assumed uniformly
// distributed between the min and max of the guarded column, for lack of a
// parameter-value distribution.
func EstimateGuardFrequency(terms []GuardTerm, stats *catalog.TableStats) float64 {
	f := 1.0
	for _, t := range terms {
		cs := stats.Col(t.Col)
		var p float64
		switch {
		case t.EqSet != nil:
			p = 0
			for _, v := range t.EqSet {
				p += cs.SelectivityEq(v)
			}
			if p > 1 {
				p = 1
			}
		case t.Op == sql.OpLE || t.Op == sql.OpLT:
			p = cs.FractionLE(t.Bound)
		case t.Op == sql.OpGE || t.Op == sql.OpGT:
			p = 1 - cs.FractionLE(t.Bound)
		case t.Op == sql.OpEQ:
			p = cs.SelectivityEq(t.Bound)
		default:
			p = 0.5
		}
		f *= p
	}
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	return f
}
