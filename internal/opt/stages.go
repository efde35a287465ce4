package opt

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"mtcache/internal/exec"
	"mtcache/internal/sql"
	"mtcache/internal/types"
)

// applyStagesLocal builds the post-join pipeline over a local plan:
// aggregation, HAVING, projection, DISTINCT, ORDER BY, TOP. A remote plan —
// the guard-false branch of a pulled-up ChoosePlan — is finished by
// finishRemote instead, and the way that is cheapest once localized is kept.
func (pl *planner) applyStagesLocal(p *plan, stmt *sql.SelectStmt) (*plan, error) {
	if p.loc == Remote {
		cs := &candSet{}
		if err := pl.finishRemote(cs, p, stmt); err != nil {
			return nil, err
		}
		best := cs.local
		if cs.remote != nil {
			if loc := pl.toLocal(cs.remote); best == nil || loc.cost < best.cost {
				best = loc
			}
		}
		return best, nil
	}
	cur := *p

	needAgg := len(stmt.GroupBy) > 0 || anyAggItems(stmt) || containsAgg(stmt.Having)
	items := stmt.Columns
	having := stmt.Having

	// ORDER BY may name a select-item alias; substitute the aliased
	// expression so the key resolves wherever the sort lands.
	orderBy := make([]sql.OrderItem, len(stmt.OrderBy))
	copy(orderBy, stmt.OrderBy)
	for i, o := range orderBy {
		ref, ok := o.Expr.(*sql.ColumnRef)
		if !ok || ref.Table != "" {
			continue
		}
		for _, item := range stmt.Columns {
			if item.Alias != "" && strings.EqualFold(item.Alias, ref.Name) {
				orderBy[i].Expr = sql.CloneExpr(item.Expr)
				break
			}
		}
	}

	if needAgg {
		if q := pl.endpointRead(&cur, stmt); q != nil && q.cost < cur.cost {
			cur = *q
		}
		newPlan, repl, err := pl.buildAgg(&cur, stmt)
		if err != nil {
			return nil, err
		}
		cur = *newPlan
		// Rewrite agg calls / group exprs to agg-output references.
		items = make([]sql.SelectItem, len(stmt.Columns))
		for i, it := range stmt.Columns {
			items[i] = sql.SelectItem{Alias: it.Alias, Expr: replaceExprs(it.Expr, repl)}
		}
		if having != nil {
			having = replaceExprs(having, repl)
		}
		for i, o := range orderBy {
			orderBy[i] = sql.OrderItem{Expr: replaceExprs(o.Expr, repl), Desc: o.Desc}
		}
	}

	if having != nil {
		sc := pl.scope(cur.cols)
		pred, err := compileExpr(having, sc)
		if err != nil {
			return nil, err
		}
		cur.op = &exec.Filter{Input: cur.op, Pred: pred}
		cur.cost += cur.card * costPredEval
		cur.card = math.Max(cur.card*0.4, 1)
	}

	// Projection to the select list.
	preScope := pl.scope(cur.cols)
	var exprs []exec.Expr
	var outCols []exec.ColInfo
	for i, item := range items {
		e, err := compileExpr(item.Expr, preScope)
		if err != nil {
			return nil, err
		}
		exprs = append(exprs, e)
		outCols = append(outCols, exec.ColInfo{
			Name: exprName(stmt.Columns[i], i),
			Kind: exprKind(item.Expr, preScope),
		})
	}

	// Decide whether ORDER BY can run after projection (resolving against
	// output aliases) or must run before it.
	sortAfter := true
	postScope := pl.scope(outCols)
	type sortPair struct {
		e    sql.Expr
		desc bool
	}
	var sorts []sortPair
	for _, o := range orderBy {
		sorts = append(sorts, sortPair{o.Expr, o.Desc})
	}
	for _, s := range sorts {
		if _, err := compileExpr(s.e, postScope); err != nil {
			sortAfter = false
			break
		}
	}

	addSort := func(op exec.Operator, sc *scope) (exec.Operator, error) {
		if len(sorts) == 0 {
			return op, nil
		}
		var keys []exec.SortKey
		for _, s := range sorts {
			e, err := compileExpr(s.e, sc)
			if err != nil {
				return nil, err
			}
			keys = append(keys, exec.SortKey{E: e, Desc: s.desc})
		}
		cur.cost += cur.card * math.Log2(cur.card+2) * costSortFactor
		return &exec.Sort{Input: op, Keys: keys}, nil
	}

	if !sortAfter {
		op, err := addSort(cur.op, preScope)
		if err != nil {
			return nil, err
		}
		cur.op = op
	}
	cur.op = &exec.Project{Input: cur.op, Exprs: exprs, Cols: outCols}
	cur.cols = outCols
	cur.cost += cur.card * costProjectRow * float64(len(exprs))

	if stmt.Distinct {
		cur.op = &exec.Distinct{Input: cur.op}
		cur.cost += cur.card * costAggRow
		cur.card = math.Max(cur.card*0.5, 1)
	}
	// TOP n over an adjacent ORDER BY fuses into a bounded top-N heap
	// instead of a full materializing sort under a Limit.
	fuseTop := stmt.Top != nil && sortAfter && len(sorts) > 0
	if sortAfter && len(sorts) > 0 && !fuseTop {
		op, err := addSort(cur.op, postScope)
		if err != nil {
			return nil, err
		}
		cur.op = op
	}
	if stmt.Top != nil {
		n, err := compileParamOnly(stmt.Top, pl.params)
		if err != nil {
			return nil, err
		}
		if fuseTop {
			var keys []exec.SortKey
			for _, s := range sorts {
				e, err := compileExpr(s.e, postScope)
				if err != nil {
					return nil, err
				}
				keys = append(keys, exec.SortKey{E: e, Desc: s.desc})
			}
			// A heap of min(card, n) entries replaces the full sort.
			heapSize := cur.card
			if lit, ok := stmt.Top.(*sql.Literal); ok {
				heapSize = math.Min(heapSize, float64(lit.Val.Int()))
			}
			cur.cost += cur.card * math.Log2(heapSize+2) * costSortFactor
			cur.op = &exec.TopN{Input: cur.op, Keys: keys, N: n}
		} else {
			cur.op = &exec.Limit{Input: cur.op, N: n}
		}
		if lit, ok := stmt.Top.(*sql.Literal); ok {
			cur.card = math.Min(cur.card, float64(lit.Val.Int()))
		}
	}
	return &cur, nil
}

// buildAgg constructs the HashAgg stage and the rewrite map from aggregate
// calls / group expressions to agg-output column references.
func (pl *planner) buildAgg(p *plan, stmt *sql.SelectStmt) (*plan, map[string]sql.Expr, error) {
	sc := pl.scope(p.cols)
	repl := map[string]sql.Expr{}

	var groupExprs []exec.Expr
	var aggCols []exec.ColInfo
	for i, g := range stmt.GroupBy {
		e, err := compileExpr(g, sc)
		if err != nil {
			return nil, nil, err
		}
		groupExprs = append(groupExprs, e)
		name := fmt.Sprintf("$g%d", i)
		aggCols = append(aggCols, exec.ColInfo{Name: name, Kind: exprKind(g, sc)})
		repl[sql.DeparseExpr(g)] = &sql.ColumnRef{Name: name}
	}

	var specs []exec.AggSpec
	for i, f := range aggCalls(stmt) {
		fn, _ := exec.ParseAggFunc(f.Name, f.Star)
		spec := exec.AggSpec{Func: fn, Distinct: f.Distinct}
		kind := types.KindInt
		if !f.Star {
			if len(f.Args) != 1 {
				return nil, nil, fmt.Errorf("opt: aggregate %s needs one argument", f.Name)
			}
			arg, err := compileExpr(f.Args[0], sc)
			if err != nil {
				return nil, nil, err
			}
			spec.Arg = arg
			kind = exprKind(f, sc)
		}
		specs = append(specs, spec)
		name := fmt.Sprintf("$a%d", i)
		aggCols = append(aggCols, exec.ColInfo{Name: name, Kind: kind})
		repl[sql.DeparseExpr(f)] = &sql.ColumnRef{Name: name}
	}

	agg := &exec.HashAgg{Input: p.op, GroupBy: groupExprs, Aggs: specs, Cols: aggCols}
	groups := pl.estimateGroups(stmt.GroupBy, p.card)
	out := *p
	out.op = agg
	out.cols = aggCols
	out.cost = p.cost + p.card*costAggRow + groups*costAggGroup
	out.card = groups
	return &out, repl, nil
}

func (pl *planner) estimateGroups(groupBy []sql.Expr, card float64) float64 {
	if len(groupBy) == 0 {
		return 1
	}
	d := 1.0
	for _, g := range groupBy {
		if ref, ok := g.(*sql.ColumnRef); ok {
			d *= pl.distinctOf(*ref, card)
		} else {
			d *= math.Sqrt(card)
		}
	}
	return math.Max(1, math.Min(d, card))
}

// finishRemote adds to cs the ways the remote SPJ candidate r answers stmt:
// stmt's stages run locally over r's DataTransfer and, if r spans every
// relation of the block, stmt shipped whole (paper §5: a "completely remote
// plan"), re-projected in place of the local stages when they are a plain
// select list. Shipped, the backend does the stages' work — what
// applyStagesLocal adds over the DataTransfer — at RemoteCostFactor.
func (pl *planner) finishRemote(cs *candSet, r *plan, stmt *sql.SelectStmt) error {
	loc := pl.toLocal(r)
	p, err := pl.applyStagesLocal(loc, stmt)
	if err != nil {
		return err
	}
	if !pl.coversAllAliases(r) {
		cs.add(p)
		return nil
	}
	cost := r.cost + (p.cost-loc.cost)*pl.env.Opts.RemoteCostFactor
	if !hasStages(stmt) && allPlainRefs(stmt) {
		cs.add(pl.reprojectRemote(r, stmt, cost))
		return nil
	}
	cs.add(p)
	cols := pl.finalCols(stmt)
	cs.add(&plan{rem: &remoteParts{full: stmt, cols: cols}, loc: Remote, cols: cols, card: math.Max(p.card, 1), cost: cost})
	return nil
}

// coversAllAliases reports whether a remote fragment spans every relation of
// the current block.
func (pl *planner) coversAllAliases(p *plan) bool {
	if p.rem.full != nil {
		return true
	}
	n := 0
	for from := slices.Clone(p.rem.from); len(from) > 0; from = from[1:] {
		if j, ok := from[0].(*sql.JoinRef); ok {
			from = append(from, j.Left, j.Right) // a LEFT JOIN's two sides
			continue
		}
		n++
	}
	return n == pl.nAliases
}
