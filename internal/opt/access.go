package opt

import (
	"fmt"
	"sort"
	"strings"

	"mtcache/internal/catalog"
	"mtcache/internal/exec"
	"mtcache/internal/sql"
	"mtcache/internal/types"
)

// planLeaf produces the candidate set for one FROM-clause relation:
//
//   - on a backend server: the best local access path;
//   - on a cache server: the remote access path for the shadow table, plus
//     a local path for every matching cached view (unconditional match), plus
//     a dynamic plan when the match holds only under a parameter guard.
func (pl *planner) planLeaf(ai *aliasInfo) (*candSet, error) {
	cs := &candSet{}
	if ai.derived != nil {
		return pl.planDerivedLeaf(ai)
	}
	t := ai.table
	neededSet := map[string]bool{}
	for _, c := range ai.needed {
		neededSet[c] = true
	}

	loc := pl.env.locationOf(t)
	if loc == Local {
		p, err := pl.localAccess(ai, t, t.Name, identityColMap(t), nil, ai.singleConj)
		if err != nil {
			return nil, err
		}
		if t.Cached {
			p.usedViews = append(p.usedViews, t.Name) // a cached view named in FROM
		}
		cs.add(p)
		// Materialized-view matching applies on the backend too (regular MV
		// rewriting); on a cache server it is the cached-view machinery.
		if err := pl.addViewCandidates(cs, ai, neededSet, nil); err != nil {
			return nil, err
		}
		return cs, nil
	}

	// Remote (shadow) table.
	remote := pl.remoteAccess(ai, t)
	cs.add(remote)
	if err := pl.addViewCandidates(cs, ai, neededSet, remote); err != nil {
		return nil, err
	}
	return cs, nil
}

// addViewCandidates runs view matching over all materialized views and adds
// local / dynamic candidates. remoteAlt is the remote path used as the
// guard-false branch of dynamic plans (nil on a backend server, where the
// alternative branch reads the base table locally).
func (pl *planner) addViewCandidates(cs *candSet, ai *aliasInfo, neededSet map[string]bool, remoteAlt *plan) error {
	t := ai.table
	var guarded []guardedView
	for _, v := range pl.env.Cat.ViewsOver(t.Name) {
		if pl.env.IsCache && !v.Cached {
			continue // shadowed backend MV definitions hold no local data
		}
		if pl.env.Cat.Seeding(v.Name) {
			continue // registered, its initial contents not committed yet
		}
		m := MatchView(v, t, ai.singleConj, neededSet, pl.env.Opts.EnableDynamicPlans)
		if m == nil {
			continue
		}
		local, err := pl.localAccess(ai, v, v.Name, m.ColMap, t, m.Residual)
		if err != nil {
			return err
		}
		local.usedViews = append(local.usedViews, v.Name)
		if m.Guard == nil {
			cs.add(local)
			continue
		}
		// Guarded match → a branch of the dynamic plan (paper §5.1).
		fl := EstimateGuardFrequency(m.GuardTerms, t.Stats.Load())
		guarded = append(guarded, guardedView{local: local, dyn: &dynInfo{guardAST: m.Guard, fl: fl}})

		// Mixed-result plan (§5.1.1): allowed for regular materialized views
		// only — never for cached views, whose rows may be stale — and only
		// when the view's rows are filtered the same on both sides of the guard.
		if pl.env.Opts.AllowMixedResults && !v.Cached && !pl.env.IsCache && !m.ResidualNeedsGuard {
			if mixed := pl.mixedResultPlan(ai, local, m, fl); mixed != nil {
				cs.add(mixed)
			}
		}
	}
	if len(guarded) == 0 {
		return nil
	}

	// One statement shape has one plan, so every guarded view must get its
	// turn at run time: ChoosePlan(g1, view1, ChoosePlan(g2, view2, … alt)),
	// cheapest view first, as a literal statement would have picked the
	// cheapest view that contains it.
	alt := remoteAlt
	if alt == nil {
		var err error
		if alt, err = pl.localAccess(ai, t, t.Name, identityColMap(t), nil, ai.singleConj); err != nil {
			return err
		}
	}
	sort.SliceStable(guarded, func(i, j int) bool { return guarded[i].local.cost < guarded[j].local.cost })
	for i := len(guarded) - 1; i >= 0; i-- {
		// The dynamic plan keeps local's leaf descriptor: once a join pulls the
		// ChoosePlan above itself, the guard-true branch is the bare view access
		// again and may be sought into.
		alt = dynPlan(guarded[i].local, alt, alt.cost, guarded[i].dyn)
	}
	if !pl.env.Opts.PullUpChoosePlan {
		var err error
		if alt, err = pl.materialize(alt); err != nil {
			return err
		}
	}
	cs.add(alt)
	return nil
}

// guardedView is a view that can stand in for a relation while its guard
// holds: the local access through it and the guard.
type guardedView struct {
	local *plan
	dyn   *dynInfo
}

// mixedResultPlan builds UnionAll(viewPart, StartupFilter(NOT guard,
// remainderPart)) where the remainder fetches only rows outside the view
// (figure 3 in the paper).
func (pl *planner) mixedResultPlan(ai *aliasInfo, viewPart *plan, m *ViewMatch, fl float64) *plan {
	t := ai.table
	// The remainder reads the base table with the original predicates AND
	// NOT(view predicate). Single-conjunct view predicates negate into a
	// sargable comparison (cid <= 1000 → cid > 1000) so the remainder can
	// use an index; anything else falls back to a NOT filter.
	notViewPred := negatePred(m.View.SelectProject.Filter)
	qualifyToAlias(notViewPred, ai.alias)
	conj := append(append([]sql.Expr{}, ai.singleConj...), notViewPred)
	remainder, err := pl.localAccess(ai, t, t.Name, identityColMap(t), nil, conj)
	if err != nil {
		return nil
	}
	guard, err := compileParamOnly(m.Guard)
	if err != nil {
		return nil
	}
	op := &exec.UnionAll{Inputs: []exec.Operator{
		viewPart.op,
		&exec.StartupFilter{Guard: guard, Else: true, Input: remainder.op},
	}}
	return &plan{
		op:        op,
		loc:       Local,
		cols:      viewPart.cols,
		card:      viewPart.card + (1-fl)*remainder.card,
		cost:      viewPart.cost + (1-fl)*remainder.cost,
		usedViews: append([]string{}, viewPart.usedViews...),
	}
}

// negatePred returns the logical negation of e, using a sargable comparison
// when e is a single comparison.
func negatePred(e sql.Expr) sql.Expr {
	if be, ok := e.(*sql.BinaryExpr); ok && be.Op.IsComparison() {
		return &sql.BinaryExpr{Op: be.Op.Negate(), L: sql.CloneExpr(be.L), R: sql.CloneExpr(be.R)}
	}
	return &sql.UnaryExpr{Op: sql.OpNot, X: sql.CloneExpr(e)}
}

// qualifyToAlias rewrites unqualified column refs to the given alias.
func qualifyToAlias(e sql.Expr, alias string) {
	sql.WalkExpr(e, func(x sql.Expr) bool {
		if ref, ok := x.(*sql.ColumnRef); ok && ref.Table == "" {
			ref.Table = alias
		}
		return true
	})
}

func identityColMap(t *catalog.Table) map[string]int {
	m := make(map[string]int, len(t.Columns))
	for i, c := range t.Columns {
		m[strings.ToLower(c.Name)] = i
	}
	return m
}

// localAccess plans a local read of storageTable (a base table, cached view
// or materialized view standing in for ai's base table). colMap maps base
// column names to the storage table's ordinals. baseTable is non-nil when
// reading through a view, for statistics.
func (pl *planner) localAccess(ai *aliasInfo, storageTable *catalog.Table, storageName string, colMap map[string]int, baseTable *catalog.Table, conj []sql.Expr) (*plan, error) {
	simple, _ := simplePreds(conj)
	// Scan schema follows the storage table's physical column order, exposed
	// under the query alias with *base* column names.
	reverse := make(map[int]string, len(colMap))
	for base, ord := range colMap {
		reverse[ord] = base
	}
	scanCols := make([]exec.ColInfo, len(storageTable.Columns))
	for i, c := range storageTable.Columns {
		name := reverse[i]
		if name == "" {
			name = strings.ToLower(c.Name)
		}
		scanCols[i] = exec.ColInfo{Table: ai.alias, Name: name, Kind: c.Type}
	}
	sc := &scope{cols: scanCols}

	stats := storageTable.Stats.Load()
	baseStats := stats
	if baseTable != nil {
		baseStats = baseTable.Stats.Load()
	}

	// Choose access path: best index vs full scan.
	bestOp, bestCost, bestCard := pl.scanPath(storageTable, storageName, scanCols, sc, baseStats, conj)
	if idxOp, idxCost, idxCard, ok := pl.indexPath(storageTable, storageName, scanCols, sc, baseStats, conj, simple); ok && idxCost < bestCost {
		bestOp, bestCost, bestCard = idxOp, idxCost, idxCard
	}

	// Project to the needed columns in canonical order.
	op, cols, proj, err := projectNeeded(bestOp, ai, colMap, storageTable)
	if err != nil {
		return nil, err
	}
	p := &plan{op: op, loc: Local, cols: cols, card: bestCard, cost: bestCost + bestCard*costProjectRow}
	if !storageTable.Virtual {
		// Virtual tables have no storage and therefore nothing to seek.
		p.leaf = &leafAccess{op: op, table: storageTable, scanCols: scanCols, proj: proj, conj: conj}
	}
	return p, nil
}

func projectNeeded(input exec.Operator, ai *aliasInfo, colMap map[string]int, storageTable *catalog.Table) (exec.Operator, []exec.ColInfo, []int, error) {
	var exprs []exec.Expr
	var cols []exec.ColInfo
	var proj []int
	for _, base := range ai.needed {
		ord, ok := colMap[base]
		if !ok {
			return nil, nil, nil, fmt.Errorf("opt: column %s not available in %s", base, storageTable.Name)
		}
		exprs = append(exprs, &exec.ColExpr{I: ord})
		cols = append(cols, exec.ColInfo{Table: ai.alias, Name: base, Kind: storageTable.Columns[ord].Type})
		proj = append(proj, ord)
	}
	return &exec.Project{Input: input, Exprs: exprs, Cols: cols}, cols, proj, nil
}

// scanPath is a full scan plus residual filter.
func (pl *planner) scanPath(t *catalog.Table, storageName string, scanCols []exec.ColInfo, sc *scope, stats *catalog.TableStats, conj []sql.Expr) (exec.Operator, float64, float64) {
	rows := float64(t.Stats.Load().RowCount)
	if rows < 1 {
		rows = 1
	}
	var op exec.Operator = &exec.Scan{TableName: storageName, Cols: scanCols}
	if t.Virtual {
		// Virtual system tables have no storage: scan the provider directly.
		op = &exec.VirtualScan{Name: storageName, Rows: t.RowsFn, Cols: scanCols}
	}
	cost := rows * costScanRow
	card := rows
	if pred := AndAll(conj); pred != nil {
		compiled, err := compileExpr(pred, sc)
		if err == nil {
			op = &exec.Filter{Input: op, Pred: compiled}
			cost += rows * costPredEval * float64(len(conj))
			card = rows * pl.selectivity(stats, conj)
		}
	}
	if card < 1 {
		card = 1
	}
	return op, cost, card
}

// indexPath finds the best index-driven access: the index whose key prefix
// is covered by sargable predicates with the lowest estimated rows.
func (pl *planner) indexPath(t *catalog.Table, storageName string, scanCols []exec.ColInfo, sc *scope, stats *catalog.TableStats, conj []sql.Expr, simple []simplePred) (exec.Operator, float64, float64, bool) {
	type boundSpec struct {
		lo, hi   []sql.Expr
		matchSel float64
	}
	var bestIdx *catalog.Index
	var bestBound boundSpec
	bestSel := 1.1

	for _, idx := range allIndexes(t) {
		lo, hi, sel, usable := pl.indexBounds(idx, t, scanCols, simple, stats)
		if !usable {
			continue
		}
		if sel < bestSel {
			bestSel = sel
			bestIdx = idx
			bestBound = boundSpec{lo: lo, hi: hi, matchSel: sel}
		}
	}
	if bestIdx == nil {
		return nil, 0, 0, false
	}
	rows := float64(t.Stats.Load().RowCount)
	if rows < 1 {
		rows = 1
	}
	matched := rows * bestBound.matchSel
	if matched < 1 {
		matched = 1
	}
	loE, err1 := compileBound(bestBound.lo)
	hiE, err2 := compileBound(bestBound.hi)
	if err1 != nil || err2 != nil {
		return nil, 0, 0, false
	}
	var op exec.Operator = &exec.IndexScan{
		TableName: storageName, IndexName: bestIdx.Name, Cols: scanCols, Lo: loE, Hi: hiE,
		EstRows: matched,
	}
	cost := costSeekBase + matched*costSeekRow
	card := matched
	if pred := AndAll(conj); pred != nil {
		compiled, err := compileExpr(pred, sc)
		if err != nil {
			return nil, 0, 0, false
		}
		op = &exec.Filter{Input: op, Pred: compiled}
		cost += matched * costPredEval * float64(len(conj))
		card = rows * pl.selectivity(stats, conj)
		if card > matched {
			card = matched
		}
	}
	if card < 1 {
		card = 1
	}
	return op, cost, card, true
}

// allIndexes lists a table's secondary indexes plus its primary-key index.
func allIndexes(t *catalog.Table) []*catalog.Index {
	indexes := append([]*catalog.Index{}, t.Indexes...)
	if len(t.PrimaryKey) > 0 {
		indexes = append(indexes, &catalog.Index{Name: "__pk", Table: t.Name, Columns: t.PrimaryKey, Unique: true})
	}
	return indexes
}

// indexBounds computes seek bounds for an index from the sargable predicates:
// an equality per leading column, optionally one range on the next column.
func (pl *planner) indexBounds(idx *catalog.Index, t *catalog.Table, scanCols []exec.ColInfo, preds []simplePred, stats *catalog.TableStats) (lo, hi []sql.Expr, sel float64, usable bool) {
	sel = 1.0
	for _, ord := range idx.Columns {
		colName := strings.ToLower(scanCols[ord].Name)
		var eq *simplePred
		var rlo, rhi *simplePred
		for i := range preds {
			p := &preds[i]
			if colNameKey(p.col) != colName {
				continue
			}
			switch {
			case p.op == sql.OpEQ && p.eqSet == nil && p.inArgs == nil:
				eq = p
			case p.op == sql.OpGE || p.op == sql.OpGT:
				rlo = p
			case p.op == sql.OpLE || p.op == sql.OpLT:
				rhi = p
			}
		}
		if eq != nil {
			e := predValueExpr(eq)
			lo = append(lo, e)
			hi = append(hi, e)
			sel *= pl.eqSelectivity(stats, colName, eq)
			continue
		}
		if rlo != nil || rhi != nil {
			if rlo != nil {
				lo = append(lo, predValueExpr(rlo))
			}
			if rhi != nil {
				hi = append(hi, predValueExpr(rhi))
			}
			sel *= pl.rangeSelectivity(stats, colName, rlo, rhi)
		}
		break // only the first non-equality column can bound the seek
	}
	if len(lo) == 0 && len(hi) == 0 {
		return nil, nil, 1, false
	}
	return lo, hi, sel, true
}

func predValueExpr(p *simplePred) sql.Expr {
	if p.isParam() {
		return p.arg
	}
	return &sql.Literal{Val: p.lit}
}

func compileBound(bound []sql.Expr) ([]exec.Expr, error) {
	if bound == nil {
		return nil, nil
	}
	out := make([]exec.Expr, len(bound))
	for i, e := range bound {
		c, err := compileParamOnly(e)
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

func (pl *planner) eqSelectivity(stats *catalog.TableStats, col string, p *simplePred) float64 {
	cs := stats.Col(col)
	if p.isParam() {
		if cs != nil && cs.Distinct > 0 {
			return 1 / float64(cs.Distinct)
		}
		return 0.05
	}
	if cs != nil {
		return cs.SelectivityEq(p.lit)
	}
	return 0.05
}

func (pl *planner) rangeSelectivity(stats *catalog.TableStats, col string, rlo, rhi *simplePred) float64 {
	cs := stats.Col(col)
	if cs == nil {
		return 0.3
	}
	var lo, hi types.Value
	loOpen, hiOpen := false, false
	paramSide := false
	if rlo != nil {
		if rlo.isParam() {
			paramSide = true
		} else {
			lo, loOpen = rlo.lit, rlo.op == sql.OpGT
		}
	}
	if rhi != nil {
		if rhi.isParam() {
			paramSide = true
		} else {
			hi, hiOpen = rhi.lit, rhi.op == sql.OpLT
		}
	}
	sel := cs.SelectivityRange(lo, hi, loOpen, hiOpen)
	if paramSide {
		sel *= 0.4 // a parameterized bound narrows the range by an assumed factor
		if sel <= 0 {
			sel = 0.1
		}
	}
	return sel
}

// selectivity estimates the combined selectivity of a conjunct list against
// one table.
func (pl *planner) selectivity(stats *catalog.TableStats, conjuncts []sql.Expr) float64 {
	preds, residual := simplePreds(conjuncts)
	byCol := groupByCol(preds)
	sel := 1.0
	for col, ps := range byCol {
		// An estimate: tightening an INT literal's open bound as if the column
		// were INT moves it by at most one value's width.
		r := rangeFromPreds(ps, true)
		cs := stats.Col(col)
		colSel := 1.0
		switch {
		case r.empty:
			return 0.0001
		case r.eq != nil:
			colSel = 0
			for _, v := range r.eq {
				if cs != nil {
					colSel += cs.SelectivityEq(v)
				} else {
					colSel += 0.05
				}
			}
		case !r.lo.IsNull() || !r.hi.IsNull():
			if cs != nil {
				colSel = cs.SelectivityRange(r.lo, r.hi, r.loOpen, r.hiOpen)
			} else {
				colSel = 0.3
			}
		}
		// Parameterized predicates on this column add further narrowing.
		for _, p := range ps {
			if !p.isParam() {
				continue
			}
			if p.op == sql.OpEQ {
				n := float64(max(1, len(p.inArgs))) // an IN-list is an equality per element
				if cs != nil && cs.Distinct > 0 {
					colSel *= n / float64(cs.Distinct)
				} else {
					colSel *= n * 0.05
				}
			} else {
				colSel *= 0.4
			}
		}
		if colSel > 1 {
			colSel = 1
		}
		sel *= colSel
	}
	sel *= defaultResidualSel(residual)
	if sel < 1e-7 {
		sel = 1e-7
	}
	return sel
}

func defaultResidualSel(residual []sql.Expr) float64 {
	sel := 1.0
	for _, e := range residual {
		switch e.(type) {
		case *sql.LikeExpr:
			sel *= 0.12
		case *sql.IsNullExpr:
			sel *= 0.1
		default:
			sel *= 0.33
		}
	}
	return sel
}

// remoteAccess plans fetching this relation from the backend: the optimizer
// costs the backend's best access path using the shadowed statistics and
// indexes (the paper's "local optimization" alternative, §5), scaled by the
// remote-cost factor.
func (pl *planner) remoteAccess(ai *aliasInfo, t *catalog.Table) *plan {
	// Estimate the backend's execution cost with the shadow catalog.
	rows := float64(t.Stats.Load().RowCount)
	if rows < 1 {
		rows = 1
	}
	scanCost := rows * costScanRow
	card := rows * pl.selectivity(t.Stats.Load(), ai.singleConj)
	if card < 1 {
		card = 1
	}
	cost := scanCost + rows*costPredEval*float64(len(ai.singleConj))
	// Backend indexes (shadowed) reduce the cost.
	scanCols := make([]exec.ColInfo, len(t.Columns))
	for i, c := range t.Columns {
		scanCols[i] = exec.ColInfo{Table: ai.alias, Name: strings.ToLower(c.Name), Kind: c.Type}
	}
	sc := &scope{cols: scanCols}
	if _, idxCost, idxCard, ok := pl.indexPath(t, t.Name, scanCols, sc, t.Stats.Load(), ai.singleConj, ai.simple); ok && idxCost < cost {
		cost = idxCost
		card = idxCard
	}
	cost *= pl.env.Opts.RemoteCostFactor

	cols := make([]exec.ColInfo, 0, len(ai.needed))
	for _, base := range ai.needed {
		ord := t.ColumnIndex(base)
		kind := types.KindString
		if ord >= 0 {
			kind = t.Columns[ord].Type
		}
		cols = append(cols, exec.ColInfo{Table: ai.alias, Name: base, Kind: kind})
	}
	rem := &remoteParts{
		from:  []sql.TableRef{&sql.TableName{Name: t.Name, Alias: ai.alias}},
		where: append([]sql.Expr{}, ai.singleConj...),
		cols:  cols,
	}
	return &plan{
		rem: rem, loc: Remote, cols: cols, card: card, cost: cost,
		leaf: &leafAccess{rem: rem, table: t, scanCols: scanCols, conj: ai.singleConj},
	}
}

// planDerivedLeaf adapts a derived table's candidate set to leaf shape.
func (pl *planner) planDerivedLeaf(ai *aliasInfo) (*candSet, error) {
	if ai.derivedSet == nil {
		if _, err := pl.derivedCols(ai); err != nil {
			return nil, err
		}
	}
	out := &candSet{}
	relabel := func(p *plan) *plan {
		cols := make([]exec.ColInfo, len(p.cols))
		for i, c := range p.cols {
			cols[i] = exec.ColInfo{Table: ai.alias, Name: strings.ToLower(c.Name), Kind: c.Kind}
		}
		q := *p
		q.cols = cols
		return &q
	}
	if ai.derivedSet.local != nil {
		out.add(relabel(ai.derivedSet.local))
	}
	if ai.derivedSet.remote != nil {
		rp := relabel(ai.derivedSet.remote)
		// Wrap the derived AST so it can participate in remote merges.
		sub := rp.rem.toAST()
		rp.rem = &remoteParts{
			from: []sql.TableRef{&sql.SubqueryRef{Select: sub, Alias: ai.alias}},
			cols: rp.cols,
		}
		out.add(rp)
	}
	// Apply the outer query's single-table predicates on the derived output.
	if len(ai.singleConj) > 0 {
		if out.local != nil {
			sc := &scope{cols: out.local.cols}
			pred, err := compileExpr(AndAll(ai.singleConj), sc)
			if err != nil {
				return nil, err
			}
			p := *out.local
			p.op = &exec.Filter{Input: p.op, Pred: pred}
			p.cost += p.card * costPredEval
			p.card = p.card * 0.33
			if p.card < 1 {
				p.card = 1
			}
			out.local = &p
		}
		if out.remote != nil {
			p := *out.remote
			parts := *p.rem
			parts.where = append(append([]sql.Expr{}, parts.where...), ai.singleConj...)
			p.rem = &parts
			p.card = p.card * 0.33
			if p.card < 1 {
				p.card = 1
			}
			out.remote = &p
		}
	}
	return out, nil
}
