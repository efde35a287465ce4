package opt

import (
	"strings"

	"mtcache/internal/exec"
	"mtcache/internal/sql"
)

// aggCalls lists the distinct aggregate calls of a block's select list,
// HAVING and ORDER BY, in first-seen order.
func aggCalls(stmt *sql.SelectStmt) []*sql.FuncCall {
	var calls []*sql.FuncCall
	seen := map[string]bool{}
	collect := func(e sql.Expr) {
		sql.WalkExpr(e, func(x sql.Expr) bool {
			if f, ok := x.(*sql.FuncCall); ok {
				if _, isAgg := exec.ParseAggFunc(f.Name, f.Star); isAgg {
					key := sql.DeparseExpr(f)
					if !seen[key] {
						seen[key] = true
						calls = append(calls, f)
					}
					return false
				}
			}
			return true
		})
	}
	for _, it := range stmt.Columns {
		collect(it.Expr)
	}
	collect(stmt.Having)
	for _, o := range stmt.OrderBy {
		collect(o.Expr)
	}
	return calls
}

// endpointRead is the index-endpoint alternative to p as the input of a
// block's aggregation, nil when there is none. It exists when the block
// computes one global MIN or MAX of a column, p is the bare local access to
// one stored table, some index of that table leads with the column, and every
// conjunct on the table is an inclusive bound on that same column (=, >=, <=,
// BETWEEN, at most one per side), so that the index range [lo, hi] holds
// exactly the qualifying rows. The smallest and the largest non-NULL value of
// the column in that range are then its first and last entry: the alternative
// reads one row — an IndexScan with Limit 1, descending for MAX — and the
// aggregate above it runs unchanged over at most that row, so an empty range
// still yields the one NULL row. The caller takes it when it is cheaper.
func (pl *planner) endpointRead(p *plan, stmt *sql.SelectStmt) *plan {
	lf := p.lookupLeaf()
	if lf == nil || lf.op == nil || len(stmt.GroupBy) > 0 {
		return nil
	}
	calls := aggCalls(stmt)
	if len(calls) != 1 || calls[0].Star || calls[0].Distinct || len(calls[0].Args) != 1 {
		return nil
	}
	fn, _ := exec.ParseAggFunc(calls[0].Name, false)
	if fn != exec.AggMin && fn != exec.AggMax {
		return nil
	}
	ref, ok := calls[0].Args[0].(*sql.ColumnRef)
	if !ok {
		return nil
	}
	ord := -1 // the column's ordinal in the stored table
	for i, c := range p.cols {
		if c.Table == ref.Table && strings.EqualFold(c.Name, ref.Name) {
			ord = lf.proj[i]
		}
	}
	if ord < 0 {
		return nil
	}
	var idx string
	for _, cand := range allIndexes(lf.table) {
		if cand.Columns[0] == ord {
			idx = cand.Name
			break
		}
	}
	if idx == "" {
		return nil
	}
	preds, residual := simplePreds(lf.conj)
	if len(residual) > 0 {
		return nil
	}
	var lo, hi []sql.Expr
	for i := range preds {
		sp := &preds[i]
		if colNameKey(sp.col) != strings.ToLower(lf.scanCols[ord].Name) || sp.eqSet != nil || sp.inArgs != nil {
			return nil
		}
		isLo := sp.op == sql.OpEQ || sp.op == sql.OpGE
		isHi := sp.op == sql.OpEQ || sp.op == sql.OpLE
		if !isLo && !isHi || isLo && lo != nil || isHi && hi != nil {
			return nil // a strict bound, or a second one on the same side
		}
		if isLo {
			lo = []sql.Expr{predValueExpr(sp)}
		}
		if isHi {
			hi = []sql.Expr{predValueExpr(sp)}
		}
	}
	loE, err1 := compileBound(lo, pl.params)
	hiE, err2 := compileBound(hi, pl.params)
	if err1 != nil || err2 != nil {
		return nil
	}
	exprs := make([]exec.Expr, len(lf.proj))
	for i, c := range lf.proj {
		exprs[i] = &exec.ColExpr{I: c}
	}
	return &plan{
		op: &exec.Project{
			Input: &exec.IndexScan{
				TableName: lf.table.Name, IndexName: idx, Cols: lf.scanCols, Lo: loE, Hi: hiE,
				Desc: fn == exec.AggMax, Limit: 1,
			},
			Exprs: exprs, Cols: p.cols,
		},
		loc: Local, cols: p.cols, card: 1,
		cost:      costSeekBase + costSeekRow + costProjectRow,
		usedViews: p.usedViews,
	}
}
