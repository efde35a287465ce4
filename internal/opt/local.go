package opt

import (
	"errors"

	"mtcache/internal/exec"
	"mtcache/internal/sql"
)

// ErrNoLocalPlan reports that a query cannot be answered from local data
// alone — some required table or column is not covered by a cached view.
var ErrNoLocalPlan = errors.New("opt: no fully local plan")

// OptimizeLocalOnly plans a query under the constraint that no DataTransfer
// may appear anywhere in the plan. It is the graceful-degradation path: when
// the backend is unreachable and the query declared no freshness bound, the
// engine re-plans onto the (possibly stale) cached views and answers locally
// rather than failing.
//
// The constraint is enforced by steering the search — remote operations cost
// effectively infinity, dynamic plans (whose remote branch could still reach
// the backend at run time) and mixed results are disabled, and a matching
// cached view is used unconditionally — and then verified on the result: any
// plan that still contains a DataTransfer is rejected with ErrNoLocalPlan.
//
// bound holds the failed execution's parameter values. This plan serves that
// one execution, not its shape, so the values stand in for their parameters
// and a predicate view's containment is proved from them — what a guard
// would have decided at run time, had the shape's cached plan carried one
// (it need not: the optimizer may have sent the whole shape to the backend
// on cost).
func OptimizeLocalOnly(stmt *sql.SelectStmt, env *Env, bound exec.Params) (*Plan, error) {
	if len(bound) > 0 {
		values := make(map[string]sql.Expr, len(bound))
		for name, v := range bound {
			values["@"+name] = &sql.Literal{Val: v}
		}
		stmt = mapSelect(stmt, func(e sql.Expr) sql.Expr { return replaceExprs(e, values) })
	}
	local := *env
	local.Opts.RemoteCostFactor = 1e12
	local.Opts.EnableDynamicPlans = false
	local.Opts.PullUpChoosePlan = false
	local.Opts.AllowMixedResults = false
	local.Opts.AlwaysUseCache = true
	p, err := Optimize(stmt, &local)
	if err != nil {
		return nil, err
	}
	if !p.FullyLocal || p.Dynamic {
		return nil, ErrNoLocalPlan
	}
	return p, nil
}

// RemoteOnly is OptimizeLocalOnly's mirror: one DataTransfer of the whole
// statement, producing cols. It is what a cache runs when a WITH FRESHNESS
// bound rules its views out, and it involves no optimization: the backend is
// current and plans the statement itself.
func RemoteOnly(stmt *sql.SelectStmt, cols []exec.ColInfo) *Plan {
	text := stmt.CacheKey()
	p := &Plan{Root: &exec.Remote{SQLText: text, Cols: cols}, Cols: cols, RemoteSQL: []string{text}, FullyRemote: true}
	p.Variant = p.variant()
	return p
}
