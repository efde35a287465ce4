package opt

import (
	"fmt"
	"strings"

	"mtcache/internal/catalog"
	"mtcache/internal/exec"
	"mtcache/internal/metrics"
	"mtcache/internal/sql"
	"mtcache/internal/types"
)

// Plan is the optimizer's output: an executable operator tree plus metadata
// used by EXPLAIN, the engine's plan cache and the benchmarks.
type Plan struct {
	Root exec.Operator
	Cols []exec.ColInfo

	Cost float64
	Card float64

	UsedViews     []string // cached/materialized views the plan reads
	RemoteSQL     []string // deparsed remote subexpressions (DataTransfer inputs)
	Params        Params   // the parameters the plan reads, in slot order (exec.Env.Bind)
	Dynamic       bool     // contains a ChoosePlan
	FullyLocal    bool     // no DataTransfer anywhere
	FullyRemote   bool     // a single DataTransfer around the whole query
	GuardFraction float64  // Fl for the top dynamic plan, 0 if none
	Variant       string   // per-shape accounting label, see variant

	// Instances is the free list of trees cloned from Root that executions
	// have released. It lives in the plan so that it dies with it: whatever
	// drops the plan from a cache drops the trees, and nothing else has to.
	Instances exec.Instances
}

// plan is one candidate during optimization.
type plan struct {
	op  exec.Operator // non-nil iff loc == Local
	rem *remoteParts  // non-nil iff loc == Remote
	loc Location

	cols []exec.ColInfo
	card float64
	cost float64

	usedViews []string
	dyn       *dynInfo
	leaf      *leafAccess // set while the plan is one relation's bare access path
}

// leafAccess describes a candidate that is exactly one relation's access
// path: a stored table (base table, cached or materialized view) read under
// the query alias, locally (localAccess) or on the backend (remoteAccess).
// A join may then replace the leaf's scan by per-outer-row index seeks (see
// bestLookup). The descriptor is pinned to the access it describes, so any
// wrapper that replaces plan.op or plan.rem drops it — see lookupLeaf.
type leafAccess struct {
	op  exec.Operator
	rem *remoteParts

	table    *catalog.Table // the stored table the seeks go to
	scanCols []exec.ColInfo // its stored schema under the query alias
	proj     []int          // stored ordinal of each plan column (local leaves)
	conj     []sql.Expr     // the leaf's conjuncts, evaluated per fetched row
}

// lookupLeaf returns the leaf descriptor while it still describes p: not
// under a ChoosePlan, and not behind a wrapper added since the access was
// planned.
func (p *plan) lookupLeaf() *leafAccess {
	if lf := p.leaf; lf != nil && p.dyn == nil && lf.op == p.op && lf.rem == p.rem {
		return lf
	}
	return nil
}

// dynInfo marks a dynamic plan: the owning plan is the guard-true branch,
// carrying the blended cost and cardinality of both branches; mainCost and
// mainCard are the guard-true branch's own.
type dynInfo struct {
	guardAST sql.Expr
	fl       float64
	alt      *plan

	mainCost, mainCard float64
}

// mainBranch returns the guard-true branch of a dynamic plan as a plain
// plan with its own estimates.
func (p *plan) mainBranch() *plan {
	m := *p
	m.cost, m.card = p.dyn.mainCost, p.dyn.mainCard
	m.dyn = nil
	return &m
}

// remoteParts is a shippable SPJ block under construction.
type remoteParts struct {
	from  []sql.TableRef
	where []sql.Expr
	cols  []exec.ColInfo
	full  *sql.SelectStmt // overrides from/where/cols when the whole query is pushed
}

func (r *remoteParts) toAST() *sql.SelectStmt {
	if r.full != nil {
		return r.full
	}
	s := &sql.SelectStmt{Where: AndAll(r.where)}
	s.From = append(s.From, r.from...)
	for _, c := range r.cols {
		s.Columns = append(s.Columns, sql.SelectItem{Expr: &sql.ColumnRef{Table: c.Table, Name: c.Name}})
	}
	return s
}

// candSet keeps the cheapest candidate per DataLocation — the property-based
// pruning that makes DataLocation a first-class physical property.
type candSet struct {
	local  *plan
	remote *plan
}

func (c *candSet) add(p *plan) {
	if p == nil {
		return
	}
	slot := &c.local
	if p.loc == Remote {
		slot = &c.remote
	}
	if *slot == nil || p.cost < (*slot).cost {
		*slot = p
	}
}

func (c *candSet) any() *plan {
	if c.local != nil {
		return c.local
	}
	return c.remote
}

// aliasInfo is one FROM-clause relation after normalization.
type aliasInfo struct {
	alias      string
	table      *catalog.Table // nil for derived tables
	derived    *sql.SelectStmt
	derivedSet *candSet

	needed      []string // lower-cased base column names, canonical order
	singleConj  []sql.Expr
	simple      []simplePred
	stats       *catalog.TableStats
	avgColBytes float64
}

// planner carries per-query state.
type planner struct {
	env    *Env
	params *Params         // the plan's parameter list, shared with sub-planners
	stmt   *sql.SelectStmt // qualified clone

	aliasStats   map[string]*catalog.TableStats
	allAliasCols []exec.ColInfo
	nAliases     int
}

// Optimize plans a SELECT statement.
func Optimize(stmt *sql.SelectStmt, env *Env) (*Plan, error) {
	p := &planner{env: env, params: new(Params)}
	final, err := p.planBlock(stmt)
	if err != nil {
		return nil, err
	}
	return p.finish(final)
}

// finish converts the winning candidate into a Plan.
func (pl *planner) finish(p *plan) (*Plan, error) {
	mat, err := pl.materialize(p)
	if err != nil {
		return nil, err
	}
	out := &Plan{
		Root:       mat.op,
		Cols:       mat.cols,
		Cost:       mat.cost,
		Card:       mat.card,
		UsedViews:  mat.usedViews,
		Dynamic:    p.dyn != nil,
		FullyLocal: true,
	}
	if p.dyn != nil {
		out.GuardFraction = p.dyn.fl
	}
	collectRemote(mat.op, &out.RemoteSQL)
	out.FullyLocal = len(out.RemoteSQL) == 0
	out.Params = *pl.params
	// Derive what every instance of the plan shares before anything clones it.
	exec.Prepare(mat.op)
	_, out.FullyRemote = mat.op.(*exec.Remote)
	out.Variant = out.variant()
	pl.countPlan(out)
	return out, nil
}

// variant labels a plan for per-shape accounting: where it runs, plus the
// cached/materialized views it reads, so one query shape's local and remote
// lives are tallied separately.
func (p *Plan) variant() string {
	var base string
	switch {
	case p.Dynamic:
		base = "dynamic"
	case p.FullyLocal:
		base = "local"
	case p.FullyRemote:
		base = "remote"
	default:
		base = "mixed"
	}
	if len(p.UsedViews) > 0 {
		base += "+" + strings.Join(p.UsedViews, ",")
	}
	return base
}

// countPlan publishes per-view hit/miss and plan-shape counters for plans
// produced on a cache (backend-side planning is not cache routing).
func (pl *planner) countPlan(p *Plan) {
	if !pl.env.IsCache {
		return
	}
	if len(p.UsedViews) == 0 {
		metrics.Default.Counter("opt.view_miss").Add(1)
	}
	for _, v := range p.UsedViews {
		metrics.Default.Counter("opt.view_hit." + v).Add(1)
	}
	switch {
	case p.Dynamic:
		metrics.Default.Counter("opt.plan_dynamic").Add(1)
	case p.FullyLocal:
		metrics.Default.Counter("opt.plan_local").Add(1)
	case p.FullyRemote:
		metrics.Default.Counter("opt.plan_remote").Add(1)
	default:
		metrics.Default.Counter("opt.plan_mixed").Add(1)
	}
}

// collectRemote appends the SQL text of every DataTransfer in the tree.
func collectRemote(op exec.Operator, out *[]string) {
	if r, ok := op.(*exec.Remote); ok {
		*out = append(*out, r.SQLText)
	}
	for i := 0; op.Child(i) != nil; i++ {
		collectRemote(*op.Child(i), out)
	}
}

// materialize turns any candidate into a Local, dyn-free plan: remote
// candidates get a DataTransfer; dynamic plans become
// UnionAll(StartupFilter(guard, main), StartupFilter(NOT guard, alt)) —
// exactly figure 2(b) of the paper.
func (pl *planner) materialize(p *plan) (*plan, error) {
	if p.dyn != nil {
		m, err := pl.materialize(p.mainBranch())
		if err != nil {
			return nil, err
		}
		alt, err := pl.materialize(p.dyn.alt)
		if err != nil {
			return nil, err
		}
		guard, err := compileParamOnly(p.dyn.guardAST, pl.params)
		if err != nil {
			return nil, err
		}
		// The guard-true branch is the one that reads the guarded view, so it
		// is "local" even when a pulled-up ChoosePlan's join also ships rows
		// (§5.1.2); the else side is labelled by where its rows come from.
		op := &exec.UnionAll{Inputs: []exec.Operator{
			&exec.StartupFilter{Guard: guard, Input: m.op, Branch: "local"},
			&exec.StartupFilter{Guard: guard, Else: true, Input: alt.op, Branch: branchOf(alt.op)},
		}}
		fl := p.dyn.fl
		return &plan{
			op: op, loc: Local, cols: m.cols,
			card:      fl*m.card + (1-fl)*alt.card,
			cost:      fl*m.cost + (1-fl)*alt.cost,
			usedViews: append(append([]string{}, m.usedViews...), alt.usedViews...),
		}, nil
	}
	return pl.toLocal(p), nil
}

// branchOf labels a ChoosePlan's else branch by where its rows come from:
// "remote" when the subtree contains a DataTransfer, "local" otherwise.
func branchOf(op exec.Operator) string {
	var remote []string
	collectRemote(op, &remote)
	if len(remote) > 0 {
		return "remote"
	}
	return "local"
}

// toLocal applies the DataTransfer enforcer when needed.
func (pl *planner) toLocal(p *plan) *plan {
	if p.loc == Local {
		return p
	}
	ast := p.rem.toAST()
	bytes := p.card * rowBytesOf(p.cols)
	out := &plan{
		op:        &exec.Remote{SQLText: sql.Deparse(ast), Cols: p.cols, Params: pl.params.remote(ast)},
		loc:       Local,
		cols:      p.cols,
		card:      p.card,
		cost:      p.cost + pl.env.Opts.TransferStartupCost + bytes*pl.env.Opts.TransferCostPerByte,
		usedViews: p.usedViews,
	}
	return out
}

func rowBytesOf(cols []exec.ColInfo) float64 {
	b := 0.0
	for _, c := range cols {
		switch c.Kind {
		case types.KindString:
			b += 24
		default:
			b += 9
		}
	}
	return b
}

// ------------------------------------------------------------------ block

// planBlock plans the root SELECT block. Its winner is returned without
// forcing location (finish handles the enforcer) — for derived tables the
// caller picks from the candidate set instead.
func (pl *planner) planBlock(orig *sql.SelectStmt) (*plan, error) {
	cs, err := pl.planBlockSet(orig)
	if err != nil {
		return nil, err
	}
	// Pick the winner: compare the local candidate against the remote
	// candidate plus its transfer cost.
	var best *plan
	if cs.local != nil {
		best = cs.local
	}
	if cs.remote != nil {
		loc := pl.toLocal(cs.remote)
		if best == nil || loc.cost < best.cost {
			// Keep the remote form; materialize applies the transfer so the
			// FullyRemote flag stays observable.
			best = cs.remote
		}
	}
	if best == nil {
		return nil, fmt.Errorf("opt: no plan produced")
	}
	// DBCache-style ablation: prefer any view-using local plan.
	if pl.env.Opts.AlwaysUseCache && cs.local != nil && len(cs.local.usedViews) > 0 {
		best = cs.local
	}
	return best, nil
}

// planBlockSet produces the block's candidate set.
func (pl *planner) planBlockSet(orig *sql.SelectStmt) (*candSet, error) {
	stmt, aliases, leftJoins, err := pl.normalize(orig)
	if err != nil {
		return nil, err
	}
	pl.stmt = stmt

	// SELECT without FROM.
	if len(aliases) == 0 {
		return pl.planConstBlock(stmt)
	}

	preds := Conjuncts(stmt.Where)
	if err := pl.assignSinglePreds(aliases, preds); err != nil {
		return nil, err
	}
	multiPreds := multiAliasPreds(aliases, preds)

	// Leaf candidates.
	leaves := make([]*candSet, len(aliases))
	for i, ai := range aliases {
		leaves[i], err = pl.planLeaf(ai)
		if err != nil {
			return nil, err
		}
	}

	// Inner-join ordering (greedy, equi-pred connected first).
	inner := make([]int, 0, len(aliases))
	for i, ai := range aliases {
		if !containsAlias(leftJoins, ai.alias) {
			inner = append(inner, i)
		}
	}
	state, err := pl.orderJoins(aliases, leaves, inner, multiPreds)
	if err != nil {
		return nil, err
	}

	// Left joins, in query order.
	for _, lj := range leftJoins {
		idx := aliasIndex(aliases, lj.alias)
		state, err = pl.applyLeftJoin(state, leaves[idx], lj.on)
		if err != nil {
			return nil, err
		}
	}

	// Stages above the join: aggregation, distinct, order by, top, project.
	out := &candSet{}
	if state.local != nil {
		p, err := pl.mapDyn(state.local, func(q *plan) (*plan, error) { return pl.applyStagesLocal(q, stmt) })
		if err != nil {
			return nil, err
		}
		out.add(p)
	}
	if state.remote != nil {
		if err := pl.finishRemote(out, state.remote, stmt); err != nil {
			return nil, err
		}
	}
	if out.local == nil && out.remote == nil {
		return nil, fmt.Errorf("opt: no candidates for block")
	}
	return out, nil
}

// allPlainRefs reports whether every select item is a bare column reference.
func allPlainRefs(s *sql.SelectStmt) bool {
	for _, item := range s.Columns {
		if _, ok := item.Expr.(*sql.ColumnRef); !ok {
			return false
		}
	}
	return true
}

// reprojectRemote rewrites a merged SPJ remote candidate so its projection
// matches the statement's select list (order and naming), at the given cost.
func (pl *planner) reprojectRemote(p *plan, stmt *sql.SelectStmt, cost float64) *plan {
	parts := *p.rem
	sc := pl.scope(pl.allAliasCols)
	var astCols, outCols []exec.ColInfo
	for i, item := range stmt.Columns {
		ref := item.Expr.(*sql.ColumnRef)
		kind := exprKind(ref, sc)
		astCols = append(astCols, exec.ColInfo{Table: ref.Table, Name: ref.Name, Kind: kind})
		outCols = append(outCols, exec.ColInfo{Name: exprName(item, i), Kind: kind})
	}
	parts.cols = astCols
	out := *p
	out.rem = &parts
	out.cols = outCols
	out.cost = cost
	return &out
}

func hasStages(s *sql.SelectStmt) bool {
	return len(s.GroupBy) > 0 || s.Having != nil || s.Distinct || len(s.OrderBy) > 0 || s.Top != nil || anyAggItems(s)
}

// planConstBlock handles SELECT <exprs> with no FROM clause.
func (pl *planner) planConstBlock(stmt *sql.SelectStmt) (*candSet, error) {
	sc := pl.scope(nil)
	var exprs []exec.Expr
	var cols []exec.ColInfo
	for i, item := range stmt.Columns {
		e, err := compileExpr(item.Expr, sc)
		if err != nil {
			return nil, err
		}
		exprs = append(exprs, e)
		cols = append(cols, exec.ColInfo{Name: exprName(item, i), Kind: exprKind(item.Expr, sc)})
	}
	rows := [][]exec.Expr{exprs}
	p := &plan{op: &exec.Values{Cols: cols, Rows: rows}, loc: Local, cols: cols, card: 1, cost: 1}
	cs := &candSet{}
	cs.add(p)
	return cs, nil
}

// leftJoinStep is a deferred LEFT JOIN.
type leftJoinStep struct {
	alias string
	on    sql.Expr
}

func containsAlias(steps []leftJoinStep, alias string) bool {
	for _, s := range steps {
		if s.alias == alias {
			return true
		}
	}
	return false
}

func aliasIndex(aliases []*aliasInfo, alias string) int {
	for i, a := range aliases {
		if a.alias == alias {
			return i
		}
	}
	return -1
}

// ------------------------------------------------------------------ normalize

// normalize resolves the FROM clause, expands stars, qualifies every column
// reference with its alias and returns the rewritten statement.
func (pl *planner) normalize(orig *sql.SelectStmt) (*sql.SelectStmt, []*aliasInfo, []leftJoinStep, error) {
	stmt := cloneSelect(orig)
	var aliases []*aliasInfo
	var leftJoins []leftJoinStep
	var onConjs []sql.Expr

	var addRef func(ref sql.TableRef, underLeft bool) error
	addRef = func(ref sql.TableRef, underLeft bool) error {
		switch x := ref.(type) {
		case *sql.TableName:
			alias := x.Alias
			if alias == "" {
				alias = x.Name
			}
			// Resolve dotted names (sys.query_stats) against the catalog's
			// full-name key first, then fall back to the bare name so the
			// database qualifier of shadowed backend tables stays ignorable.
			t := pl.env.Cat.Table(x.FullName())
			if t == nil {
				t = pl.env.Cat.Table(x.Name)
			}
			if t == nil {
				return fmt.Errorf("opt: table or view %s does not exist", x.FullName())
			}
			// Plain (virtual) views expand to derived tables.
			if t.IsView && !t.Materialized {
				aliases = append(aliases, &aliasInfo{alias: strings.ToLower(alias), derived: cloneSelect(t.ViewDef)})
				return nil
			}
			aliases = append(aliases, &aliasInfo{alias: strings.ToLower(alias), table: t, stats: t.Stats.Load()})
			return nil
		case *sql.SubqueryRef:
			aliases = append(aliases, &aliasInfo{alias: strings.ToLower(x.Alias), derived: cloneSelect(x.Select)})
			return nil
		case *sql.JoinRef:
			if err := addRef(x.Left, underLeft); err != nil {
				return err
			}
			switch x.Type {
			case sql.JoinLeft:
				tn, ok := x.Right.(*sql.TableName)
				if !ok {
					return fmt.Errorf("opt: LEFT JOIN right side must be a table")
				}
				if err := addRef(x.Right, true); err != nil {
					return err
				}
				alias := tn.Alias
				if alias == "" {
					alias = tn.Name
				}
				leftJoins = append(leftJoins, leftJoinStep{alias: strings.ToLower(alias), on: x.On})
			default:
				if err := addRef(x.Right, underLeft); err != nil {
					return err
				}
				if x.On != nil {
					onConjs = append(onConjs, Conjuncts(x.On)...)
				}
			}
			return nil
		}
		return fmt.Errorf("opt: unsupported FROM item %T", ref)
	}
	for _, ref := range stmt.From {
		if err := addRef(ref, false); err != nil {
			return nil, nil, nil, err
		}
	}

	// Fill alias column info (needed for star expansion and qualification).
	colOwners := map[string][]string{} // column name -> aliases that have it
	aliasCols := map[string][]exec.ColInfo{}
	for _, ai := range aliases {
		var cols []exec.ColInfo
		if ai.table != nil {
			for _, c := range ai.table.Columns {
				cols = append(cols, exec.ColInfo{Table: ai.alias, Name: c.Name, Kind: c.Type})
			}
		} else {
			dcols, err := pl.derivedCols(ai)
			if err != nil {
				return nil, nil, nil, err
			}
			cols = dcols
		}
		aliasCols[ai.alias] = cols
		for _, c := range cols {
			k := strings.ToLower(c.Name)
			colOwners[k] = append(colOwners[k], ai.alias)
		}
	}

	// Star expansion.
	var items []sql.SelectItem
	for _, item := range stmt.Columns {
		if !item.Star {
			items = append(items, item)
			continue
		}
		for _, ai := range aliases {
			if item.StarTable != "" && !strings.EqualFold(item.StarTable, ai.alias) {
				continue
			}
			for _, c := range aliasCols[ai.alias] {
				items = append(items, sql.SelectItem{Expr: &sql.ColumnRef{Table: ai.alias, Name: c.Name}})
			}
		}
	}
	stmt.Columns = items

	// Qualify every column reference.
	qualify := func(e sql.Expr) error {
		var qerr error
		sql.WalkExpr(e, func(x sql.Expr) bool {
			ref, ok := x.(*sql.ColumnRef)
			if !ok {
				return true
			}
			if ref.Table != "" {
				ref.Table = strings.ToLower(ref.Table)
				return true
			}
			owners := colOwners[strings.ToLower(ref.Name)]
			switch len(owners) {
			case 1:
				ref.Table = owners[0]
			case 0:
				// Leave unqualified: may be a select-item alias (ORDER BY).
			default:
				qerr = fmt.Errorf("opt: ambiguous column %s", ref.Name)
			}
			return qerr == nil
		})
		return qerr
	}
	all := []sql.Expr{stmt.Having, stmt.Top}
	for _, item := range stmt.Columns {
		all = append(all, item.Expr)
	}
	if stmt.Where != nil {
		if err := qualify(stmt.Where); err != nil {
			return nil, nil, nil, err
		}
	}
	for _, g := range stmt.GroupBy {
		all = append(all, g)
	}
	for _, o := range stmt.OrderBy {
		all = append(all, o.Expr)
	}
	for _, c := range onConjs {
		all = append(all, c)
	}
	for i := range leftJoins {
		all = append(all, leftJoins[i].on)
	}
	for _, e := range all {
		if e == nil {
			continue
		}
		if err := qualify(e); err != nil {
			return nil, nil, nil, err
		}
	}
	// Fold inner-join ON conjuncts into WHERE.
	if len(onConjs) > 0 {
		stmt.Where = AndAll(append(Conjuncts(stmt.Where), onConjs...))
	}

	// Compute needed columns per alias: everything referenced downstream of
	// the leaf access (select items, grouping, ordering, having, join
	// predicates). Columns referenced ONLY in single-alias WHERE conjuncts
	// are excluded — those predicates evaluate inside the leaf before the
	// projection, which is what lets a view that does not project a
	// predicate column still match when its definition implies the
	// predicate (e.g. view WHERE type='Tire' serving a type='Tire' query).
	needed := map[string]map[string]bool{}
	for _, ai := range aliases {
		needed[ai.alias] = map[string]bool{}
	}
	record := func(e sql.Expr) {
		sql.WalkExpr(e, func(x sql.Expr) bool {
			if ref, ok := x.(*sql.ColumnRef); ok && ref.Table != "" {
				if m, ok := needed[ref.Table]; ok {
					m[strings.ToLower(ref.Name)] = true
				}
			}
			return true
		})
	}
	for _, e := range all {
		if e != nil {
			record(e)
		}
	}
	// stmt.Where now includes folded ON conjuncts; single-alias conjuncts
	// evaluate inside the leaf and do not force projection.
	for _, conj := range Conjuncts(stmt.Where) {
		if singleAliasOf(conj) == "" {
			record(conj)
		}
	}
	for _, ai := range aliases {
		cols := aliasCols[ai.alias]
		for _, c := range cols {
			if needed[ai.alias][strings.ToLower(c.Name)] {
				ai.needed = append(ai.needed, strings.ToLower(c.Name))
			}
		}
		if len(ai.needed) == 0 && len(cols) > 0 {
			// e.g. COUNT(*) over a single table: keep one column around.
			ai.needed = append(ai.needed, strings.ToLower(cols[0].Name))
		}
	}

	// Publish per-block lookup state used by costing and final schemas.
	pl.aliasStats = map[string]*catalog.TableStats{}
	pl.allAliasCols = nil
	for _, ai := range aliases {
		pl.aliasStats[ai.alias] = ai.stats
		pl.allAliasCols = append(pl.allAliasCols, aliasCols[ai.alias]...)
	}
	pl.nAliases = len(aliases)
	return stmt, aliases, leftJoins, nil
}

func (pl *planner) derivedCols(ai *aliasInfo) ([]exec.ColInfo, error) {
	// Plan the derived block lazily just for its schema: reuse the block
	// planner once and cache the candidate set on the aliasInfo.
	cs, err := pl.subPlanner().planBlockSet(ai.derived)
	if err != nil {
		return nil, err
	}
	ai.derivedSet = cs
	p := cs.any()
	cols := make([]exec.ColInfo, len(p.cols))
	for i, c := range p.cols {
		cols[i] = exec.ColInfo{Table: ai.alias, Name: c.Name, Kind: c.Kind}
	}
	return cols, nil
}

func (pl *planner) subPlanner() *planner { return &planner{env: pl.env, params: pl.params} }

func cloneSelect(s *sql.SelectStmt) *sql.SelectStmt { return mapSelect(s, sql.CloneExpr) }

// mapSelect rebuilds s — derived tables included — with every expression
// replaced by f's image of it.
func mapSelect(s *sql.SelectStmt, f func(sql.Expr) sql.Expr) *sql.SelectStmt {
	if s == nil {
		return nil
	}
	out := &sql.SelectStmt{
		Distinct:  s.Distinct,
		Top:       f(s.Top),
		Where:     f(s.Where),
		Having:    f(s.Having),
		Freshness: f(s.Freshness),
	}
	for _, c := range s.Columns {
		out.Columns = append(out.Columns, sql.SelectItem{
			Star: c.Star, StarTable: c.StarTable, Alias: c.Alias, Expr: f(c.Expr),
		})
	}
	for _, r := range s.From {
		out.From = append(out.From, mapTableRef(r, f))
	}
	for _, g := range s.GroupBy {
		out.GroupBy = append(out.GroupBy, f(g))
	}
	for _, o := range s.OrderBy {
		out.OrderBy = append(out.OrderBy, sql.OrderItem{Expr: f(o.Expr), Desc: o.Desc})
	}
	return out
}

func mapTableRef(r sql.TableRef, f func(sql.Expr) sql.Expr) sql.TableRef {
	switch x := r.(type) {
	case *sql.TableName:
		c := *x
		return &c
	case *sql.JoinRef:
		return &sql.JoinRef{Type: x.Type, Left: mapTableRef(x.Left, f), Right: mapTableRef(x.Right, f), On: f(x.On)}
	case *sql.SubqueryRef:
		return &sql.SubqueryRef{Select: mapSelect(x.Select, f), Alias: x.Alias}
	}
	return r
}

// assignSinglePreds splits the WHERE conjuncts into per-alias predicates.
func (pl *planner) assignSinglePreds(aliases []*aliasInfo, preds []sql.Expr) error {
	byAlias := map[string]*aliasInfo{}
	for _, ai := range aliases {
		byAlias[ai.alias] = ai
	}
	for _, c := range preds {
		owner := singleAliasOf(c)
		if owner == "" {
			continue
		}
		if ai, ok := byAlias[owner]; ok {
			ai.singleConj = append(ai.singleConj, c)
		}
	}
	for _, ai := range aliases {
		sp, _ := simplePreds(ai.singleConj)
		ai.simple = sp
	}
	return nil
}

// singleAliasOf returns the alias if all column references in e belong to
// one alias, else "".
func singleAliasOf(e sql.Expr) string {
	owner := ""
	multi := false
	sql.WalkExpr(e, func(x sql.Expr) bool {
		if ref, ok := x.(*sql.ColumnRef); ok && ref.Table != "" {
			if owner == "" {
				owner = ref.Table
			} else if owner != ref.Table {
				multi = true
			}
		}
		return !multi
	})
	if multi || owner == "" {
		return ""
	}
	return owner
}

// multiAliasPreds returns the conjuncts spanning more than one alias.
func multiAliasPreds(aliases []*aliasInfo, preds []sql.Expr) []sql.Expr {
	var out []sql.Expr
	for _, c := range preds {
		if singleAliasOf(c) == "" && len(columnRefs(c)) > 0 {
			out = append(out, c)
		}
	}
	return out
}
