package opt

import (
	"fmt"
	"math"
	"strings"

	"mtcache/internal/catalog"
	"mtcache/internal/exec"
	"mtcache/internal/sql"
)

// eqPred is an equi-join predicate between two join states.
type eqPred struct {
	l, r sql.ColumnRef
	ast  sql.Expr
}

// joinState is one entry in the greedy join-ordering worklist.
type joinState struct {
	aliases map[string]bool
	cs      *candSet
	n       int // number of base relations covered
}

// orderJoins greedily builds a join tree over the given alias indexes,
// preferring equi-connected pairs with the smallest estimated result.
func (pl *planner) orderJoins(aliases []*aliasInfo, leaves []*candSet, idxs []int, multiPreds []sql.Expr) (*candSet, error) {
	if len(idxs) == 0 {
		return nil, fmt.Errorf("opt: query has no inner relations")
	}
	var states []*joinState
	for _, i := range idxs {
		states = append(states, &joinState{
			aliases: map[string]bool{aliases[i].alias: true},
			cs:      leaves[i],
			n:       1,
		})
	}
	pending := append([]sql.Expr{}, multiPreds...)

	for len(states) > 1 {
		bestI, bestJ := -1, -1
		var bestCard = math.MaxFloat64
		var bestEq []eqPred
		var bestResidual []sql.Expr
		// Prefer equi-connected pairs.
		for i := 0; i < len(states); i++ {
			for j := i + 1; j < len(states); j++ {
				eqs, residual := connecting(pending, states[i].aliases, states[j].aliases)
				if len(eqs) == 0 {
					continue
				}
				card := pl.joinCard(states[i].cs.any().card, states[j].cs.any().card, eqs)
				if card < bestCard {
					bestCard, bestI, bestJ, bestEq, bestResidual = card, i, j, eqs, residual
				}
			}
		}
		if bestI < 0 {
			// No equi-connection: cross join the two smallest inputs.
			type sized struct {
				idx  int
				card float64
			}
			small := []sized{}
			for i, s := range states {
				small = append(small, sized{i, s.cs.any().card})
			}
			// selection of two minima
			a, b := 0, 1
			if small[b].card < small[a].card {
				a, b = b, a
			}
			for k := 2; k < len(small); k++ {
				if small[k].card < small[a].card {
					b = a
					a = k
				} else if small[k].card < small[b].card {
					b = k
				}
			}
			bestI, bestJ = min(a, b), max(a, b)
			_, bestResidual = connecting(pending, states[bestI].aliases, states[bestJ].aliases)
			bestEq = nil
		}
		merged, err := pl.joinSets(states[bestI], states[bestJ], bestEq, bestResidual)
		if err != nil {
			return nil, err
		}
		// Remove applied predicates.
		pending = removePreds(pending, bestEq, bestResidual)
		// Replace the two states with the merged one.
		ns := []*joinState{merged}
		for k, s := range states {
			if k != bestI && k != bestJ {
				ns = append(ns, s)
			}
		}
		states = ns
	}
	final := states[0]
	// Any remaining multi-alias predicates apply as filters on top.
	if len(pending) > 0 {
		applicable, rest := connecting2(pending, final.aliases)
		if len(rest) > 0 {
			return nil, fmt.Errorf("opt: unresolved predicates: %v", sql.DeparseExpr(AndAll(rest)))
		}
		cs := &candSet{}
		if final.cs.local != nil {
			p, err := pl.mapDyn(final.cs.local, func(q *plan) (*plan, error) {
				return pl.filterPlan(q, applicable)
			})
			if err != nil {
				return nil, err
			}
			cs.add(p)
		}
		if final.cs.remote != nil {
			p, err := pl.filterPlan(final.cs.remote, applicable)
			if err != nil {
				return nil, err
			}
			cs.add(p)
		}
		final.cs = cs
	}
	return final.cs, nil
}

// connecting splits pending predicates into equi-join predicates linking
// setA and setB, and other predicates fully evaluable over the union.
func connecting(pending []sql.Expr, setA, setB map[string]bool) ([]eqPred, []sql.Expr) {
	var eqs []eqPred
	var residual []sql.Expr
	union := map[string]bool{}
	for a := range setA {
		union[a] = true
	}
	for b := range setB {
		union[b] = true
	}
	for _, p := range pending {
		if !coveredBy(p, union) {
			continue
		}
		if be, ok := p.(*sql.BinaryExpr); ok && be.Op == sql.OpEQ {
			lc, lok := be.L.(*sql.ColumnRef)
			rc, rok := be.R.(*sql.ColumnRef)
			if lok && rok {
				la, ra := strings.ToLower(lc.Table), strings.ToLower(rc.Table)
				switch {
				case setA[la] && setB[ra]:
					eqs = append(eqs, eqPred{l: *lc, r: *rc, ast: p})
					continue
				case setA[ra] && setB[la]:
					eqs = append(eqs, eqPred{l: *rc, r: *lc, ast: p})
					continue
				}
			}
		}
		// Applies across the pair but is not a simple equi-join: residual.
		if !coveredBy(p, setA) && !coveredBy(p, setB) {
			residual = append(residual, p)
		}
	}
	return eqs, residual
}

// connecting2 splits pending into those evaluable over set and the rest.
func connecting2(pending []sql.Expr, set map[string]bool) (app, rest []sql.Expr) {
	for _, p := range pending {
		if coveredBy(p, set) {
			app = append(app, p)
		} else {
			rest = append(rest, p)
		}
	}
	return app, rest
}

func coveredBy(e sql.Expr, set map[string]bool) bool {
	ok := true
	sql.WalkExpr(e, func(x sql.Expr) bool {
		if ref, k := x.(*sql.ColumnRef); k && ref.Table != "" {
			if !set[strings.ToLower(ref.Table)] {
				ok = false
			}
		}
		return ok
	})
	return ok
}

func removePreds(pending []sql.Expr, eqs []eqPred, residual []sql.Expr) []sql.Expr {
	used := map[sql.Expr]bool{}
	for _, e := range eqs {
		used[e.ast] = true
	}
	for _, r := range residual {
		used[r] = true
	}
	var out []sql.Expr
	for _, p := range pending {
		if !used[p] {
			out = append(out, p)
		}
	}
	return out
}

// swapEqs mirrors equi-predicates for the opposite join orientation.
func swapEqs(eqs []eqPred) []eqPred {
	out := make([]eqPred, len(eqs))
	for i, e := range eqs {
		out[i] = eqPred{l: e.r, r: e.l, ast: e.ast}
	}
	return out
}

// joinCard estimates the cardinality of an equi-join.
func (pl *planner) joinCard(cl, cr float64, eqs []eqPred) float64 {
	card := cl * cr
	for _, e := range eqs {
		dl := pl.distinctOf(e.l, cl)
		dr := pl.distinctOf(e.r, cr)
		d := math.Max(dl, dr)
		if d < 1 {
			d = 1
		}
		card /= d
	}
	if card < 1 {
		card = 1
	}
	return card
}

func (pl *planner) distinctOf(ref sql.ColumnRef, fallbackCard float64) float64 {
	if st := pl.aliasStats[strings.ToLower(ref.Table)]; st != nil {
		if cs := st.Col(ref.Name); cs != nil && cs.Distinct > 0 {
			return float64(cs.Distinct)
		}
	}
	return math.Sqrt(fallbackCard)
}

// joinSets combines two states, producing local and remote candidates.
func (pl *planner) joinSets(a, b *joinState, eqs []eqPred, residual []sql.Expr) (*joinState, error) {
	out := &joinState{aliases: map[string]bool{}, n: a.n + b.n}
	for k := range a.aliases {
		out.aliases[k] = true
	}
	for k := range b.aliases {
		out.aliases[k] = true
	}
	cs := &candSet{}

	// Remote × Remote → merged remote plan (pushes the join to the backend).
	if ar, br := a.cs.remote, b.cs.remote; ar != nil && br != nil && ar.rem.full == nil && br.rem.full == nil {
		cs.add(pl.remoteJoin(ar, br, eqs, residual, false))
	}
	// Local joins over every viable pairing. Dynamic inputs pull their
	// ChoosePlan above the join (§5.1.2): the guard-true branch joins
	// locally, while the guard-false branch is joined against the *other
	// side's full candidate set* — so an all-remote alternative branch can
	// merge into one larger remote query.
	lefts := localized(pl, a.cs)
	rights := localized(pl, b.cs)
	for _, lp := range lefts {
		for _, rp := range rights {
			var p *plan
			var err error
			switch {
			case lp.dyn != nil && pl.env.Opts.PullUpChoosePlan:
				p, err = pl.pullUpJoin(lp, rp, b.cs, eqs, residual)
			case rp.dyn != nil && pl.env.Opts.PullUpChoosePlan:
				p, err = pl.pullUpJoin(rp, lp, a.cs, swapEqs(eqs), residual)
			default:
				p, err = pl.physicalJoin(lp, rp, eqs, residual, false)
			}
			if err != nil {
				return nil, err
			}
			cs.add(p)
		}
	}
	if cs.local == nil && cs.remote == nil {
		return nil, fmt.Errorf("opt: join produced no candidates")
	}
	out.cs = cs
	return out, nil
}

// localized returns the plans from a candidate set usable as local join
// inputs (applying DataTransfer to the remote one).
func localized(pl *planner, cs *candSet) []*plan {
	var out []*plan
	if cs.local != nil {
		out = append(out, cs.local)
	}
	if cs.remote != nil {
		out = append(out, pl.toLocal(cs.remote))
	}
	return out
}

// localizedCost is the cost of a plan as a local input: remote plans pay
// their DataTransfer.
func (pl *planner) localizedCost(p *plan) float64 {
	if p.loc == Local {
		return p.cost
	}
	return pl.toLocal(p).cost
}

// pullUpJoin pulls dp's ChoosePlan above its join with other (§5.1.2): the
// guard-true branch joins other, the guard-false branch joins other's whole
// candidate set. dp stands on the left; a right-side ChoosePlan comes with
// the inputs swapped and swapEqs, since estimateJoin costs both orientations.
func (pl *planner) pullUpJoin(dp, other *plan, otherSet *candSet, eqs []eqPred, residual []sql.Expr) (*plan, error) {
	jm, err := pl.physicalJoin(dp.mainBranch(), other, eqs, residual, false)
	if err != nil {
		return nil, err
	}
	alt, err := pl.joinAltWithSet(dp.dyn.alt, otherSet, eqs, residual)
	if err != nil {
		return nil, err
	}
	return dynPlan(jm, alt, pl.localizedCost(alt), dp.dyn), nil
}

// dynPlan wraps main, the guard-true branch, into a dynamic plan whose
// guard-false branch is alt. The dynamic plan carries the blended estimates
// Fl·main + (1−Fl)·alt (§5.1); main's own are kept so a later pull-up costs
// the branch by itself.
func dynPlan(main, alt *plan, altCost float64, d *dynInfo) *plan {
	out := *main
	out.dyn = &dynInfo{guardAST: d.guardAST, fl: d.fl, alt: alt, mainCost: main.cost, mainCard: main.card}
	out.card = d.fl*main.card + (1-d.fl)*alt.card
	out.cost = d.fl*main.cost + (1-d.fl)*altCost
	return &out
}

// joinAltWithSet joins a dynamic plan's alternative branch against the other
// side's full candidate set, keeping the remote merge when it is cheapest —
// this is what lets pull-up "push a larger query to the backend server".
// The branch stands on the left of eqs.
func (pl *planner) joinAltWithSet(alt *plan, other *candSet, eqs []eqPred, residual []sql.Expr) (*plan, error) {
	var best *plan
	bestCost := math.MaxFloat64
	consider := func(p *plan) {
		if p == nil {
			return
		}
		if c := pl.localizedCost(p); c < bestCost {
			best, bestCost = p, c
		}
	}
	if alt.loc == Remote && alt.rem.full == nil && other.remote != nil && other.remote.rem.full == nil {
		consider(pl.remoteJoin(alt, other.remote, eqs, residual, false))
	}
	for _, op := range localized(pl, other) {
		p, err := pl.physicalJoin(pl.toLocal(alt), op, eqs, residual, false)
		if err != nil {
			return nil, err
		}
		consider(p)
	}
	if best == nil {
		return nil, fmt.Errorf("opt: no alternative-branch join")
	}
	return best, nil
}

// joinWay is a physical join operator.
type joinWay uint8

const (
	hashWay   joinWay = iota // HashJoin, building on the right input
	lookupWay                // IndexJoin, seeking the right input (a leaf) per left row
	loopWay                  // NestedLoop, when there is no equi-predicate
)

// joinEstimate is a join's rows and the cheapest way to run it, with what
// that costs: the inputs' costs plus the operator's own work.
type joinEstimate struct {
	card, cost float64
	way        joinWay
	swapped    bool    // b stands left
	lk         *lookup // lookupWay's index into the right input
}

// estimateJoin is the one estimate of joining a with b, a local join's and
// the backend's alike. With equi-predicates it weighs a hash join building
// on the right input against a lookup join seeking the right input when it
// is a lookup-eligible leaf; an inner join weighs both orientations too —
// rows above a join resolve their columns by name, so which input stands
// left is a free physical choice — while a LEFT JOIN keeps a, its preserved
// side, left. Without them it is a nested loop. The inputs' costs are taken
// as they are; the operator's own work is multiplied by f, 1 for a join run
// here and RemoteCostFactor for one the backend runs.
func (pl *planner) estimateJoin(a, b *plan, eqs []eqPred, residual []sql.Expr, leftOuter bool, f float64) joinEstimate {
	card := pl.joinCard(a.card, b.card, eqs)
	if len(eqs) == 0 && !leftOuter {
		card = math.Max(a.card*b.card*defaultResidualSel(residual), 1)
	}
	if leftOuter && card < a.card {
		card = a.card // a left join preserves every left row
	}
	if len(eqs) == 0 {
		return joinEstimate{card: card, cost: a.cost + b.cost + a.card*b.card*costNLPair*f, way: loopWay}
	}
	best := joinEstimate{card: card, cost: math.Inf(1)}
	orient := func(l, r *plan, eqs []eqPred, swapped bool) {
		if c := l.cost + r.cost + hashWork(l.card, r.card, card)*f; c < best.cost {
			best.cost, best.way, best.swapped, best.lk = c, hashWay, swapped, nil
		}
		if lf := r.lookupLeaf(); lf != nil {
			if lk := pl.bestLookup(lf, l.cols, eqs); lk != nil {
				// The inner input is never read whole: one seek per left row.
				if c := l.cost + l.card*lf.seekCost(lk.rowsPerKey)*f + card*costJoinOutRow*f; c < best.cost {
					best.cost, best.way, best.swapped, best.lk = c, lookupWay, swapped, lk
				}
			}
		}
	}
	orient(a, b, eqs, false)
	if !leftOuter {
		orient(b, a, swapEqs(eqs), true)
	}
	return best
}

// hashWork is a hash join's own work, inputs excluded.
func hashWork(probe, build, out float64) float64 {
	return build*costHashBuild + probe*costHashProbe + out*costJoinOutRow
}

// physicalJoin builds the local join of a and b that estimateJoin finds
// cheapest.
func (pl *planner) physicalJoin(a, b *plan, eqs []eqPred, residual []sql.Expr, leftOuter bool) (*plan, error) {
	am, err := pl.materialize(a) // flattens any non-pulled dyn
	if err != nil {
		return nil, err
	}
	bm, err := pl.materialize(b)
	if err != nil {
		return nil, err
	}
	j := pl.estimateJoin(am, bm, eqs, residual, leftOuter, 1)
	if j.swapped {
		am, bm, eqs = bm, am, swapEqs(eqs)
	}
	out := &plan{
		loc:       Local,
		cols:      append(append([]exec.ColInfo{}, am.cols...), bm.cols...),
		card:      j.card,
		cost:      j.cost,
		usedViews: append(append([]string{}, am.usedViews...), bm.usedViews...),
	}
	combined := pl.scope(out.cols)
	switch j.way {
	case loopWay:
		pred, err := compileExpr(AndAll(residual), combined)
		if err != nil {
			return nil, err
		}
		out.op = &exec.NestedLoop{Left: am.op, Right: bm.op, Pred: pred, LeftOuter: leftOuter}
		return out, nil
	case lookupWay:
		return pl.lookupJoin(out, am, bm, j.lk, residual, leftOuter)
	}
	aScope, bScope := pl.scope(am.cols), pl.scope(bm.cols)
	var lk, rk []exec.Expr
	for _, e := range eqs {
		le, err := compileExpr(&e.l, aScope)
		if err != nil {
			return nil, err
		}
		re, err := compileExpr(&e.r, bScope)
		if err != nil {
			return nil, err
		}
		lk = append(lk, le)
		rk = append(rk, re)
	}
	res, err := compileExpr(AndAll(residual), combined)
	if err != nil {
		return nil, err
	}
	out.op = &exec.HashJoin{Left: am.op, Right: bm.op, LeftKeys: lk, RightKeys: rk, LeftOuter: leftOuter, Residual: res, BuildEst: bm.card}
	return out, nil
}

// lookupJoin completes out (the join's schema and estimates) as an index
// lookup join seeking b, a lookup-eligible leaf, through lk once per row of a.
func (pl *planner) lookupJoin(out *plan, a, b *plan, lk *lookup, residual []sql.Expr, leftOuter bool) (*plan, error) {
	lf := b.lookupLeaf()
	op := &exec.IndexJoin{
		Outer: a.op, TableName: lf.table.Name, IndexName: lk.idx.Name,
		InnerCols: b.cols, Proj: lf.proj, LeftOuter: leftOuter,
	}
	aScope := pl.scope(a.cols)
	for _, e := range lk.keys {
		k, err := compileExpr(&e.l, aScope)
		if err != nil {
			return nil, err
		}
		op.OuterKeys = append(op.OuterKeys, k)
	}
	var err error
	if op.Pred, err = compileExpr(AndAll(lf.conj), pl.scope(lf.scanCols)); err != nil {
		return nil, err
	}
	// Equi-predicates beyond the index prefix are checked per pair.
	post := append([]sql.Expr{}, residual...)
	for _, e := range lk.rest {
		post = append(post, e.ast)
	}
	if op.Residual, err = compileExpr(AndAll(post), pl.scope(out.cols)); err != nil {
		return nil, err
	}
	out.op = op
	return out, nil
}

// lookup is the index chosen for a lookup join into a leaf.
type lookup struct {
	idx        *catalog.Index
	keys       []eqPred // one per leading index column, in index order; l is the outer side
	rest       []eqPred // equi-predicates the index prefix does not cover
	rowsPerKey float64  // stored rows fetched per seek
}

// seekCost is the cost of one lookup-join seek into the leaf: the B-tree
// descent plus fetching and filtering the rows under the key.
func (lf *leafAccess) seekCost(rowsPerKey float64) float64 {
	return costSeekBase + rowsPerKey*(costSeekRow+costPredEval*float64(len(lf.conj)))
}

// bestLookup picks the index of the leaf's stored table that serves eqs (l =
// outer column, r = leaf column) with the fewest rows per seek: an index
// qualifies when the join columns cover a prefix of its key with matching
// column types. nil when no index qualifies and the join must scan.
func (pl *planner) bestLookup(lf *leafAccess, outerCols []exec.ColInfo, eqs []eqPred) *lookup {
	rows := math.Max(float64(lf.table.Stats.Load().RowCount), 1)
	outer := pl.scope(outerCols)
	var best *lookup
	for _, idx := range allIndexes(lf.table) {
		lk := &lookup{idx: idx}
		used := make([]bool, len(eqs))
		distinct := 1.0
		for _, ord := range idx.Columns {
			col := lf.scanCols[ord]
			found := false
			for i, e := range eqs {
				if used[i] || !strings.EqualFold(e.r.Table, col.Table) || !strings.EqualFold(e.r.Name, col.Name) {
					continue
				}
				// Seeks compare stored keys with outer values directly, so
				// only same-typed columns may pair up.
				if oi, err := outer.resolve(&e.l); err != nil || outer.kindOf(oi) != col.Kind {
					continue
				}
				used[i], found = true, true
				lk.keys = append(lk.keys, e)
				distinct *= pl.distinctOf(e.r, rows)
				break
			}
			if !found {
				break
			}
		}
		if len(lk.keys) == 0 {
			continue
		}
		lk.rowsPerKey = math.Max(rows/math.Min(distinct, rows), 1)
		if idx.Unique && len(lk.keys) == len(idx.Columns) {
			lk.rowsPerKey = 1
		}
		for i, e := range eqs {
			if !used[i] {
				lk.rest = append(lk.rest, e)
			}
		}
		if best == nil || lk.rowsPerKey < best.rowsPerKey {
			best = lk
		}
	}
	return best
}

// pullUpThrough applies f to both branches of a dynamic plan — and, when the
// alternative is itself a ChoosePlan over the next guarded view, to each of
// its branches — and reassembles the ChoosePlan on top.
func (pl *planner) pullUpThrough(p *plan, f func(*plan) (*plan, error)) (*plan, error) {
	jm, err := f(p.mainBranch())
	if err != nil {
		return nil, err
	}
	ja, err := pl.mapDyn(p.dyn.alt, f)
	if err != nil {
		return nil, err
	}
	return dynPlan(jm, ja, ja.cost, p.dyn), nil
}

// remoteJoin merges two remote SPJ fragments into one larger remote
// fragment — this is the optimizer "pushing the largest possible subquery to
// the backend" while staying cost-based — priced by estimateJoin at
// RemoteCostFactor. A LEFT JOIN keeps a's relations on its preserved side
// and needs b to be one table; it is nil when b is anything else.
func (pl *planner) remoteJoin(a, b *plan, eqs []eqPred, residual []sql.Expr, leftOuter bool) *plan {
	parts := &remoteParts{
		from:  append(append([]sql.TableRef{}, a.rem.from...), b.rem.from...),
		where: append(append([]sql.Expr{}, a.rem.where...), b.rem.where...),
		cols:  append(append([]exec.ColInfo{}, a.cols...), b.cols...),
	}
	conds := make([]sql.Expr, 0, len(eqs)+len(residual))
	for _, e := range eqs {
		conds = append(conds, e.ast)
	}
	conds = append(conds, residual...)
	if leftOuter {
		right, ok := b.rem.from[0].(*sql.TableName)
		if !ok || len(b.rem.from) != 1 {
			return nil
		}
		n := len(a.rem.from)
		parts.from = append(a.rem.from[:n-1:n-1], &sql.JoinRef{Type: sql.JoinLeft, Left: a.rem.from[n-1], Right: right, On: AndAll(conds)})
	} else {
		parts.where = append(parts.where, conds...)
	}
	j := pl.estimateJoin(a, b, eqs, residual, leftOuter, pl.env.Opts.RemoteCostFactor)
	return &plan{rem: parts, loc: Remote, cols: parts.cols, card: j.card, cost: j.cost}
}

// filterPlan applies leftover predicates to a plan in its own location: one
// evaluation per conjunct per row, each conjunct keeping the share
// defaultResidualSel gives it. The backend's evaluations cost
// RemoteCostFactor each.
func (pl *planner) filterPlan(p *plan, preds []sql.Expr) (*plan, error) {
	if len(preds) == 0 {
		return p, nil
	}
	out := *p
	out.card = math.Max(p.card*defaultResidualSel(preds), 1)
	work := p.card * costPredEval * float64(len(preds))
	if p.loc == Remote {
		parts := *p.rem
		parts.where = append(append([]sql.Expr{}, parts.where...), preds...)
		out.rem = &parts
		out.cost = p.cost + work*pl.env.Opts.RemoteCostFactor
		return &out, nil
	}
	pred, err := compileExpr(AndAll(preds), pl.scope(p.cols))
	if err != nil {
		return nil, err
	}
	out.op = &exec.Filter{Input: p.op, Pred: pred}
	out.cost = p.cost + work
	return &out, nil
}

// applyLeftJoin attaches a deferred LEFT JOIN: locally over every pairing
// of the two sides' plans and, when both sides have a remote candidate, as
// one remote fragment the backend runs.
func (pl *planner) applyLeftJoin(state *candSet, right *candSet, on sql.Expr) (*candSet, error) {
	out := &candSet{}
	onConjs := Conjuncts(on)
	for _, lp := range localized(pl, state) {
		for _, rp := range localized(pl, right) {
			p, err := pl.leftJoinPlans(lp, rp, onConjs)
			if err != nil {
				return nil, err
			}
			out.add(p)
		}
	}
	if l, r := state.remote, right.remote; l != nil && r != nil && l.rem.full == nil && r.rem.full == nil {
		eqs, residual := splitOn(l, r, onConjs)
		out.add(pl.remoteJoin(l, r, eqs, residual, true))
	}
	if out.local == nil {
		return nil, fmt.Errorf("opt: left join produced no plan")
	}
	return out, nil
}

func (pl *planner) leftJoinPlans(a, b *plan, onConjs []sql.Expr) (*plan, error) {
	if a.dyn != nil && pl.env.Opts.PullUpChoosePlan {
		return pl.pullUpThrough(a, func(branch *plan) (*plan, error) {
			return pl.leftJoinPlans(branch, b, onConjs)
		})
	}
	eqs, residual := splitOn(a, b, onConjs)
	// Never reoriented: the left input is the preserved side.
	return pl.physicalJoin(a, b, eqs, residual, true)
}

// splitOn splits a LEFT JOIN's ON conjuncts into equi-predicates between a
// column of a and one of b, and the rest.
func splitOn(a, b *plan, onConjs []sql.Expr) ([]eqPred, []sql.Expr) {
	leftAliases := map[string]bool{}
	for _, c := range a.cols {
		leftAliases[strings.ToLower(c.Table)] = true
	}
	rightAliases := map[string]bool{}
	for _, c := range b.cols {
		rightAliases[strings.ToLower(c.Table)] = true
	}
	var eqs []eqPred
	var residual []sql.Expr
	for _, c := range onConjs {
		if be, ok := c.(*sql.BinaryExpr); ok && be.Op == sql.OpEQ {
			lc, lok := be.L.(*sql.ColumnRef)
			rc, rok := be.R.(*sql.ColumnRef)
			if lok && rok {
				la, ra := strings.ToLower(lc.Table), strings.ToLower(rc.Table)
				if leftAliases[la] && rightAliases[ra] {
					eqs = append(eqs, eqPred{l: *lc, r: *rc, ast: c})
					continue
				}
				if leftAliases[ra] && rightAliases[la] {
					eqs = append(eqs, eqPred{l: *rc, r: *lc, ast: c})
					continue
				}
			}
		}
		residual = append(residual, c)
	}
	return eqs, residual
}

// mapDyn applies a plan transformation to the main and alternative branches
// of a dynamic plan (or directly when the plan is not dynamic).
func (pl *planner) mapDyn(p *plan, f func(*plan) (*plan, error)) (*plan, error) {
	if p.dyn == nil {
		return f(p)
	}
	return pl.pullUpThrough(p, f)
}

func anyAggItems(stmt *sql.SelectStmt) bool {
	for _, it := range stmt.Columns {
		if containsAgg(it.Expr) {
			return true
		}
	}
	return false
}

// finalCols computes the output schema of the full statement.
func (pl *planner) finalCols(stmt *sql.SelectStmt) []exec.ColInfo {
	sc := pl.scope(pl.allAliasCols)
	var cols []exec.ColInfo
	for i, item := range stmt.Columns {
		cols = append(cols, exec.ColInfo{Name: exprName(item, i), Kind: exprKind(item.Expr, sc)})
	}
	return cols
}
