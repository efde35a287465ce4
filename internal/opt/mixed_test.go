package opt

import (
	"testing"

	"mtcache/internal/catalog"
	"mtcache/internal/exec"
	"mtcache/internal/sql"
	"mtcache/internal/storage"
	"mtcache/internal/types"
)

// mixedSetup builds a BACKEND with a regular (non-cached) materialized view
// mv1000 = customers with cid <= 1000, populated and indexed.
func mixedSetup(t *testing.T) (*Env, *storage.Store) {
	t.Helper()
	b := newBackend(t)
	def := sql.MustParseSelect("SELECT cid, cname, caddress FROM customer WHERE cid <= 1000")
	mv := &catalog.Table{
		Name: "mv1000",
		Columns: []catalog.Column{
			{Name: "cid", Type: types.KindInt},
			{Name: "cname", Type: types.KindString},
			{Name: "caddress", Type: types.KindString},
		},
		PrimaryKey: []int{0}, IsView: true, Materialized: true, ViewDef: def,
	}
	if err := b.cat.AddTable(selectProject(t, mv, b.cat.Table)); err != nil {
		t.Fatal(err)
	}
	b.store.CreateTable(mv)
	tx := b.store.Begin(true)
	var rows []types.Row
	btx := b.store // direct fill
	_ = btx
	src, _ := tx.Table("customer")
	src.Scan(func(_ storage.RowID, r types.Row) bool {
		if r[0].Int() <= 1000 {
			row := types.Row{r[0], r[1], r[2]}
			tx.Insert("mv1000", row)
			rows = append(rows, row)
		}
		return true
	})
	tx.CommitUnlogged()
	mv.Stats.Store(catalog.BuildTableStats(mv.ColumnNames(), rows))
	return b.env, b.store
}

// Mixed-result plans (§5.1.1, figure 3): for a regular materialized view
// the guard-false branch reads only the REMAINDER of the base table, and
// both branches contribute rows.
func TestMixedResultPlanExecution(t *testing.T) {
	env, store := mixedSetup(t)
	env.Opts.AllowMixedResults = true
	p := optimize(t, env, "SELECT cid, cname, caddress FROM customer WHERE cid <= @cid")

	run := func(v int64) (*exec.ResultSet, *exec.Counters) {
		tx := store.Begin(false)
		defer tx.Abort()
		ctr := &exec.Counters{}
		rs, err := runPlan(p, &exec.Ctx{Txn: tx, Counters: ctr}, exec.Params{"cid": types.NewInt(v)})
		if err != nil {
			t.Fatalf("execute: %v\n%s", err, Explain(p))
		}
		return rs, ctr
	}
	// Inside the view: exactly the view rows.
	rs, _ := run(700)
	if len(rs.Rows) != 700 {
		t.Fatalf("in-view rows: %d", len(rs.Rows))
	}
	// Outside the view: view rows + remainder, no duplicates.
	rs, _ = run(1500)
	if len(rs.Rows) != 1500 {
		t.Fatalf("mixed rows: %d\n%s", len(rs.Rows), Explain(p))
	}
	seen := map[int64]bool{}
	for _, row := range rs.Rows {
		id := row[0].Int()
		if seen[id] {
			t.Fatalf("duplicate cid %d in mixed result", id)
		}
		seen[id] = true
	}
}

func TestMixedResultDisallowedForCachedViews(t *testing.T) {
	// On a cache server, even with AllowMixedResults on, cached views never
	// produce mixed results (their rows may be stale — §5.1.1).
	b := newBackend(t)
	env, _ := newCache(t, b)
	env.Opts.AllowMixedResults = true
	p := optimize(t, env, "SELECT cid, cname, caddress FROM customer WHERE cid <= @cid")
	if !p.Dynamic {
		t.Fatalf("expected a (non-mixed) dynamic plan:\n%s", Explain(p))
	}
	// A dynamic plan prunes exactly one branch per execution; a mixed plan
	// would leave the view branch guard-free. Verify by structure: the
	// UnionAll must have two StartupFilters.
	u, ok := p.Root.(*exec.UnionAll)
	if !ok {
		t.Fatalf("expected UnionAll root:\n%s", Explain(p))
	}
	for _, in := range u.Inputs {
		if _, ok := in.(*exec.StartupFilter); !ok {
			t.Fatalf("cached-view plan has an unguarded branch (mixed result):\n%s", Explain(p))
		}
	}
}

// A dynamic view on the RIGHT side of a join: pullUpJoin takes it with the
// join's inputs swapped (and swapEqs), so it stands on the left.
func TestChoosePlanPullUpRightSide(t *testing.T) {
	b := newBackend(t)
	env, store := newCache(t, b)
	// orders first in FROM so the view-backed customer lands on the right.
	p := optimize(t, env, `SELECT o.total, c.cname FROM orders o, customer c
		WHERE o.okey <= 40 AND c.cid = o.ckey AND c.cid <= @key`)
	if !p.Dynamic {
		t.Skipf("join order put the dynamic side left; structure:\n%s", Explain(p))
	}
	tx := store.Begin(false)
	defer tx.Abort()
	ctr := &exec.Counters{}
	rs, err := runPlan(p, &exec.Ctx{Txn: tx, Remote: b, Counters: ctr}, exec.Params{"key": types.NewInt(900)})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 40 {
		t.Fatalf("rows: %d", len(rs.Rows))
	}
}

// A three-table query with a predicate spanning all three exercises
// filterPlan (residual application after the join tree completes).
func TestResidualPredicateOverThreeTables(t *testing.T) {
	b := newBackend(t)
	// third table
	seg := &catalog.Table{
		Name: "segments",
		Columns: []catalog.Column{
			{Name: "sid", Type: types.KindInt},
			{Name: "sname", Type: types.KindString},
		},
		PrimaryKey: []int{0},
	}
	b.cat.AddTable(seg)
	b.store.CreateTable(seg)
	tx := b.store.Begin(true)
	var rows []types.Row
	for i := int64(0); i < 7; i++ {
		row := types.Row{types.NewInt(i), types.NewString("seg")}
		tx.Insert("segments", row)
		rows = append(rows, row)
	}
	tx.CommitUnlogged()
	seg.Stats.Store(catalog.BuildTableStats(seg.ColumnNames(), rows))

	p := optimize(t, b.env, `SELECT c.cid FROM customer c, orders o, segments s
		WHERE c.cid = o.ckey AND c.segment = s.sid
		AND o.okey + s.sid < c.cid + 100 AND o.okey <= 20`)
	rs, _ := execute(t, p, b.store, nil, nil)
	// Ground truth: for okey 1..20, ckey = okey, segment = okey%7; predicate
	// okey + sid < cid + 100 always true here (okey<=20, cid=okey).
	if len(rs.Rows) != 20 {
		t.Fatalf("rows: %d", len(rs.Rows))
	}
}
