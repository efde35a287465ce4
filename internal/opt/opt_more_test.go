package opt

import (
	"strings"
	"testing"

	"mtcache/internal/catalog"
	"mtcache/internal/exec"
	"mtcache/internal/sql"
	"mtcache/internal/types"
)

// Additional optimizer coverage: left joins, derived tables, overlapping
// views, plan explain output, and error paths.

func TestBackendLeftJoin(t *testing.T) {
	b := newBackend(t)
	// Customers with cid 19990..19999; most have no orders (ckey ranges over
	// i%nCustomers for 5000 orders → only low cids match).
	p := optimize(t, b.env, `SELECT c.cid, o.total FROM customer c
		LEFT JOIN orders o ON c.cid = o.ckey
		WHERE c.cid BETWEEN 19990 AND 19999`)
	rs, _ := execute(t, p, b.store, nil, nil)
	if len(rs.Rows) != 10 {
		t.Fatalf("left join rows: %d", len(rs.Rows))
	}
	nulls := 0
	for _, row := range rs.Rows {
		if row[1].IsNull() {
			nulls++
		}
	}
	if nulls != 10 {
		t.Errorf("unmatched customers should have NULL totals: %d/10", nulls)
	}
}

func TestBackendLeftJoinWithMatches(t *testing.T) {
	b := newBackend(t)
	p := optimize(t, b.env, `SELECT c.cid, COUNT(o.okey) AS n FROM customer c
		LEFT JOIN orders o ON c.cid = o.ckey
		WHERE c.cid <= 3
		GROUP BY c.cid ORDER BY c.cid`)
	rs, _ := execute(t, p, b.store, nil, nil)
	if len(rs.Rows) != 3 {
		t.Fatalf("groups: %d", len(rs.Rows))
	}
	// Every low cid has exactly one order (okey = i, ckey = i%20000).
	for _, row := range rs.Rows {
		if row[1].Int() != 1 {
			t.Errorf("cid %d count %d", row[0].Int(), row[1].Int())
		}
	}
}

func TestCacheDerivedTableUsesView(t *testing.T) {
	b := newBackend(t)
	env, store := newCache(t, b)
	// MAX over the view's key range: the derived block should match the
	// cached view and stay local.
	p := optimize(t, env, `SELECT x.m FROM (SELECT MAX(cid) AS m FROM customer WHERE cid <= 900) AS x`)
	rs, ctr := execute(t, p, store, b, nil)
	if len(rs.Rows) != 1 || rs.Rows[0][0].Int() != 900 {
		t.Fatalf("derived result: %v", rs.Rows)
	}
	if ctr.RemoteQueries != 0 {
		t.Errorf("derived block inside the view should be local (remote=%d):\n%s",
			ctr.RemoteQueries, ExplainOperator(p.Root))
	}
}

func TestOverlappingViewsPickCheapest(t *testing.T) {
	b := newBackend(t)
	env, store := newCache(t, b)
	// Add a second, smaller cached view covering cid <= 100.
	def := sql.MustParseSelect("SELECT cid, cname, caddress FROM customer WHERE cid <= 100")
	small := &catalog.Table{
		Name: "Cust100",
		Columns: []catalog.Column{
			{Name: "cid", Type: types.KindInt},
			{Name: "cname", Type: types.KindString},
			{Name: "caddress", Type: types.KindString},
		},
		PrimaryKey: []int{0}, IsView: true, Materialized: true, Cached: true, ViewDef: def,
	}
	if err := env.Cat.AddTable(selectProject(t, small, env.Cat.Table)); err != nil {
		t.Fatal(err)
	}
	store.CreateTable(small)
	tx := store.Begin(true)
	var rows []types.Row
	for i := int64(1); i <= 100; i++ {
		row := types.Row{types.NewInt(i), types.NewString("name"), types.NewString("addr")}
		tx.Insert("Cust100", row)
		rows = append(rows, row)
	}
	tx.CommitUnlogged()
	small.Stats.Store(catalog.BuildTableStats(small.ColumnNames(), rows))

	// A query both views contain: scanning the smaller view is cheaper.
	p := optimize(t, env, "SELECT cname FROM customer WHERE cid <= 50")
	if len(p.UsedViews) != 1 || p.UsedViews[0] != "Cust100" {
		t.Errorf("expected the smaller view, got %v\n%s", p.UsedViews, Explain(p))
	}
	rs, _ := execute(t, p, store, b, nil)
	if len(rs.Rows) != 50 {
		t.Errorf("rows: %d", len(rs.Rows))
	}
}

func TestExplainShowsStructure(t *testing.T) {
	b := newBackend(t)
	env, _ := newCache(t, b)
	p := optimize(t, env, "SELECT cid FROM customer WHERE cid <= @cid")
	text := Explain(p)
	for _, want := range []string{"dynamic", "UnionAll", "StartupFilter", "DataTransfer", "Cust1000"} {
		if !strings.Contains(text, want) {
			t.Errorf("explain missing %q:\n%s", want, text)
		}
	}
}

func TestOptimizeErrors(t *testing.T) {
	b := newBackend(t)
	bad := []string{
		"SELECT nope FROM customer",
		"SELECT cid FROM missing_table",
		"SELECT m.cid FROM customer c",
	}
	for _, q := range bad {
		if _, err := Optimize(sql.MustParseSelect(q), b.env); err == nil {
			t.Errorf("Optimize(%q) should fail", q)
		}
	}
}

func TestAmbiguousColumnRejected(t *testing.T) {
	b := newBackend(t)
	// `total` exists only in orders, but `cid`... make truly ambiguous:
	// self-join exposes duplicate column names without qualification.
	q := "SELECT cname FROM customer a, customer b WHERE a.cid = b.cid"
	if _, err := Optimize(sql.MustParseSelect(q), b.env); err == nil {
		t.Error("ambiguous cname in self-join should fail")
	}
}

func TestCrossJoinWithoutPredicate(t *testing.T) {
	b := newBackend(t)
	p := optimize(t, b.env, `SELECT COUNT(*) FROM
		(SELECT cid FROM customer WHERE cid <= 3) AS a,
		(SELECT okey FROM orders WHERE okey <= 4) AS b`)
	rs, _ := execute(t, p, b.store, nil, nil)
	if rs.Rows[0][0].Int() != 12 {
		t.Errorf("cross join count: %v", rs.Rows[0][0])
	}
}

func TestSelectWithoutFrom(t *testing.T) {
	b := newBackend(t)
	p := optimize(t, b.env, "SELECT 1 + 2 AS three, 'x' AS s")
	rs, _ := execute(t, p, b.store, nil, nil)
	if rs.Rows[0][0].Int() != 3 || rs.Rows[0][1].Str() != "x" {
		t.Errorf("const select: %v", rs.Rows)
	}
	if rs.Cols[0].Name != "three" {
		t.Errorf("alias: %v", rs.Cols)
	}
}

func TestDistinctQuery(t *testing.T) {
	b := newBackend(t)
	p := optimize(t, b.env, "SELECT DISTINCT segment FROM customer WHERE cid <= 100")
	rs, _ := execute(t, p, b.store, nil, nil)
	if len(rs.Rows) != 7 {
		t.Errorf("distinct segments: %d", len(rs.Rows))
	}
}

func TestParameterizedTop(t *testing.T) {
	b := newBackend(t)
	p := optimize(t, b.env, "SELECT TOP @n cid FROM customer ORDER BY cid")
	tx := b.store.Begin(false)
	defer tx.Abort()
	rs, err := exec.Run(p.Root, &exec.Ctx{Txn: tx, Params: exec.Params{"n": types.NewInt(7)}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 7 {
		t.Errorf("TOP @n rows: %d", len(rs.Rows))
	}
}

func TestViewMatchingDisabledOnBackendMVsWhenCache(t *testing.T) {
	// A cache shadowing a backend that HAS a materialized view definition:
	// the shadow MV must not be treated as local data.
	b := newBackend(t)
	env, store := newCache(t, b)
	shadowMV := &catalog.Table{
		Name: "mv_shadow", IsView: true, Materialized: true, // NOT Cached
		ViewDef: sql.MustParseSelect("SELECT cid FROM customer WHERE cid <= 5000"),
		Columns: []catalog.Column{{Name: "cid", Type: types.KindInt}},
	}
	if err := env.Cat.AddTable(selectProject(t, shadowMV, env.Cat.Table)); err != nil {
		t.Fatal(err)
	}
	p := optimize(t, env, "SELECT cid FROM customer WHERE cid <= 3000")
	for _, v := range p.UsedViews {
		if strings.EqualFold(v, "mv_shadow") {
			t.Fatalf("shadowed backend MV used as local data:\n%s", Explain(p))
		}
	}
	rs, _ := execute(t, p, store, b, nil)
	if len(rs.Rows) != 3000 {
		t.Errorf("rows: %d", len(rs.Rows))
	}
}

func TestGuardFractionWeightsCost(t *testing.T) {
	b := newBackend(t)
	env, _ := newCache(t, b)
	p := optimize(t, env, "SELECT cid FROM customer WHERE cid <= @cid")
	if !p.Dynamic {
		t.Fatal("expected dynamic plan")
	}
	// Fl for @cid <= 1000 under uniform [1, 20000] ≈ 0.05.
	if p.GuardFraction < 0.03 || p.GuardFraction > 0.08 {
		t.Errorf("Fl = %f, want ≈ 0.05", p.GuardFraction)
	}
}
