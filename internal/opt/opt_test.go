package opt

import (
	"fmt"
	"strings"
	"testing"

	"mtcache/internal/catalog"
	"mtcache/internal/exec"
	"mtcache/internal/sql"
	"mtcache/internal/storage"
	"mtcache/internal/types"
)

// testBackend is a miniature server: catalog + store + optimizer, used both
// as the backend under test and as the loopback RemoteClient for cache-side
// plans. This exercises the real remote path: remote fragments are deparsed
// to SQL text, re-parsed and re-optimized here — exactly the paper's flow.
type testBackend struct {
	cat   *catalog.Catalog
	store *storage.Store
	env   *Env
}

func (b *testBackend) Query(sqlText string, params exec.Params) (*exec.ResultSet, error) {
	stmt, err := sql.Parse(sqlText)
	if err != nil {
		return nil, err
	}
	p, err := Optimize(stmt.(*sql.SelectStmt), b.env)
	if err != nil {
		return nil, err
	}
	tx := b.store.Begin(false)
	defer tx.Abort()
	return exec.Run(p.Root, &exec.Ctx{Params: params, Txn: tx})
}

func (b *testBackend) Exec(string, exec.Params) (int64, error) { return 0, nil }

const nCustomers = 20000
const nOrders = 5000

// newBackend builds customer(cid PK, cname, caddress, segment) with
// nCustomers rows and orders(okey PK, ckey, total) with nOrders rows.
func newBackend(t *testing.T) *testBackend {
	t.Helper()
	cat := catalog.New()
	store := storage.NewStore()

	cust := &catalog.Table{
		Name: "customer",
		Columns: []catalog.Column{
			{Name: "cid", Type: types.KindInt, NotNull: true},
			{Name: "cname", Type: types.KindString},
			{Name: "caddress", Type: types.KindString},
			{Name: "segment", Type: types.KindInt},
		},
		PrimaryKey: []int{0},
	}
	ord := &catalog.Table{
		Name: "orders",
		Columns: []catalog.Column{
			{Name: "okey", Type: types.KindInt, NotNull: true},
			{Name: "ckey", Type: types.KindInt},
			{Name: "total", Type: types.KindFloat},
		},
		PrimaryKey: []int{0},
		Indexes:    []*catalog.Index{{Name: "ix_orders_ckey", Columns: []int{1}}},
	}
	for _, tb := range []*catalog.Table{cust, ord} {
		if err := cat.AddTable(tb); err != nil {
			t.Fatal(err)
		}
		if err := store.CreateTable(tb); err != nil {
			t.Fatal(err)
		}
	}
	tx := store.Begin(true)
	var custRows, ordRows []types.Row
	for i := int64(1); i <= nCustomers; i++ {
		row := types.Row{
			types.NewInt(i),
			types.NewString("name"), types.NewString("addr"),
			types.NewInt(i % 7),
		}
		if _, err := tx.Insert("customer", row); err != nil {
			t.Fatal(err)
		}
		custRows = append(custRows, row)
	}
	for i := int64(1); i <= nOrders; i++ {
		row := types.Row{types.NewInt(i), types.NewInt(i % nCustomers), types.NewFloat(float64(i) * 1.5)}
		if _, err := tx.Insert("orders", row); err != nil {
			t.Fatal(err)
		}
		ordRows = append(ordRows, row)
	}
	tx.CommitUnlogged()
	cust.Stats.Store(catalog.BuildTableStats(cust.ColumnNames(), custRows))
	ord.Stats.Store(catalog.BuildTableStats(ord.ColumnNames(), ordRows))

	return &testBackend{cat: cat, store: store, env: &Env{Cat: cat, Opts: DefaultOptions()}}
}

// newCache builds a cache server shadowing the backend, with cached view
// Cust1000 = SELECT cid, cname, caddress FROM customer WHERE cid <= 1000.
func newCache(t *testing.T, b *testBackend) (*Env, *storage.Store) {
	t.Helper()
	cat := catalog.New()
	store := storage.NewStore()
	// Shadow tables: schema + stats, no data.
	for _, bt := range b.cat.Tables() {
		shadow := &catalog.Table{
			Name:       bt.Name,
			Columns:    append([]catalog.Column{}, bt.Columns...),
			PrimaryKey: append([]int{}, bt.PrimaryKey...),
			Indexes:    append([]*catalog.Index{}, bt.Indexes...),
		}
		shadow.Stats.Store(bt.Stats.Load().Clone())
		if err := cat.AddTable(shadow); err != nil {
			t.Fatal(err)
		}
		if err := store.CreateTable(shadow); err != nil {
			t.Fatal(err)
		}
	}
	// Cached view.
	def := sql.MustParseSelect("SELECT cid, cname, caddress FROM customer WHERE cid <= 1000")
	view := &catalog.Table{
		Name: "Cust1000",
		Columns: []catalog.Column{
			{Name: "cid", Type: types.KindInt},
			{Name: "cname", Type: types.KindString},
			{Name: "caddress", Type: types.KindString},
		},
		PrimaryKey:   []int{0},
		IsView:       true,
		Materialized: true,
		Cached:       true,
		ViewDef:      def,
	}
	if err := cat.AddTable(selectProject(t, view, cat.Table)); err != nil {
		t.Fatal(err)
	}
	if err := store.CreateTable(view); err != nil {
		t.Fatal(err)
	}
	tx := store.Begin(true)
	var rows []types.Row
	btx := b.store.Begin(false)
	btx.Table("customer").Scan(func(_ storage.RowID, r types.Row) bool {
		if r[0].Int() <= 1000 {
			row := types.Row{r[0], r[1], r[2]}
			tx.Insert("Cust1000", row)
			rows = append(rows, row)
		}
		return true
	})
	btx.Abort()
	tx.CommitUnlogged()
	view.Stats.Store(catalog.BuildTableStats(view.ColumnNames(), rows))

	return &Env{Cat: cat, IsCache: true, Opts: DefaultOptions()}, store
}

func optimize(t *testing.T, env *Env, query string) *Plan {
	t.Helper()
	p, err := Optimize(sql.MustParseSelect(query), env)
	if err != nil {
		t.Fatalf("optimize %q: %v", query, err)
	}
	return p
}

func execute(t *testing.T, p *Plan, store *storage.Store, remote exec.RemoteClient, params exec.Params) (*exec.ResultSet, *exec.Counters) {
	t.Helper()
	tx := store.Begin(false)
	defer tx.Abort()
	ctr := &exec.Counters{}
	rs, err := exec.Run(p.Root, &exec.Ctx{Params: params, Txn: tx, Remote: remote, Counters: ctr})
	if err != nil {
		t.Fatalf("execute: %v\n%s", err, ExplainOperator(p.Root))
	}
	return rs, ctr
}

// ---------------------------------------------------------------- backend

func TestBackendPointQueryUsesIndex(t *testing.T) {
	b := newBackend(t)
	p := optimize(t, b.env, "SELECT cname FROM customer WHERE cid = 42")
	rs, ctr := execute(t, p, b.store, nil, nil)
	if len(rs.Rows) != 1 {
		t.Fatalf("rows: %d", len(rs.Rows))
	}
	if ctr.RowsScanned > 2 {
		t.Errorf("point query scanned %d rows; index seek expected:\n%s", ctr.RowsScanned, ExplainOperator(p.Root))
	}
	if !p.FullyLocal {
		t.Error("backend plans must be local")
	}
}

func TestBackendRangeQueryUsesIndex(t *testing.T) {
	b := newBackend(t)
	p := optimize(t, b.env, "SELECT cid FROM customer WHERE cid BETWEEN 100 AND 199")
	rs, ctr := execute(t, p, b.store, nil, nil)
	if len(rs.Rows) != 100 {
		t.Fatalf("rows: %d", len(rs.Rows))
	}
	if ctr.RowsScanned > 120 {
		t.Errorf("range query scanned %d rows", ctr.RowsScanned)
	}
}

func TestBackendSecondaryIndex(t *testing.T) {
	b := newBackend(t)
	p := optimize(t, b.env, "SELECT okey, total FROM orders WHERE ckey = 7")
	_, ctr := execute(t, p, b.store, nil, nil)
	if ctr.RowsScanned > 10 {
		t.Errorf("secondary index not used: scanned %d", ctr.RowsScanned)
	}
}

func TestBackendJoin(t *testing.T) {
	b := newBackend(t)
	p := optimize(t, b.env, `SELECT c.cname, o.total FROM customer c, orders o
		WHERE c.cid = o.ckey AND o.okey <= 10`)
	rs, _ := execute(t, p, b.store, nil, nil)
	if len(rs.Rows) != 10 {
		t.Fatalf("join rows: %d", len(rs.Rows))
	}
	if len(rs.Cols) != 2 || rs.Cols[0].Name != "cname" {
		t.Errorf("join schema: %v", rs.Cols)
	}
}

func TestBackendGroupByOrderByTop(t *testing.T) {
	b := newBackend(t)
	p := optimize(t, b.env, `SELECT TOP 3 segment, COUNT(*) AS cnt, SUM(cid) AS s
		FROM customer GROUP BY segment ORDER BY cnt DESC, segment`)
	rs, _ := execute(t, p, b.store, nil, nil)
	if len(rs.Rows) != 3 {
		t.Fatalf("rows: %d", len(rs.Rows))
	}
	if rs.Rows[0][1].Int() < rs.Rows[1][1].Int() {
		t.Error("not sorted by count desc")
	}
	if rs.Cols[1].Name != "cnt" {
		t.Errorf("alias lost: %v", rs.Cols)
	}
}

func TestBackendHavingAndAggExpr(t *testing.T) {
	b := newBackend(t)
	p := optimize(t, b.env, `SELECT segment, AVG(total) FROM orders o, customer c
		WHERE o.ckey = c.cid GROUP BY segment HAVING COUNT(*) > 0 ORDER BY segment`)
	rs, _ := execute(t, p, b.store, nil, nil)
	if len(rs.Rows) != 7 {
		t.Fatalf("groups: %d", len(rs.Rows))
	}
}

func TestBackendDerivedTable(t *testing.T) {
	b := newBackend(t)
	p := optimize(t, b.env, `SELECT o.okey FROM orders o, (SELECT MAX(okey) AS m FROM orders) AS x
		WHERE o.okey > x.m - 5`)
	rs, _ := execute(t, p, b.store, nil, nil)
	if len(rs.Rows) != 5 {
		t.Fatalf("derived-table query rows: %d", len(rs.Rows))
	}
}

// ---------------------------------------------------------------- cache

func TestCacheUnconditionalViewMatch(t *testing.T) {
	b := newBackend(t)
	env, store := newCache(t, b)
	p := optimize(t, env, "SELECT cid, cname FROM customer WHERE cid <= 500")
	if !p.FullyLocal {
		t.Fatalf("query inside cached view should be local:\n%s", Explain(p))
	}
	if len(p.UsedViews) == 0 || p.UsedViews[0] != "Cust1000" {
		t.Errorf("view not used: %v", p.UsedViews)
	}
	rs, ctr := execute(t, p, store, b, nil)
	if len(rs.Rows) != 500 {
		t.Fatalf("rows: %d", len(rs.Rows))
	}
	if ctr.RemoteQueries != 0 {
		t.Error("local plan touched the backend")
	}
}

func TestCacheQueryOutsideViewGoesRemote(t *testing.T) {
	b := newBackend(t)
	env, store := newCache(t, b)
	p := optimize(t, env, "SELECT cid, cname FROM customer WHERE cid BETWEEN 5000 AND 5004")
	if p.FullyLocal {
		t.Fatalf("query outside view must be remote:\n%s", Explain(p))
	}
	rs, ctr := execute(t, p, store, b, nil)
	if len(rs.Rows) != 5 {
		t.Fatalf("rows: %d", len(rs.Rows))
	}
	if ctr.RemoteQueries != 1 {
		t.Errorf("remote queries: %d", ctr.RemoteQueries)
	}
}

func TestCacheMissingColumnRejectsView(t *testing.T) {
	b := newBackend(t)
	env, _ := newCache(t, b)
	// segment is not projected by Cust1000.
	p := optimize(t, env, "SELECT cid, segment FROM customer WHERE cid <= 10")
	if len(p.UsedViews) != 0 {
		t.Errorf("view with missing column was used:\n%s", Explain(p))
	}
}

func TestCacheDynamicPlanParameterized(t *testing.T) {
	b := newBackend(t)
	env, store := newCache(t, b)
	p := optimize(t, env, "SELECT cid, cname, caddress FROM customer WHERE cid <= @cid")
	if !p.Dynamic {
		t.Fatalf("parameterized query should produce a dynamic plan:\n%s", Explain(p))
	}
	if p.GuardFraction <= 0 || p.GuardFraction >= 1 {
		t.Errorf("Fl should be in (0,1): %f", p.GuardFraction)
	}

	// Parameter within the view: local branch runs, no remote traffic.
	rs, ctr := execute(t, p, store, b, exec.Params{"cid": types.NewInt(500)})
	if len(rs.Rows) != 500 {
		t.Fatalf("local branch rows: %d", len(rs.Rows))
	}
	if ctr.RemoteQueries != 0 {
		t.Errorf("local branch went remote (%d remote queries)", ctr.RemoteQueries)
	}
	if ctr.StartupPruned != 1 {
		t.Errorf("exactly one branch should be pruned, got %d", ctr.StartupPruned)
	}

	// Parameter outside the view: remote branch runs.
	rs, ctr = execute(t, p, store, b, exec.Params{"cid": types.NewInt(1500)})
	if len(rs.Rows) != 1500 {
		t.Fatalf("remote branch rows: %d", len(rs.Rows))
	}
	if ctr.RemoteQueries != 1 {
		t.Errorf("remote branch remote queries: %d", ctr.RemoteQueries)
	}
}

func TestCacheDynamicPlanBoundaryValue(t *testing.T) {
	b := newBackend(t)
	env, store := newCache(t, b)
	p := optimize(t, env, "SELECT cid FROM customer WHERE cid <= @cid")
	// Exactly at the view boundary: the view still contains all rows.
	rs, ctr := execute(t, p, store, b, exec.Params{"cid": types.NewInt(1000)})
	if len(rs.Rows) != 1000 {
		t.Fatalf("boundary rows: %d", len(rs.Rows))
	}
	if ctr.RemoteQueries != 0 {
		t.Error("boundary value should stay local")
	}
	// One above: must go remote.
	rs, ctr = execute(t, p, store, b, exec.Params{"cid": types.NewInt(1001)})
	if len(rs.Rows) != 1001 || ctr.RemoteQueries != 1 {
		t.Errorf("rows=%d remote=%d", len(rs.Rows), ctr.RemoteQueries)
	}
}

func TestCacheEqualityParamDynamicPlan(t *testing.T) {
	b := newBackend(t)
	env, store := newCache(t, b)
	p := optimize(t, env, "SELECT cid, cname, caddress FROM customer WHERE cid = @cid")
	if !p.Dynamic {
		t.Fatalf("equality param should be dynamic:\n%s", Explain(p))
	}
	rs, ctr := execute(t, p, store, b, exec.Params{"cid": types.NewInt(77)})
	if len(rs.Rows) != 1 || rs.Rows[0][0].Int() != 77 {
		t.Fatalf("rows: %v", rs.Rows)
	}
	if ctr.RemoteQueries != 0 {
		t.Error("cid=77 should hit the view")
	}
	rs, ctr = execute(t, p, store, b, exec.Params{"cid": types.NewInt(4321)})
	if len(rs.Rows) != 1 || ctr.RemoteQueries != 1 {
		t.Errorf("remote point: rows=%d remote=%d", len(rs.Rows), ctr.RemoteQueries)
	}
}

func TestCachePaperJoinExampleChoosePlanPullup(t *testing.T) {
	// The paper's §5.1.2 example: customer ⋈ orders with c.ckey <= @key.
	b := newBackend(t)
	env, store := newCache(t, b)
	p := optimize(t, env, `SELECT c.cname, o.total FROM customer c, orders o
		WHERE c.cid <= @key AND c.cid = o.ckey AND o.okey <= 100`)
	if !p.Dynamic {
		t.Fatalf("expected dynamic plan:\n%s", Explain(p))
	}
	// Guard true: local branch uses the view; orders is transferred.
	rs, ctr := execute(t, p, store, b, exec.Params{"key": types.NewInt(900)})
	want := 0
	for i := 1; i <= 100; i++ {
		if i%nCustomers <= 900 && i%nCustomers >= 1 {
			want++
		}
	}
	if len(rs.Rows) != want {
		t.Fatalf("guard-true rows: %d want %d", len(rs.Rows), want)
	}
	_ = ctr
	// Guard false: the whole join should be pushed remotely as one query.
	rs, ctr = execute(t, p, store, b, exec.Params{"key": types.NewInt(5000)})
	want = 0
	for i := 1; i <= 100; i++ {
		if i%nCustomers <= 5000 && i%nCustomers >= 1 {
			want++
		}
	}
	if len(rs.Rows) != want {
		t.Fatalf("guard-false rows: %d want %d", len(rs.Rows), want)
	}
	if ctr.RemoteQueries != 1 {
		t.Errorf("guard-false should push one remote query, got %d:\n%s", ctr.RemoteQueries, ExplainOperator(p.Root))
	}
}

func TestCacheCostBasedRemoteChoice(t *testing.T) {
	// A highly selective predicate on a column the backend can seek but the
	// cache can only scan: the optimizer should pick the backend even though
	// the cached view contains the rows (paper: "if there is an index on the
	// backend that greatly reduces the cost ... it will be executed on the
	// backend").
	b := newBackend(t)
	env, store := newCache(t, b)
	// Add a cached full-copy view of orders WITHOUT any index.
	def := sql.MustParseSelect("SELECT okey, ckey, total FROM orders")
	v := &catalog.Table{
		Name: "AllOrders",
		Columns: []catalog.Column{
			{Name: "okey", Type: types.KindInt},
			{Name: "ckey", Type: types.KindInt},
			{Name: "total", Type: types.KindFloat},
		},
		IsView: true, Materialized: true, Cached: true, ViewDef: def,
	}
	if err := env.Cat.AddTable(selectProject(t, v, env.Cat.Table)); err != nil {
		t.Fatal(err)
	}
	store.CreateTable(v)
	tx := store.Begin(true)
	var rows []types.Row
	btx := b.store.Begin(false)
	btx.Table("orders").Scan(func(_ storage.RowID, r types.Row) bool {
		tx.Insert("AllOrders", r.Clone())
		rows = append(rows, r)
		return true
	})
	btx.Abort()
	tx.CommitUnlogged()
	v.Stats.Store(catalog.BuildTableStats(v.ColumnNames(), rows))

	p := optimize(t, env, "SELECT total FROM orders WHERE okey = 123")
	if p.FullyLocal {
		t.Fatalf("backend index seek should beat a local view scan:\n%s", Explain(p))
	}

	// DBCache-style ablation: always use the cache when a view matches.
	env.Opts.AlwaysUseCache = true
	p = optimize(t, env, "SELECT total FROM orders WHERE okey = 123")
	if !p.FullyLocal {
		t.Fatalf("AlwaysUseCache should force the view:\n%s", Explain(p))
	}
	env.Opts.AlwaysUseCache = false
}

func TestCacheWholeQueryPushdown(t *testing.T) {
	b := newBackend(t)
	env, store := newCache(t, b)
	// Aggregation over a table with no matching view: ship the whole thing.
	p := optimize(t, env, `SELECT segment, COUNT(*) AS cnt FROM customer
		WHERE segment >= 0 GROUP BY segment ORDER BY cnt DESC`)
	if p.FullyLocal {
		t.Fatal("no local data: must go remote")
	}
	rs, ctr := execute(t, p, store, b, nil)
	if len(rs.Rows) != 7 {
		t.Fatalf("groups: %d", len(rs.Rows))
	}
	if ctr.RemoteQueries != 1 {
		t.Errorf("expected one pushed query, got %d\n%s", ctr.RemoteQueries, ExplainOperator(p.Root))
	}
	// The aggregation must have happened on the backend: only 7 rows moved.
	if ctr.RowsRemote != 7 {
		t.Errorf("rows transferred: %d, want 7 (aggregated remotely)", ctr.RowsRemote)
	}
}

func TestDynamicPlansDisabledAblation(t *testing.T) {
	b := newBackend(t)
	env, _ := newCache(t, b)
	env.Opts.EnableDynamicPlans = false
	p := optimize(t, env, "SELECT cid FROM customer WHERE cid <= @cid")
	if p.Dynamic {
		t.Fatal("dynamic plans disabled but produced one")
	}
	if len(p.UsedViews) != 0 {
		t.Error("without dynamic plans the guarded view cannot be used")
	}
}

// ---------------------------------------------------------------- view matching

func mkView(t *testing.T, def string, cols ...string) *catalog.Table {
	t.Helper()
	v := &catalog.Table{
		Name: "v", IsView: true, Materialized: true, Cached: true,
		ViewDef: sql.MustParseSelect(def),
	}
	for _, c := range cols {
		v.Columns = append(v.Columns, catalog.Column{Name: c, Type: types.KindInt})
	}
	// The source the definition is taken apart against: the FROM clause's
	// name and every column the definition mentions (MatchView reads column
	// types from the base it is handed, not from here).
	src := &catalog.Table{Name: v.ViewDef.From[0].(*sql.TableName).Name}
	mention := func(e sql.Expr) {
		for _, ref := range columnRefs(e) {
			if src.ColumnIndex(ref.Name) < 0 {
				src.Columns = append(src.Columns, catalog.Column{Name: ref.Name, Type: types.KindInt})
			}
		}
	}
	for _, item := range v.ViewDef.Columns {
		mention(item.Expr)
	}
	mention(v.ViewDef.Where)
	return selectProject(t, v, func(string) *catalog.Table { return src })
}

// selectProject gives a hand-built view what CREATE VIEW would have: its
// definition's select-project form.
func selectProject(t *testing.T, v *catalog.Table, relation func(string) *catalog.Table) *catalog.Table {
	t.Helper()
	sp, err := catalog.SelectProjectOf(v.ViewDef, relation)
	if err != nil {
		t.Fatal(err)
	}
	v.SelectProject = sp
	return v
}

// baseOf is a base table for MatchView to read column types from: the named
// columns are INT, any other column it is asked about is unknown (not INT).
func baseOf(name string, intCols ...string) *catalog.Table {
	b := &catalog.Table{Name: name}
	for _, c := range intCols {
		b.Columns = append(b.Columns, catalog.Column{Name: c, Type: types.KindInt})
	}
	return b
}

var (
	customerT = baseOf("customer", "cid", "segment")
	partT     = baseOf("part", "id")
)

func predsOf(t *testing.T, where string) []simplePred {
	t.Helper()
	ps, _ := simplePreds(conjOf(t, where))
	return ps
}

func conjOf(t *testing.T, where string) []sql.Expr {
	t.Helper()
	stmt := sql.MustParseSelect("SELECT x FROM t WHERE " + where)
	return Conjuncts(stmt.Where)
}

func TestMatchViewContainment(t *testing.T) {
	v := mkView(t, "SELECT cid, cname FROM customer WHERE cid <= 1000", "cid", "cname")
	need := map[string]bool{"cid": true}

	if m := MatchView(v, customerT, conjOf(t, "cid <= 500"), need, true); m == nil || m.Guard != nil {
		t.Error("cid <= 500 should match unconditionally")
	}
	if m := MatchView(v, customerT, conjOf(t, "cid <= 1000"), need, true); m == nil || m.Guard != nil {
		t.Error("cid <= 1000 should match unconditionally")
	}
	if m := MatchView(v, customerT, conjOf(t, "cid < 1001"), need, true); m == nil || m.Guard != nil {
		t.Error("cid < 1001 should match unconditionally")
	}
	if m := MatchView(v, customerT, conjOf(t, "cid <= 2000"), need, true); m != nil && m.Guard == nil {
		t.Error("cid <= 2000 must not match unconditionally")
	}
	if m := MatchView(v, customerT, conjOf(t, "cid = 400"), need, true); m == nil || m.Guard != nil {
		t.Error("point inside should match")
	}
	if m := MatchView(v, customerT, nil, need, true); m != nil && m.Guard == nil {
		t.Error("no predicate must not match a restricted view")
	}
}

func TestMatchViewGuards(t *testing.T) {
	v := mkView(t, "SELECT cid FROM customer WHERE cid <= 1000", "cid")
	need := map[string]bool{"cid": true}

	m := MatchView(v, customerT, conjOf(t, "cid <= @p"), need, true)
	if m == nil || m.Guard == nil {
		t.Fatal("param query should match with guard")
	}
	text := sql.DeparseExpr(m.Guard)
	if !strings.Contains(text, "@p") || !strings.Contains(text, "1000") {
		t.Errorf("guard text: %s", text)
	}
	// Without dynamic plans the guarded match is rejected.
	if MatchView(v, customerT, conjOf(t, "cid <= @p"), need, false) != nil {
		t.Error("guarded match must be nil when dynamic plans are off")
	}
	// Lower-bound view.
	v2 := mkView(t, "SELECT cid FROM customer WHERE cid >= 100", "cid")
	m = MatchView(v2, customerT, conjOf(t, "cid >= @p"), need, true)
	if m == nil || m.Guard == nil {
		t.Fatal("lower-bound guard failed")
	}
	// Two-sided view with equality parameter.
	v3 := mkView(t, "SELECT cid FROM customer WHERE cid >= 100 AND cid <= 200", "cid")
	m = MatchView(v3, customerT, conjOf(t, "cid = @p"), need, true)
	if m == nil || m.Guard == nil {
		t.Fatal("two-sided guard failed")
	}
	if len(m.GuardTerms) != 2 {
		t.Errorf("expected 2 guard terms, got %d", len(m.GuardTerms))
	}
}

func TestMatchViewInSet(t *testing.T) {
	v := mkView(t, "SELECT cid, segment FROM customer WHERE segment IN (1, 2, 3)", "cid", "segment")
	need := map[string]bool{"cid": true}
	if m := MatchView(v, customerT, conjOf(t, "segment = 2"), need, true); m == nil || m.Guard != nil {
		t.Error("segment = 2 inside IN-set should match")
	}
	if m := MatchView(v, customerT, conjOf(t, "segment = 9"), need, true); m != nil && m.Guard == nil {
		t.Error("segment = 9 outside IN-set must not match unconditionally")
	}
	m := MatchView(v, customerT, conjOf(t, "segment = @s"), need, true)
	if m == nil || m.Guard == nil {
		t.Fatal("param against IN-set should produce IN guard")
	}
	if !strings.Contains(sql.DeparseExpr(m.Guard), "IN") {
		t.Errorf("guard: %s", sql.DeparseExpr(m.Guard))
	}
}

func TestMatchViewExtraQueryPredsAreFine(t *testing.T) {
	v := mkView(t, "SELECT cid, cname FROM customer WHERE cid <= 1000", "cid", "cname")
	need := map[string]bool{"cid": true, "cname": true}
	// Additional predicates only narrow the query; containment still holds.
	m := MatchView(v, customerT, conjOf(t, "cid <= 800 AND cname = 'x'"), need, true)
	if m == nil || m.Guard != nil {
		t.Error("extra conjuncts should not break containment")
	}
	// cid <= 800 is NOT implied by the view (view holds up to 1000), so it
	// stays residual; cname = 'x' stays residual too.
	if len(m.Residual) != 2 {
		t.Errorf("residual: %d conjuncts", len(m.Residual))
	}
}

func TestMatchViewWrongTable(t *testing.T) {
	v := mkView(t, "SELECT cid FROM customer WHERE cid <= 1000", "cid")
	if MatchView(v, baseOf("orders", "okey"), nil, map[string]bool{"cid": true}, true) != nil {
		t.Error("view over customer must not match orders")
	}
}

func TestEstimateGuardFrequencyUniform(t *testing.T) {
	var rows []types.Row
	for i := int64(1); i <= 2000; i++ {
		rows = append(rows, types.Row{types.NewInt(i)})
	}
	stats := catalog.BuildTableStats([]string{"cid"}, rows)
	terms := []GuardTerm{{Op: sql.OpLE, Bound: types.NewInt(1000), Col: "cid"}}
	fl := EstimateGuardFrequency(terms, stats)
	if fl < 0.4 || fl > 0.6 {
		t.Errorf("Fl = %f, want ~0.5 (uniform assumption)", fl)
	}
}

func TestImplicationProver(t *testing.T) {
	cases := []struct {
		query, view string
		implies     bool
	}{
		{"x <= 5", "x <= 10", true},
		{"x <= 10", "x <= 10", true},
		{"x <= 11", "x <= 10", false},
		{"x < 10", "x <= 10", true},
		{"x <= 10", "x < 10", false},
		{"x = 5", "x <= 10", true},
		{"x = 15", "x <= 10", false},
		{"x >= 3 AND x <= 5", "x >= 1 AND x <= 10", true},
		{"x >= 0", "x >= 1", false},
		{"x IN (1, 2)", "x <= 10", true},
		{"x IN (1, 20)", "x <= 10", false},
		{"x = 2", "x IN (1, 2, 3)", true},
		{"x = 7", "x IN (1, 2, 3)", false},
		{"x BETWEEN 2 AND 3", "x IN (1, 2, 3)", false}, // ranges don't imply finite sets
		{"x > 5", "x > 4", true},
		{"x > 4", "x > 5", false},
		{"x >= 6", "x > 5", true},
	}
	for _, c := range cases {
		q := rangeFromPreds(predsOf(t, c.query), true)
		v := rangeFromPreds(predsOf(t, c.view), true)
		if got := v.impliedBy(q); got != c.implies {
			t.Errorf("(%s) implies (%s): got %v want %v", c.query, c.view, got, c.implies)
		}
	}
}

func TestSelectivitySanity(t *testing.T) {
	b := newBackend(t)
	pl := &planner{env: b.env}
	cust := b.cat.Table("customer")
	sel := pl.selectivity(cust.Stats.Load(), Conjuncts(sql.MustParseSelect("SELECT cid FROM customer WHERE cid <= 1000").Where))
	if sel < 0.02 || sel > 0.12 {
		t.Errorf("cid <= 1000 of 20000: selectivity %f, want ~0.05", sel)
	}
}

func TestMatchViewRedundantPredicateElimination(t *testing.T) {
	// View filters type='Tire' but does not project type. A query filtering
	// type='Tire' must still match: the conjunct is implied by the view.
	v := mkView(t, "SELECT id, name FROM part WHERE ptype = 'Tire'", "id", "name")
	need := map[string]bool{"name": true}
	m := MatchView(v, partT, conjOf(t, "ptype = 'Tire' AND id <= 10"), need, true)
	if m == nil {
		t.Fatal("implied predicate should not require projection")
	}
	if m.Guard != nil {
		t.Error("match should be unconditional")
	}
	if len(m.Residual) != 1 || !strings.Contains(sql.DeparseExpr(m.Residual[0]), "id") {
		t.Errorf("only id <= 10 should remain residual: %v", m.Residual)
	}
	// But a query needing the type column VALUE still cannot use the view.
	if MatchView(v, partT, conjOf(t, "ptype = 'Tire'"), map[string]bool{"ptype": true}, true) != nil {
		t.Error("output column missing from projection must reject")
	}
	// And a filter on an unprojected column that is NOT implied must reject.
	if MatchView(v, partT, conjOf(t, "ptype = 'Bolt'"), need, true) != nil {
		t.Error("contradicting filter must reject")
	}
}

// guardText is the deparsed guard of a match, "" for none or no match.
func guardText(m *ViewMatch) string {
	if m == nil || m.Guard == nil {
		return ""
	}
	return sql.DeparseExpr(m.Guard)
}

// The guard rules that let a shape's one shared plan accept whatever the
// literal statement's own plan would: each parameter is compared with the
// view bound the literal would have been compared with.
func TestMatchViewGuardRules(t *testing.T) {
	need := map[string]bool{"cid": true}
	ranged := mkView(t, "SELECT cid, cname FROM customer WHERE cid <= 1000", "cid", "cname")
	floatT := baseOf("customer") // cid is not INT here
	for _, c := range []struct {
		name  string
		view  *catalog.Table
		base  *catalog.Table
		where string
		guard string // "" = no match
	}{
		{"IN-list is an equality per element", ranged, customerT, "cid IN (@a, @b)", "((@a <= 1000) AND (@b <= 1000))"},
		{"open bound on an INT column is tightened", ranged, customerT, "cid < @p", "(@p <= 1001)"},
		{"…and on no other column", ranged, floatT, "cid < @p", "(@p <= 1000)"},
		{"negated parameter is a parameter operand", ranged, customerT, "cid = -@p", "((-@p) <= 1000)"},
		{"lower side mirrors", mkView(t, "SELECT cid FROM customer WHERE cid >= 100", "cid"), customerT, "cid > @p", "(@p >= 99)"},
		{"IN-list into a finite set", mkView(t, "SELECT cid, segment FROM customer WHERE segment IN (1, 2, 3)", "cid", "segment"),
			customerT, "segment IN (@a, @b)", "((@a IN (1, 2, 3)) AND (@b IN (1, 2, 3)))"},
		{"list mixing literals and parameters is not simple", ranged, customerT, "cid IN (5, @b)", ""},
	} {
		if got := guardText(MatchView(c.view, c.base, conjOf(t, c.where), need, true)); got != c.guard {
			t.Errorf("%s: %s guards %q, want %q", c.name, c.where, got, c.guard)
		}
	}
}

// A parameterized conjunct on a column the view pins but does not project
// leaves the residual under the guard that makes it redundant — and such a
// match is marked, because its rows mean nothing once the guard fails.
func TestMatchViewRedundantUnderGuard(t *testing.T) {
	need := map[string]bool{"o_qty": true}
	ordersT := baseOf("orders", "o_id", "o_i_id", "o_qty")
	pinned := mkView(t, "SELECT o_id, o_qty FROM orders WHERE o_i_id = 7", "o_id", "o_qty")
	m := MatchView(pinned, ordersT, conjOf(t, "o_i_id = @p AND o_id = @q"), need, true)
	if guardText(m) != "(@p IN (7))" || len(m.Residual) != 1 || !m.ResidualNeedsGuard {
		t.Fatalf("pinned column: guard %q, residual %v, needs guard %v", guardText(m), m.Residual, m != nil && m.ResidualNeedsGuard)
	}
	// A range bound is redundant only when it admits the whole view.
	upTo := mkView(t, "SELECT o_id, o_qty FROM orders WHERE o_i_id <= 100", "o_id", "o_qty")
	if got := guardText(MatchView(upTo, ordersT, conjOf(t, "o_i_id <= @p"), need, true)); got != "((@p <= 100) AND (@p >= 100))" {
		t.Errorf("range bound on an unprojected column guards %q", got)
	}
	// Projected, the conjunct stays a filter and the guard stays weak.
	projected := mkView(t, "SELECT o_id, o_i_id, o_qty FROM orders WHERE o_i_id <= 100", "o_id", "o_i_id", "o_qty")
	m = MatchView(projected, ordersT, conjOf(t, "o_i_id <= @p"), need, true)
	if guardText(m) != "(@p <= 100)" || len(m.Residual) != 1 || m.ResidualNeedsGuard {
		t.Errorf("projected column: guard %q, residual %v", guardText(m), m.Residual)
	}
	// No guard can make these redundant, so the unprojected column rejects.
	for _, where := range []string{"o_i_id = @p AND o_i_id <> @q", "o_i_id >= @p"} {
		if m := MatchView(upTo, ordersT, conjOf(t, where), need, true); m != nil {
			t.Errorf("%s matched a view that does not project o_i_id: guard %q", where, guardText(m))
		}
	}
}

// One shape has one plan, so two guarded views of one table are two arms of
// it, cheapest first; and a guard that evaluates to NULL opens the remote
// arm, never neither.
func TestChoosePlanChainsGuardedViews(t *testing.T) {
	b := newBackend(t)
	env, store := newCache(t, b)
	def := sql.MustParseSelect("SELECT cid, cname FROM customer WHERE cid >= 1500 AND cid <= 1600")
	second := &catalog.Table{
		Name:       "Cust1500",
		Columns:    []catalog.Column{{Name: "cid", Type: types.KindInt}, {Name: "cname", Type: types.KindString}},
		PrimaryKey: []int{0}, IsView: true, Materialized: true, Cached: true, ViewDef: def,
	}
	if err := env.Cat.AddTable(selectProject(t, second, env.Cat.Table)); err != nil {
		t.Fatal(err)
	}
	store.CreateTable(second)
	tx := store.Begin(true)
	var rows []types.Row
	btx := b.store.Begin(false)
	btx.Table("customer").Scan(func(_ storage.RowID, r types.Row) bool {
		if id := r[0].Int(); id >= 1500 && id <= 1600 {
			row := types.Row{r[0], r[1]}
			tx.Insert("Cust1500", row)
			rows = append(rows, row)
		}
		return true
	})
	btx.Abort()
	tx.CommitUnlogged()
	second.Stats.Store(catalog.BuildTableStats(second.ColumnNames(), rows))

	p := optimize(t, env, "SELECT cid FROM customer WHERE cid IN (@a, @b)")
	if len(p.UsedViews) != 2 {
		t.Fatalf("want both views in one plan, got %v\n%s", p.UsedViews, Explain(p))
	}
	null := types.Value{}
	for _, c := range []struct {
		a, b   types.Value
		rows   int
		remote int64
	}{
		{types.NewInt(3), types.NewInt(5), 2, 0},       // Cust1000
		{types.NewInt(1501), types.NewInt(1600), 2, 0}, // Cust1500
		{types.NewInt(3), types.NewInt(1501), 2, 1},    // straddles: neither view holds both
		{null, types.NewInt(5), 1, 1},                  // NULL guard: the backend answers
	} {
		rs, ctr := execute(t, p, store, b, exec.Params{"a": c.a, "b": c.b})
		if len(rs.Rows) != c.rows || ctr.RemoteQueries != c.remote {
			t.Errorf("cid IN (%v, %v): %d rows, %d remote queries; want %d, %d\n%s",
				c.a, c.b, len(rs.Rows), ctr.RemoteQueries, c.rows, c.remote, ExplainOperator(p.Root))
		}
	}

	// Stages and joins above the chain reach every arm of it.
	for _, q := range []string{
		"SELECT COUNT(*) AS n, MAX(cname) AS m FROM customer WHERE cid IN (@a, @b)",
		"SELECT TOP 1 cid FROM customer WHERE cid IN (@a, @b) ORDER BY cid DESC",
		"SELECT o.okey, c.cname FROM orders o, customer c WHERE c.cid = o.ckey AND c.cid IN (@a, @b) ORDER BY o.okey",
		"SELECT c.cname, o.okey FROM customer c LEFT JOIN orders o ON c.cid = o.ckey WHERE c.cid IN (@a, @b) ORDER BY o.okey",
	} {
		p := optimize(t, env, q)
		for _, params := range []exec.Params{
			{"a": types.NewInt(3), "b": types.NewInt(5)},
			{"a": types.NewInt(1501), "b": types.NewInt(1600)},
			{"a": types.NewInt(3), "b": types.NewInt(1501)},
		} {
			got, _ := execute(t, p, store, b, params)
			want, _ := execute(t, optimize(t, b.env, q), b.store, nil, params)
			if fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
				t.Errorf("%s with %v:\n cache   %v\n backend %v\n%s", q, params, got.Rows, want.Rows, ExplainOperator(p.Root))
			}
		}
	}
}
