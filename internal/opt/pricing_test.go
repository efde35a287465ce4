package opt

import (
	"math"
	"testing"

	"mtcache/internal/catalog"
	"mtcache/internal/sql"
	"mtcache/internal/types"
)

// pricingCatalog is customer(cid PK, cname, nid, segment), orders(okey PK,
// ckey indexed, total) and nation(nid PK, nname), with statistics and no
// views: on a cache every relation is a shadow table, read remotely.
func pricingCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	add := func(tb *catalog.Table, n int, row func(i int64) types.Row) {
		rows := make([]types.Row, n)
		for i := range rows {
			rows[i] = row(int64(i + 1))
		}
		tb.Stats.Store(catalog.BuildTableStats(tb.ColumnNames(), rows))
		if err := cat.AddTable(tb); err != nil {
			t.Fatal(err)
		}
	}
	add(&catalog.Table{
		Name: "customer",
		Columns: []catalog.Column{
			{Name: "cid", Type: types.KindInt, NotNull: true},
			{Name: "cname", Type: types.KindString},
			{Name: "nid", Type: types.KindInt},
			{Name: "segment", Type: types.KindInt},
		},
		PrimaryKey: []int{0},
	}, 8000, func(i int64) types.Row {
		return types.Row{types.NewInt(i), types.NewString("name"), types.NewInt(i % 25), types.NewInt(i % 7)}
	})
	add(&catalog.Table{
		Name: "orders",
		Columns: []catalog.Column{
			{Name: "okey", Type: types.KindInt, NotNull: true},
			{Name: "ckey", Type: types.KindInt},
			{Name: "total", Type: types.KindFloat},
		},
		PrimaryKey: []int{0},
		Indexes:    []*catalog.Index{{Name: "ix_orders_ckey", Columns: []int{1}}},
	}, 20000, func(i int64) types.Row {
		return types.Row{types.NewInt(i), types.NewInt(i%8000 + 1), types.NewFloat(float64(i%500) * 1.5)}
	})
	add(&catalog.Table{
		Name: "nation",
		Columns: []catalog.Column{
			{Name: "nid", Type: types.KindInt, NotNull: true},
			{Name: "nname", Type: types.KindString},
		},
		PrimaryKey: []int{0},
	}, 25, func(i int64) types.Row {
		return types.Row{types.NewInt(i - 1), types.NewString("nation")}
	})
	return cat
}

// The paper's rule for a cache's remote alternative (§5): the cache costs
// the backend's work from the shadowed statistics as the backend itself
// would, then inflates it by RemoteCostFactor. So for a statement over
// shadow tables alone, the cache's remote candidate, before its
// DataTransfer, costs exactly the backend's own best plan times the factor,
// and expects the backend's row count.
func TestCachePricesTheBackendsWorkAsTheBackendDoes(t *testing.T) {
	cat := pricingCatalog(t)
	backend := &Env{Cat: cat, Opts: DefaultOptions()}
	cache := &Env{Cat: cat, IsCache: true, Opts: DefaultOptions()}
	f := cache.Opts.RemoteCostFactor
	candidates := func(env *Env, q string) *candSet {
		t.Helper()
		pl := &planner{env: env, params: new(Params)}
		cs, err := pl.planBlockSet(sql.MustParseSelect(q))
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		return cs
	}
	for _, c := range []struct{ name, q string }{
		{"filtered scan", "SELECT cname FROM customer WHERE segment = 3"},
		{"indexed equi-join", "SELECT c.cname, o.total FROM customer c, orders o WHERE c.cid = o.ckey AND o.okey <= 10"},
		{"three-way join", "SELECT c.cname, o.total, n.nname FROM customer c, orders o, nation n " +
			"WHERE c.cid = o.ckey AND c.nid = n.nid AND o.total > 600"},
		{"GROUP BY with HAVING", "SELECT segment, COUNT(*) AS n FROM customer GROUP BY segment HAVING COUNT(*) > 5"},
		{"DISTINCT", "SELECT DISTINCT segment FROM customer WHERE cid <= 5000"},
		{"ORDER BY", "SELECT cid, cname FROM customer WHERE segment = 2 ORDER BY cname"},
		{"TOP n ORDER BY", "SELECT TOP 10 okey, total FROM orders ORDER BY total DESC"},
		{"derived table with an outer filter", "SELECT x.segment, x.n FROM " +
			"(SELECT segment, COUNT(*) AS n FROM customer GROUP BY segment) AS x WHERE x.n > 10"},
		{"LEFT JOIN", "SELECT c.cname, o.total FROM customer c LEFT JOIN orders o ON o.ckey = c.cid WHERE c.cid <= 10"},
	} {
		own := candidates(backend, c.q).local
		remote := candidates(cache, c.q).remote
		if own == nil || remote == nil {
			t.Errorf("%s: backend candidate %v, cache remote candidate %v", c.name, own != nil, remote != nil)
			continue
		}
		if want := own.cost * f; math.Abs(remote.cost-want) > 1e-9*want {
			t.Errorf("%s: the cache prices the backend's work at %.4f; the backend's own best costs %.4f, × %g = %.4f",
				c.name, remote.cost, own.cost, f, want)
		}
		if remote.card != own.card {
			t.Errorf("%s: the cache expects %g rows from the backend, whose own plan expects %g", c.name, remote.card, own.card)
		}
	}
}
