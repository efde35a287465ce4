package tpcw

import (
	"math"
	"math/rand"
	"testing"

	"mtcache/internal/core"
)

func smallConfig() Config {
	return Config{Items: 200, Customers: 300, OrdersPerCustomer: 0.9, Seed: 42}
}

func loadedBackend(t *testing.T) *core.BackendServer {
	t.Helper()
	b := core.NewBackend("backend")
	if err := Load(b, smallConfig()); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestLoadPopulatesAllTables(t *testing.T) {
	b := loadedBackend(t)
	cfg := smallConfig()
	checks := map[string]int{
		"customer": cfg.Customers,
		"item":     cfg.Items,
		"author":   cfg.numAuthors(),
		"orders":   cfg.numOrders(),
		"address":  cfg.Customers * 2,
		"country":  10,
	}
	for table, want := range checks {
		if got := b.DB.TableRowCount(table); got != want {
			t.Errorf("%s: %d rows, want %d", table, got, want)
		}
	}
	if b.DB.TableRowCount("order_line") < cfg.numOrders() {
		t.Error("order_line should average ≥1 line per order")
	}
	if b.DB.TableRowCount("cc_xacts") != cfg.numOrders() {
		t.Error("cc_xacts should match orders")
	}
}

func TestLoadDeterministic(t *testing.T) {
	b1 := loadedBackend(t)
	b2 := loadedBackend(t)
	r1, _ := b1.Exec("SELECT SUM(i_stock), COUNT(*) FROM item", nil)
	r2, _ := b2.Exec("SELECT SUM(i_stock), COUNT(*) FROM item", nil)
	if r1.Rows[0][0].Int() != r2.Rows[0][0].Int() {
		t.Error("same seed must produce identical data")
	}
}

func TestMixesSumTo100(t *testing.T) {
	for _, w := range Workloads() {
		var sum float64
		for _, pct := range Mix(w) {
			sum += pct
		}
		if math.Abs(sum-100) > 0.01 {
			t.Errorf("%s mix sums to %f", w, sum)
		}
	}
}

func TestBrowseSharesMatchPaperTable(t *testing.T) {
	// Paper §6.1: Browsing 95/5, Shopping 80/20, Ordering 50/50.
	want := map[Workload]float64{Browsing: 95, Shopping: 80, Ordering: 50}
	for w, share := range want {
		if got := BrowseShare(w); math.Abs(got-share) > 0.01 {
			t.Errorf("%s browse share %.2f, want %.0f", w, got, share)
		}
	}
}

func TestPickFollowsMix(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	counts := map[Interaction]int{}
	const n = 200000
	for i := 0; i < n; i++ {
		counts[Pick(Shopping, r)]++
	}
	for in, pct := range Mix(Shopping) {
		got := float64(counts[in]) / n * 100
		if math.Abs(got-pct) > 0.5 {
			t.Errorf("%s: drawn %.2f%%, mix says %.2f%%", in, got, pct)
		}
	}
}

func TestAllInteractionsRunOnBackend(t *testing.T) {
	b := loadedBackend(t)
	app := NewApp(core.ConnectBackend(b), smallConfig())
	s := app.NewSession(7)
	for _, in := range Interactions() {
		if _, err := app.Run(s, in); err != nil {
			t.Fatalf("%s on backend: %v", in, err)
		}
	}
}

func TestAllInteractionsRunOnCache(t *testing.T) {
	b := loadedBackend(t)
	c, err := core.NewCache("cache1", b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := SetupCache(c); err != nil {
		t.Fatal(err)
	}
	// The paper's four cached views exist and are populated.
	for _, v := range []string{"cv_item", "cv_author", "cv_orders", "cv_order_line"} {
		if c.DB.TableRowCount(v) == 0 {
			t.Fatalf("cached view %s empty", v)
		}
	}
	app := NewApp(core.ConnectCache(c), smallConfig())
	s := app.NewSession(7)
	for _, in := range Interactions() {
		if _, err := app.Run(s, in); err != nil {
			t.Fatalf("%s on cache: %v", in, err)
		}
	}
	// Writes landed on the backend (transparent forwarding).
	if b.DB.TableRowCount("orders") <= smallConfig().numOrders() {
		t.Error("BuyConfirm through the cache should create backend orders")
	}
	// The session left per-shape rows behind, readable through plain SQL.
	res, err := c.Exec("SELECT shape, executions FROM sys.query_stats ORDER BY total_ms DESC LIMIT 10", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Error("sys.query_stats is empty after a TPC-W session")
	}
}

func TestSearchQueriesRunLocallyOnCache(t *testing.T) {
	b := loadedBackend(t)
	c, _ := core.NewCache("cache1", b, nil)
	if err := SetupCache(c); err != nil {
		t.Fatal(err)
	}
	// The queries the paper offloaded: title/subject/author search,
	// bestsellers, new products, item detail (§6.1).
	conn := core.ConnectCache(c)
	app := NewApp(conn, smallConfig())
	s := app.NewSession(11)
	for _, in := range []Interaction{NewProducts, BestSellers, ProductDetail, SearchResults, Home} {
		if _, err := app.Run(s, in); err != nil {
			t.Fatalf("%s: %v", in, err)
		}
	}
	// Verify locality through the engine counters of a direct proc call.
	res, err := c.DB.Exec("EXEC getBestSellers 'ARTS'", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.RemoteQueries != 0 {
		t.Errorf("bestseller should run fully locally on the cache (remote=%d)", res.Counters.RemoteQueries)
	}
	res, err = c.DB.Exec("EXEC doTitleSearch '%THE%'", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.RemoteQueries != 0 {
		t.Errorf("title search should run fully locally (remote=%d)", res.Counters.RemoteQueries)
	}
}

func TestBestSellerShapeMatchesDirect(t *testing.T) {
	b := loadedBackend(t)
	res, err := b.Exec("EXEC getBestSellers 'ARTS'", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("bestseller returned nothing")
	}
	// Sorted by qty desc.
	prev := res.Rows[0][4].Int()
	for _, row := range res.Rows[1:] {
		if row[4].Int() > prev {
			t.Fatal("bestseller not sorted by quantity")
		}
		prev = row[4].Int()
	}
	if len(res.Rows) > 50 {
		t.Errorf("TOP 50 violated: %d rows", len(res.Rows))
	}
}

func TestCacheAndBackendAgreeOnSearchResults(t *testing.T) {
	b := loadedBackend(t)
	c, _ := core.NewCache("cache1", b, nil)
	if err := SetupCache(c); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"EXEC doSubjectSearch 'HISTORY'",
		"EXEC getNewProducts 'ARTS'",
		"EXEC getBestSellers 'COMPUTERS'",
		"EXEC getBook 17",
		"EXEC getRelated 3",
	}
	for _, q := range queries {
		br, err := b.DB.Exec(q, nil)
		if err != nil {
			t.Fatalf("backend %s: %v", q, err)
		}
		cr, err := c.DB.Exec(q, nil)
		if err != nil {
			t.Fatalf("cache %s: %v", q, err)
		}
		if len(br.Rows) != len(cr.Rows) {
			t.Errorf("%s: backend %d rows, cache %d rows", q, len(br.Rows), len(cr.Rows))
		}
	}
}

func TestUpdateDominatedProcsNotOnCache(t *testing.T) {
	b := loadedBackend(t)
	c, _ := core.NewCache("cache1", b, nil)
	if err := SetupCache(c); err != nil {
		t.Fatal(err)
	}
	for _, name := range UpdateDominatedProcs {
		if c.DB.Catalog().Procedure(name) != nil {
			t.Errorf("%s should stay on the backend", name)
		}
	}
	// 26 total - 5 update-dominated = 21 copied.
	if got := len(c.DB.Catalog().Procedures()); got != len(ProcedureDDL)-len(UpdateDominatedProcs) {
		t.Errorf("copied procs: %d", got)
	}
}
