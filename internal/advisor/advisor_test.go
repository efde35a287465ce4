package advisor

import (
	"fmt"
	"strings"
	"testing"

	"mtcache/internal/core"
	"mtcache/internal/tpcw"
)

// tpcwWorkload builds a weighted workload from the Shopping mix: each
// interaction contributes its representative procedure calls at the mix
// frequency — the input a DBA would hand the design tool.
func tpcwWorkload() []WorkloadItem {
	mix := tpcw.Mix(tpcw.Shopping)
	calls := map[tpcw.Interaction][]string{
		tpcw.Home:                 {"EXEC getName 1", "EXEC getRelated 1"},
		tpcw.NewProducts:          {"EXEC getNewProducts 'ARTS'"},
		tpcw.BestSellers:          {"EXEC getBestSellers 'ARTS'"},
		tpcw.ProductDetail:        {"EXEC getBook 1"},
		tpcw.SearchResults:        {"EXEC doSubjectSearch 'ARTS'", "EXEC doTitleSearch '%a%'", "EXEC doAuthorSearch 'S%'"},
		tpcw.ShoppingCart:         {"EXEC createCartWithLine 1, '2003-06-09', 1, 1", "EXEC getCart 1"},
		tpcw.CustomerRegistration: {"EXEC getCustomer 'user1'"},
		tpcw.BuyRequest:           {"EXEC getCustomer 'user1'", "EXEC getCart 1"},
		tpcw.BuyConfirm:           {"EXEC getCDiscount 1", "EXEC doBuyConfirm 1, 1, '2003-06-09', 1, 1, 'AIR', 1, 1, 0.05, 1"},
		tpcw.OrderInquiry:         {"EXEC getPassword 'user1'"},
		tpcw.OrderDisplay:         {"EXEC getMostRecentOrder 'user1'", "EXEC getOrderLines 1"},
		tpcw.AdminRequest:         {"EXEC getBook 1"},
		tpcw.AdminConfirm:         {"EXEC adminUpdate 1, 1.0, 2", "EXEC getBook 1"},
	}
	var items []WorkloadItem
	for in, stmts := range calls {
		w := mix[in] / float64(len(stmts))
		for _, s := range stmts {
			items = append(items, WorkloadItem{SQL: s, Weight: w})
		}
	}
	return items
}

func analyzed(t *testing.T) *Advice {
	t.Helper()
	b := core.NewBackend("backend")
	if err := tpcw.Load(b, tpcw.Config{Items: 50, Customers: 80, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if err := b.DB.Analyze(); err != nil {
		t.Fatal(err)
	}
	advice, err := Analyze(b.DB.Catalog(), tpcwWorkload(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return advice
}

// The headline test: over the TPC-W Shopping workload, the advisor should
// rediscover the paper's hand configuration (§6.1) — cache projections of
// item, author, orders and order_line; keep update-dominated procedures on
// the backend.
func TestAdvisorRediscoversPaperConfiguration(t *testing.T) {
	advice := analyzed(t)
	rec := map[string]bool{}
	for _, v := range advice.Views {
		if v.Recommended {
			rec[strings.ToLower(v.Table)] = true
		}
	}
	for _, want := range []string{"item", "author", "orders", "order_line"} {
		if !rec[want] {
			t.Errorf("paper cached %s; advisor did not recommend it\n%s", want, advice.Format())
		}
	}
}

func TestAdvisorKeepsUpdateDominatedProcsOnBackend(t *testing.T) {
	advice := analyzed(t)
	placement := map[string]bool{}
	for _, p := range advice.Procs {
		placement[strings.ToLower(p.Name)] = p.CopyToCache
	}
	for _, name := range []string{"dobuyconfirm", "adminupdate", "createcartwithline"} {
		if copyIt, ok := placement[name]; !ok || copyIt {
			t.Errorf("%s should stay on the backend (ok=%v copy=%v)", name, ok, copyIt)
		}
	}
	for _, name := range []string{"getbestsellers", "getbook", "docart"} {
		if name == "docart" {
			continue
		}
		if copyIt, ok := placement[name]; !ok || !copyIt {
			t.Errorf("%s should be copied to caches (ok=%v copy=%v)", name, ok, copyIt)
		}
	}
}

func TestAdvisorProjectionsAreMinimal(t *testing.T) {
	advice := analyzed(t)
	for _, v := range advice.Views {
		if strings.EqualFold(v.Table, "author") {
			// The workload touches a_id, a_fname, a_lname only.
			if len(v.Columns) != 3 {
				t.Errorf("author projection: %v", v.Columns)
			}
		}
		if strings.EqualFold(v.Table, "customer") {
			// customer must not project every column: c_since etc. unused.
			if len(v.Columns) >= 12 {
				t.Errorf("customer projection not pruned: %v", v.Columns)
			}
		}
	}
}

func TestAdvisorDDLIsValid(t *testing.T) {
	advice := analyzed(t)
	b := core.NewBackend("backend2")
	if err := tpcw.Load(b, tpcw.Config{Items: 50, Customers: 80, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if err := b.DB.Analyze(); err != nil {
		t.Fatal(err)
	}
	c, err := core.NewCache("cache1", b, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, ddl := range advice.RecommendedViews() {
		if err := c.CreateCachedView(ddl); err != nil {
			t.Errorf("recommended DDL rejected: %v\n%s", err, ddl)
		}
	}
	for _, name := range advice.ProcsToCopy() {
		if err := c.CopyProcedure(name); err != nil {
			t.Errorf("recommended procedure copy failed: %v", err)
		}
	}
	// The advised configuration actually serves the hot queries locally.
	res, err := c.DB.Exec("EXEC getBestSellers 'ARTS'", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.RemoteQueries != 0 {
		t.Errorf("advised config should answer bestsellers locally (remote=%d)", res.Counters.RemoteQueries)
	}
}

func TestAdvisorWeightsScaleRecommendations(t *testing.T) {
	b := core.NewBackend("backend")
	if err := tpcw.Load(b, tpcw.Config{Items: 50, Customers: 80, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if err := b.DB.Analyze(); err != nil {
		t.Fatal(err)
	}
	// A write-only workload on orders must not recommend caching it.
	writeOnly := []WorkloadItem{
		{SQL: "EXEC doBuyConfirm 1, 1, '2003-06-09', 1, 1, 'AIR', 1, 1, 0.05, 1", Weight: 100},
	}
	advice, err := Analyze(b.DB.Catalog(), writeOnly, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range advice.Views {
		if strings.EqualFold(v.Table, "orders") && v.Recommended {
			t.Errorf("write-only orders table recommended for caching:\n%s", advice.Format())
		}
	}
}

func TestAdvisorAdHocStatements(t *testing.T) {
	b := core.NewBackend("backend")
	if err := tpcw.Load(b, tpcw.Config{Items: 50, Customers: 80, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if err := b.DB.Analyze(); err != nil {
		t.Fatal(err)
	}
	items := []WorkloadItem{
		{SQL: "SELECT i_title, i_cost FROM item WHERE i_subject = 'ARTS'", Weight: 50},
		{SQL: "UPDATE item SET i_stock = 1 WHERE i_id = 1", Weight: 1},
	}
	advice, err := Analyze(b.DB.Catalog(), items, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var item *ViewAdvice
	for i := range advice.Views {
		if strings.EqualFold(advice.Views[i].Table, "item") {
			item = &advice.Views[i]
		}
	}
	if item == nil || !item.Recommended {
		t.Fatal("item should be recommended")
	}
	want := map[string]bool{"i_title": true, "i_cost": true, "i_subject": true}
	for _, c := range item.Columns {
		if !want[strings.ToLower(c)] {
			t.Errorf("unexpected projected column %s", c)
		}
		delete(want, strings.ToLower(c))
	}
	if len(want) != 0 {
		t.Errorf("missing projected columns: %v", want)
	}
}

func TestAdvisorUnknownProcedure(t *testing.T) {
	b := core.NewBackend("backend")
	b.ExecScript("CREATE TABLE t (a INT PRIMARY KEY)")
	if _, err := Analyze(b.DB.Catalog(), []WorkloadItem{{SQL: "EXEC nope", Weight: 1}}, DefaultOptions()); err == nil {
		t.Fatal("unknown procedure should error")
	}
}

func TestAdvisorFormatReadable(t *testing.T) {
	advice := analyzed(t)
	out := advice.Format()
	if !strings.Contains(out, "cached view recommendations") || !strings.Contains(out, "stored procedure placement") {
		t.Error("format sections missing")
	}
	fmt.Fprintln(testingWriter{}, out)
}

type testingWriter struct{}

func (testingWriter) Write(p []byte) (int, error) { return len(p), nil }
