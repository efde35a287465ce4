package tpcw

import (
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"

	"mtcache/internal/core"
	"mtcache/internal/engine"
	"mtcache/internal/exec"
	"mtcache/internal/types"
)

// procBody returns the SELECT text of a single-statement procedure.
func procBody(t *testing.T, name string) string {
	t.Helper()
	for _, ddl := range ProcedureDDL {
		if strings.HasPrefix(ddl, "CREATE PROCEDURE "+name+" ") {
			return strings.TrimSpace(ddl[strings.Index(ddl, " AS")+3:])
		}
	}
	t.Fatalf("no procedure %s", name)
	return ""
}

func loadedPair(t *testing.T, cfg Config) (*core.BackendServer, *core.CacheServer) {
	t.Helper()
	b := core.NewBackend("backend")
	if err := Load(b, cfg); err != nil {
		t.Fatal(err)
	}
	c, err := core.NewCache("cache", b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := SetupCache(c); err != nil {
		t.Fatal(err)
	}
	return b, c
}

// The paper mirrors every backend index onto the cached views (§6.1); these
// pins hold the planner to using them: the join procedures seek the mirrored
// index per outer row instead of scanning and hashing the whole view.
func TestProcedurePlansSeekMirroredIndexes(t *testing.T) {
	b, c := loadedPair(t, DefaultConfig())
	const adhoc = "SELECT c.c_fname, a.addr_city, co.co_name FROM customer c, address a, country co " +
		"WHERE c.c_addr_id = a.addr_id AND a.addr_co_id = co.co_id AND c.c_id = 17"
	cases := []struct {
		name    string
		explain func(string) (string, error)
		query   string
		want    []string
		never   []string
	}{
		{"getRelated", c.DB.Explain, procBody(t, "getRelated"),
			[]string{"IndexJoin cv_item.__pk", "location=Local"}, []string{"Scan cv_item", "HashJoin"}},
		{"getBook", c.DB.Explain, procBody(t, "getBook"),
			[]string{"IndexJoin cv_author.__pk", "location=Local"}, []string{"Scan cv_item", "Scan cv_author", "HashJoin"}},
		{"getCart", c.DB.Explain, procBody(t, "getCart"),
			[]string{"IndexJoin cv_item.__pk", "DataTransfer [SELECT"}, []string{"Scan cv_item", "HashJoin"}},
		{"getBestSellers", c.DB.Explain, procBody(t, "getBestSellers"),
			[]string{"IndexJoin cv_order_line.cvx_ol_i_id", "IndexJoin cv_author.__pk", "IndexSeek cv_item.cvx_item_subject",
				"IndexSeek cv_orders.__pk (last 1)", "location=Local"},
			[]string{"Scan cv_order_line", "Scan cv_item", "Scan cv_author", "Scan cv_orders", "Gather", "HashJoin"}},
		{"customer_address_country", b.DB.Explain, adhoc,
			[]string{"IndexJoin address.__pk", "IndexJoin country.__pk", "IndexSeek customer.__pk"},
			[]string{"Scan address", "Scan country", "HashJoin"}},
	}
	for _, tc := range cases {
		plan, err := tc.explain(tc.query)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, w := range tc.want {
			if !strings.Contains(plan, w) {
				t.Errorf("%s: plan lacks %q:\n%s", tc.name, w, plan)
			}
		}
		for _, n := range tc.never {
			if strings.Contains(plan, n) {
				t.Errorf("%s: plan contains %q:\n%s", tc.name, n, plan)
			}
		}
	}
	// (SELECT MAX(o_id) FROM orders) is one row read off the end of the
	// mirrored primary key, not a scan of the view: the whole call examines
	// fewer rows than cv_orders has.
	res, err := c.DB.CallProcedure("getBestSellers", exec.Params{"subject": types.NewString("ARTS")})
	if err != nil {
		t.Fatal(err)
	}
	if orders := int64(c.DB.TableRowCount("cv_orders")); orders < 1000 || res.Counters.RowsScanned >= orders {
		t.Errorf("getBestSellers scanned %d rows, cv_orders has %d", res.Counters.RowsScanned, orders)
	}
	// The remote plan stays one transfer: a cheaper local join must not
	// split it into several.
	plan, err := c.DB.Explain(adhoc)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(plan, "DataTransfer ["); n != 1 || !strings.Contains(plan, "location=Remote") {
		t.Errorf("uncached three-way join should ship as one remote query (%d transfers):\n%s", n, plan)
	}
}

var (
	rePKColumn = regexp.MustCompile(` PRIMARY KEY`)
	rePKTable  = regexp.MustCompile(`,\s*PRIMARY KEY \([^)]*\)`)
	reIndex    = regexp.MustCompile(`(?m)^CREATE (UNIQUE )?INDEX .*$`)
)

// copyDatabase recreates src's TPC-W tables, rows and procedures in a fresh
// backend database built from ddl, with the intermediate-result cache off.
func copyDatabase(t *testing.T, src *engine.Database, cfg engine.Config, ddl string) *engine.Database {
	t.Helper()
	dst := engine.New(cfg)
	dst.SetIMCacheEnabled(false)
	if err := dst.ExecScript(ddl); err != nil {
		t.Fatal(err)
	}
	for _, tb := range src.Catalog().Tables() {
		if tb.IsView || tb.Virtual {
			continue
		}
		res, err := src.Exec("SELECT * FROM "+tb.Name, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := dst.BulkLoad(tb.Name, res.Rows); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range ProcedureDDL {
		if _, err := dst.Exec(p, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := dst.Analyze(); err != nil {
		t.Fatal(err)
	}
	return dst
}

func canonRows(rows []types.Row) string {
	out := make([]string, len(rows))
	for i, r := range rows {
		cells := make([]string, len(r))
		for j, v := range r {
			cells[j] = v.String()
		}
		out[i] = strings.Join(cells, "|")
	}
	sort.Strings(out)
	return strings.Join(out, "\n")
}

// TestProceduresAgreeAcrossJoinStrategies runs every read procedure that
// joins under each physical strategy the planner can reach and requires
// identical multisets: lookup joins (the backend and the cache, with the
// paper's indexes), hash joins in either orientation (a copy of the database
// stripped of every key and index), and serial vs parallel plans.
func TestProceduresAgreeAcrossJoinStrategies(t *testing.T) {
	cfg := Config{Items: 240, Customers: 300, OrdersPerCustomer: 0.9, Seed: 11}
	b, c := loadedPair(t, cfg)
	// A cart and a fresh order, so getCart and getOrderLines have rows.
	app := NewApp(core.ConnectBackend(b), cfg)
	s := app.NewSession(1)
	for _, in := range []Interaction{ShoppingCart, BuyConfirm, ShoppingCart} {
		if _, err := app.Run(s, in); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.SyncReplication(); err != nil {
		t.Fatal(err)
	}

	plainDDL := reIndex.ReplaceAllString(rePKColumn.ReplaceAllString(rePKTable.ReplaceAllString(SchemaDDL, ""), ""), "")
	hashOnly := copyDatabase(t, b.DB, engine.Config{Name: "hash"}, plainDDL)
	serial := copyDatabase(t, b.DB, engine.Config{Name: "serial"}, SchemaDDL)
	opts := serial.Options()
	opts.MaxDOP = 1
	serial.SetOptions(opts)
	if plan, err := hashOnly.Explain(procBody(t, "getBook")); err != nil || strings.Contains(plan, "Index") {
		t.Fatalf("the stripped copy still has an index to seek (%v):\n%s", err, plan)
	}

	servers := []struct {
		name string
		call func(string, exec.Params) (*engine.Result, error)
	}{
		{"backend", b.DB.CallProcedure}, {"cache", c.DB.CallProcedure},
		{"serial", serial.CallProcedure},
	}
	str, num := types.NewString, func(i int) types.Value { return types.NewInt(int64(i)) }
	calls := []struct {
		proc   string
		params []exec.Params
	}{
		{"getBook", []exec.Params{{"i_id": num(1)}, {"i_id": num(77)}, {"i_id": num(240)}, {"i_id": num(9999)}}},
		{"getRelated", []exec.Params{{"i_id": num(3)}, {"i_id": num(120)}, {"i_id": num(9999)}}},
		{"doSubjectSearch", []exec.Params{{"subject": str("ARTS")}, {"subject": str("TRAVEL")}, {"subject": str("NONE")}}},
		{"doTitleSearch", []exec.Params{{"title": str("%the%")}, {"title": str("%1")}, {"title": str("zzz%")}}},
		{"doAuthorSearch", []exec.Params{{"author": str("S%")}, {"author": str("%a%")}, {"author": str("Q%")}}},
		{"getNewProducts", []exec.Params{{"subject": str("COOKING")}, {"subject": str("YOUTH")}}},
		{"getBestSellers", []exec.Params{{"subject": str("ARTS")}, {"subject": str("HISTORY")}, {"subject": str("NONE")}}},
		{"getCart", []exec.Params{{"sc_id": num(1)}, {"sc_id": num(2)}, {"sc_id": num(999)}}},
		{"getMostRecentOrder", []exec.Params{{"uname": str(Uname(5))}, {"uname": str(Uname(123))}, {"uname": str("nobody")}}},
		{"getOrderLines", []exec.Params{{"o_id": num(1)}, {"o_id": num(200)}, {"o_id": num(271)}, {"o_id": num(99999)}}},
	}
	checked := 0
	for _, call := range calls {
		for _, p := range call.params {
			ref, err := hashOnly.CallProcedure(call.proc, p)
			if err != nil {
				t.Fatalf("%s %v on the hash-only copy: %v", call.proc, p, err)
			}
			want := canonRows(ref.Rows)
			checked += len(ref.Rows)
			for _, srv := range servers {
				res, err := srv.call(call.proc, p)
				if err != nil {
					t.Fatalf("%s %v on %s: %v", call.proc, p, srv.name, err)
				}
				if got := canonRows(res.Rows); got != want {
					t.Errorf("%s %v: %s returned\n%s\nhash-only copy returned\n%s", call.proc, p, srv.name, got, want)
				}
			}
		}
	}
	if checked < 150 {
		t.Fatalf("only %d reference rows: the comparison is nearly empty", checked)
	}
}

// Allocation regression gate for the procedures whose cost is join output.
// A warm getRelated or getBook on a cache seeks one row through the mirrored
// primary key; scanning and hashing the view instead costs 1 085 allocations
// / 322 KiB and 321 / 90 KiB per call, so the bounds fail loudly if the
// planner falls back. getBestSellers (HashAgg over NestedLoop over two
// IndexJoins, the newest order read off the end of cv_orders' key),
// doTitleSearch (LIKE over the item view through an Exchange, then a sort) and
// the two subject searches are where a cache's bytes went: on a fresh clone
// of the plan per call they cost 522 allocations / 225 KiB, 181 / 106,
// 96 / 61 and 96 / 55 with these parameters. A call now runs on an instance
// the plan kept from the call before, and what it allocates is its result
// plus what Open derives from the snapshot. Ceilings are about 15 % over what
// each measures now (23 / 1.4, 23 / 2.1, 31 / 10.4, 67 / 31.0, 25 / 15.7 and
// 25 / 13.1).
func TestJoinProcedureAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	_, c := loadedPair(t, DefaultConfig())
	// The exact-match result tier would answer a repeated call without
	// planning or executing anything; the gate is on the join itself.
	c.DB.SetIMCacheEnabled(false)
	for _, g := range []struct {
		proc    string
		params  exec.Params
		minRows int
		allocs  float64
		kib     float64
	}{
		{"getRelated", exec.Params{"i_id": types.NewInt(417)}, 1, 27, 1.7},
		{"getBook", exec.Params{"i_id": types.NewInt(417)}, 1, 27, 2.5},
		{"getBestSellers", exec.Params{"subject": types.NewString("ARTS")}, 10, 36, 12},
		{"doTitleSearch", exec.Params{"title": types.NewString("%the%")}, 10, 78, 36},
		{"getNewProducts", exec.Params{"subject": types.NewString("ARTS")}, 10, 29, 18.5},
		{"doSubjectSearch", exec.Params{"subject": types.NewString("ARTS")}, 10, 29, 15.5},
	} {
		call := func() {
			res, err := c.DB.CallProcedure(g.proc, g.params)
			if err != nil || len(res.Rows) < g.minRows {
				t.Fatalf("%s: %d rows, %v", g.proc, len(res.Rows), err)
			}
		}
		call() // warm the plan cache
		const runs = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(runs, call)
		runtime.ReadMemStats(&after)
		kib := float64(after.TotalAlloc-before.TotalAlloc) / float64(runs+1) / 1024
		t.Logf("%s: %.0f allocs, %.1f KiB per call", g.proc, allocs, kib)
		if allocs > g.allocs || kib > g.kib {
			t.Errorf("%s: %.0f allocs and %.1f KiB per call, want at most %.0f and %.1f", g.proc, allocs, kib, g.allocs, g.kib)
		}
	}
}
