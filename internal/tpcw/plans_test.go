package tpcw

import (
	"flag"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"mtcache/internal/engine"
	"mtcache/internal/sql"
)

var updatePlans = flag.Bool("update-plans", false, "re-record testdata/procedure_plans.txt from today's planner")

const procedurePlansPath = "testdata/procedure_plans.txt"

// reEstimate matches an EXPLAIN header's estimates, which the pin leaves out.
var reEstimate = regexp.MustCompile(`(?m)^cost=\S+ card=\S+ `)

// adhocPlanShapes are join and aggregate shapes no procedure has: an uncached
// three-way join, two aggregates with HAVING, a grouped join over cached
// views, a LEFT JOIN and a join of a cached view with an uncached table.
var adhocPlanShapes = []string{
	"SELECT c.c_fname, a.addr_city, co.co_name FROM customer c, address a, country co " +
		"WHERE c.c_addr_id = a.addr_id AND a.addr_co_id = co.co_id AND c.c_id = 17",
	"SELECT COUNT(*) AS n FROM customer HAVING COUNT(*) > 5",
	"SELECT 1 AS one FROM customer HAVING COUNT(*) > 5",
	"SELECT i.i_subject, COUNT(*) AS n FROM item i, author a WHERE i.i_a_id = a.a_id GROUP BY i.i_subject ORDER BY n DESC",
	"SELECT c.c_id, o.o_id FROM customer c LEFT JOIN orders o ON o.o_c_id = c.c_id WHERE c.c_id = 5",
	"SELECT o.o_id, c.c_uname FROM orders o, customer c WHERE o.o_c_id = c.c_id AND o.o_id = 10",
}

// benchPlanShapes are the literal statements bench/workload.go's adhocLocal
// and adhocRemote send, each with one fixed key: item_point,
// item_author_join, subject_search, item_range100, order_line_agg,
// customer_point, customer_by_uname, customer_range100 and
// most_recent_order (its customer_address_country is the first of
// adhocPlanShapes). The texts are copied, since this package cannot import
// the bench module; keep them in step with it.
var benchPlanShapes = []string{
	"SELECT i_title, i_cost, i_srp FROM item WHERE i_id = 17",
	"SELECT i.i_title, a.a_fname, a.a_lname FROM item i, author a WHERE i.i_a_id = a.a_id AND i.i_id = 17",
	"SELECT TOP 50 i_id, i_title, i_cost FROM item WHERE i_subject = 'ARTS' ORDER BY i_title",
	"SELECT i_id, i_title FROM item WHERE i_id >= 17 AND i_id < 117",
	"SELECT COUNT(*), SUM(ol_qty) FROM order_line WHERE ol_i_id = 17",
	"SELECT c_fname, c_lname, c_email FROM customer WHERE c_id = 17",
	"SELECT c_id, c_passwd FROM customer WHERE c_uname = 'user17'",
	"SELECT c_id, c_uname FROM customer WHERE c_id >= 17 AND c_id < 117",
	"SELECT TOP 1 o.o_id, o.o_date, o.o_total, o.o_status, o.o_ship_type FROM customer c, orders o " +
		"WHERE c.c_uname = 'user17' AND o.o_c_id = c.c_id ORDER BY o.o_id DESC",
}

// TestProcedurePlansPinned pins the plan of every SELECT in every TPC-W
// procedure body, of adhocPlanShapes and of benchPlanShapes, on the backend
// and on its §6.1 cache: the operator tree, the SQL each DataTransfer ships,
// the location and the views used. cost= and card= are left out, so a change to a cost
// constant alone does not churn the file; a change that moves a plan does.
// benchPlanShapes are pinned as the front door plans them: EXPLAIN of the
// text through Database.Exec shows the auto-parameterized shape's plan, the
// one the plan cache holds and the bench runs. Re-record after a deliberate
// plan change:
//
//	go test ./internal/tpcw -run TestProcedurePlansPinned -update-plans
func TestProcedurePlansPinned(t *testing.T) {
	b, c := loadedPair(t, DefaultConfig())
	servers := []struct {
		name string
		db   *engine.Database
	}{{"backend", b.DB}, {"cache", c.DB}}
	var got strings.Builder
	pin := func(name, text string) {
		for _, srv := range servers {
			plan, err := srv.db.Explain(text)
			if err != nil {
				t.Fatalf("%s on the %s: %v", name, srv.name, err)
			}
			fmt.Fprintf(&got, "== %s on the %s\n%s\n", name, srv.name, reEstimate.ReplaceAllString(plan, ""))
		}
	}
	selects := 0
	for _, p := range b.DB.Catalog().Procedures() {
		for i, st := range p.Body {
			if sel, ok := st.(*sql.SelectStmt); ok {
				selects++
				pin(fmt.Sprintf("%s statement %d", p.Name, i), sql.Deparse(sel))
			}
		}
	}
	if selects != 15 {
		t.Fatalf("found %d procedure SELECTs, TPC-W's procedures have 15", selects)
	}
	for _, q := range adhocPlanShapes {
		pin(q, q)
	}
	for _, q := range benchPlanShapes {
		for _, srv := range servers {
			res, err := srv.db.Exec("EXPLAIN "+q, nil)
			if err != nil {
				t.Fatalf("EXPLAIN %s on the %s: %v", q, srv.name, err)
			}
			fmt.Fprintf(&got, "== EXPLAIN %s on the %s\n", q, srv.name)
			for _, row := range res.Rows {
				fmt.Fprintf(&got, "%s\n", reEstimate.ReplaceAllString(row[0].Str(), ""))
			}
			got.WriteString("\n")
			res.Release()
		}
	}
	if *updatePlans {
		if err := os.WriteFile(procedurePlansPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(procedurePlansPath)
	if err != nil {
		t.Fatal(err)
	}
	gotPlans, wantPlans := strings.Split(got.String(), "\n== "), strings.Split(string(want), "\n== ")
	if len(gotPlans) != len(wantPlans) {
		t.Fatalf("%d plans, %s has %d", len(gotPlans), procedurePlansPath, len(wantPlans))
	}
	for i := range gotPlans {
		if gotPlans[i] != wantPlans[i] {
			t.Errorf("plan differs from %s:\ngot:\n%s\nwant:\n%s", procedurePlansPath, gotPlans[i], wantPlans[i])
		}
	}
}

// An aggregate in HAVING alone still makes the statement one group: shipped
// whole, it is estimated at one row, as when the select list aggregates too.
func TestWholeStatementCountsHavingAggregate(t *testing.T) {
	_, c := loadedPair(t, DefaultConfig())
	for _, q := range []string{
		"SELECT COUNT(*) FROM customer HAVING COUNT(*) > 5",
		"SELECT 1 AS one FROM customer HAVING COUNT(*) > 5",
	} {
		plan, err := c.DB.Explain(q)
		if err != nil {
			t.Fatal(err)
		}
		header, _, _ := strings.Cut(plan, "\n")
		if !strings.Contains(header, " card=1 ") || !strings.Contains(header, "location=Remote") {
			t.Errorf("%s: want one estimated row, shipped whole:\n%s", q, plan)
		}
	}
}
