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

// TestProcedurePlansPinned pins the plan of every SELECT in every TPC-W
// procedure body, and of adhocPlanShapes, on the backend and on its §6.1
// cache: the operator tree, the SQL each DataTransfer ships, the location and
// the views used. cost= and card= are left out, so a change to a cost
// constant alone does not churn the file; a change that moves a plan does.
// Re-record after a deliberate plan change:
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
