package engine

import (
	"regexp"
	"strconv"
	"strings"
	"testing"

	"mtcache/internal/opt"
	"mtcache/internal/sql"
	"mtcache/internal/trace"
	"mtcache/internal/types"
)

// planText runs an EXPLAIN [ANALYZE] statement through the full SQL path and
// returns the plan column joined into one string.
func planText(t *testing.T, db *Database, stmt string, params map[string]types.Value) string {
	t.Helper()
	res, err := db.Exec(stmt, params)
	if err != nil {
		t.Fatalf("%s: %v", stmt, err)
	}
	if len(res.Cols) != 1 || res.Cols[0].Name != "plan" {
		t.Fatalf("EXPLAIN must return a single plan column, got %+v", res.Cols)
	}
	var b strings.Builder
	for _, row := range res.Rows {
		b.WriteString(row[0].Str())
		b.WriteByte('\n')
	}
	return b.String()
}

func TestExplainStatementSQL(t *testing.T) {
	_, cache := newCachePair(t)
	text := planText(t, cache, "EXPLAIN SELECT i_title FROM item WHERE i_id = 17", nil)
	for _, want := range []string{"location=Remote", "DataTransfer [SELECT"} {
		if !strings.Contains(text, want) {
			t.Errorf("explain missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "actual rows=") {
		t.Errorf("plain EXPLAIN must not execute:\n%s", text)
	}
}

func TestExplainAnalyzeStatementSQL(t *testing.T) {
	_, cache := newCachePair(t)
	text := planText(t, cache, "EXPLAIN ANALYZE SELECT i_title FROM item WHERE i_id = 17", nil)
	for _, want := range []string{"actual_time=", "actual rows=1", "DataTransfer [SELECT"} {
		if !strings.Contains(text, want) {
			t.Errorf("explain analyze missing %q:\n%s", want, text)
		}
	}
}

func TestExplainAnalyzeDynamicBranchSQL(t *testing.T) {
	_, cache := newCachePair(t)
	if _, err := cache.Exec("CREATE CACHED VIEW items100 AS SELECT i_id, i_title FROM item WHERE i_id <= 100", nil); err != nil {
		t.Fatal(err)
	}
	// A parameterized point query straddling the cached range yields a
	// dynamic plan; EXPLAIN shows both ChoosePlan branches.
	text := planText(t, cache, "EXPLAIN SELECT i_title FROM item WHERE i_id = @id", nil)
	for _, want := range []string{
		"dynamic(Fl=",
		"StartupFilter (ChoosePlan branch=local)",
		"StartupFilter (ChoosePlan branch=remote)",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("explain missing %q:\n%s", want, text)
		}
	}
	// ANALYZE outside the cached range executes the remote branch only.
	text = planText(t, cache, "EXPLAIN ANALYZE SELECT i_title FROM item WHERE i_id = @id",
		map[string]types.Value{"id": types.NewInt(150)})
	for _, want := range []string{
		"StartupFilter (ChoosePlan branch=remote) (actual rows=1",
		"[executed]",
		"StartupFilter (ChoosePlan branch=local) (actual rows=0",
		"[pruned]",
		"(never executed)",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("explain analyze missing %q:\n%s", want, text)
		}
	}
}

// TestExplainLiteralTextExplainsItsShapePlan: literal text executes its
// shape's shared plan, so that is the plan EXPLAIN shows for it. Over a
// predicate view an in-guard and an out-of-guard literal render one ChoosePlan
// tree with opposite branches fired, and no EXPLAIN adds a plan-cache entry
// of its own.
func TestExplainLiteralTextExplainsItsShapePlan(t *testing.T) {
	_, cache := newCachePair(t)
	if _, err := cache.Exec("CREATE CACHED VIEW items100 AS SELECT i_id, i_title FROM item WHERE i_id <= 100", nil); err != nil {
		t.Fatal(err)
	}
	const query = "SELECT i_title FROM item WHERE i_id = "
	// shape strips the run-time annotations, leaving the operator outline.
	annotation := regexp.MustCompile(` \((actual [^)]*|never executed)\)| \[(executed|pruned)\]| actual_time=\S+`)
	shape := func(text string) string { return annotation.ReplaceAllString(text, "") }

	plain := planText(t, cache, "EXPLAIN "+query+"50", nil)
	in := planText(t, cache, "EXPLAIN ANALYZE "+query+"50", nil)
	out := planText(t, cache, "EXPLAIN ANALYZE "+query+"150", nil)
	if shape(in) != plain || shape(out) != plain {
		t.Errorf("one shape, three trees:\n%s\n%s\n%s", plain, in, out)
	}
	for _, c := range []struct{ text, fired, pruned string }{
		{in, "local", "remote"},
		{out, "remote", "local"},
	} {
		for _, want := range []string{
			`branch=` + c.fired + `\) \(actual [^)]*\) \[executed\]`,
			`branch=` + c.pruned + `\) \(actual rows=0 [^)]*\) \[pruned\]`,
		} {
			if !regexp.MustCompile(want).MatchString(c.text) {
				t.Errorf("explain analyze does not match %q:\n%s", want, c.text)
			}
		}
	}

	before := cache.PlanCacheSize()
	for i := 0; i < 300; i++ {
		stmt := "EXPLAIN "
		if i%2 == 1 {
			stmt += "ANALYZE "
		}
		planText(t, cache, stmt+query+strconv.Itoa(1000+i), nil)
	}
	if after := cache.PlanCacheSize(); after != before {
		t.Errorf("300 EXPLAINs with distinct literals grew the plan cache from %d to %d entries", before, after)
	}
}

func TestExplainRejectsNesting(t *testing.T) {
	db := newBackendDB(t)
	if _, err := db.Exec("EXPLAIN EXPLAIN SELECT i_id FROM item", nil); err == nil {
		t.Error("nested EXPLAIN should fail to parse")
	}
}

// TestInstrumentedRunIsBatchExecution: EXPLAIN ANALYZE and slow-plan capture
// time the execution production runs. An instrumented filter + computed
// projection over N rows returns the rows and RowsScanned of the plain run,
// and allocates per batch, not per row.
func TestInstrumentedRunIsBatchExecution(t *testing.T) {
	const query = "SELECT b_id, b_val + 1.0 AS v FROM big WHERE b_val >= 100.0"
	db := benchDB(t, benchRows)
	stmt, err := sql.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := db.Plan(stmt.(*sql.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	plain, shell, err := db.runPlan(nil, plan, nil, nil, trace.Begin(db.Name), false)
	if err != nil || shell != nil {
		t.Fatalf("plain run: shell %v, err %v", shell, err)
	}
	inst, shell, err := db.runPlan(nil, plan, nil, nil, trace.Begin(db.Name), true)
	if err != nil {
		t.Fatal(err)
	}
	const out = benchRows * 9 / 10 // b_val cycles 0..999
	if len(plain.Rows) != out || shell.Stats.Rows != out {
		t.Fatalf("plain run returned %d rows, the instrumented root counted %d, want %d", len(plain.Rows), shell.Stats.Rows, out)
	}
	if got, want := imCanon(inst.Rows), imCanon(plain.Rows); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatal("instrumented and plain runs returned different rows")
	}
	if inst.Counters != plain.Counters || plain.Counters.RowsScanned != benchRows {
		t.Fatalf("counters: instrumented %+v, plain %+v", inst.Counters, plain.Counters)
	}
	// The Filter looks through the shell around its scan and fuses the
	// predicate into the scan loop as the plain run does: the scan line
	// reports the rows that passed, RowsScanned (above) the rows examined.
	for _, text := range []string{
		opt.ExplainAnalyze(plan, shell, 0),
		planText(t, db, "EXPLAIN ANALYZE "+query, nil),
	} {
		for _, want := range []string{"Scan big (actual rows=18000 ", "Filter (actual rows=18000 "} {
			if !strings.Contains(text, want) {
				t.Errorf("explain analyze missing %q:\n%s", want, text)
			}
		}
	}
	if raceEnabled {
		return // allocation counts are distorted under -race
	}
	rec := trace.Begin(db.Name)
	allocs := testing.AllocsPerRun(5, func() {
		if _, _, err := db.runPlan(nil, plan, nil, nil, rec, true); err != nil {
			t.Fatal(err)
		}
	})
	// One output chunk per 64-row batch plus per-execution setup; a make per
	// projected row would be 18 000.
	if limit := float64(2*benchRows/64 + 100); allocs > limit {
		t.Errorf("instrumented run: %.0f allocs for %d rows, want at most %.0f", allocs, benchRows, limit)
	}
}

// Exec records a finished trace whose remote round-trip carries the grafted
// backend-side span tree (stitched via the shared trace ID).
func TestExecRecordsStitchedTrace(t *testing.T) {
	_, cache := newCachePair(t)
	res, err := cache.Exec("SELECT i_title FROM item WHERE i_id = 17", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceID == "" {
		t.Fatal("Result.TraceID not set")
	}
	tr := trace.Traces.Last()
	if tr == nil || tr.ID != res.TraceID {
		t.Fatalf("last trace %+v does not match result trace ID %q", tr, res.TraceID)
	}
	for _, name := range []string{"optimize", "execute", "remote", "backend.exec"} {
		if tr.FindSpan(name) == nil {
			t.Errorf("trace missing span %q:\n%s", name, trace.Render(tr))
		}
	}
	// Both servers resolve the text through the front door: the cache shares
	// the remote-going shape's statement, the backend the forwarded one's.
	for _, name := range []string{"cache1.exec", "backend.exec"} {
		if got := tr.FindSpan(name).AttrValue("autoparam"); got != "1" {
			t.Errorf("span %q: autoparam=%q, want \"1\":\n%s", name, got, trace.Render(tr))
		}
	}
	if tr.FindSpan("parse") != nil {
		t.Errorf("a statement was parsed on the request path:\n%s", trace.Render(tr))
	}
	// The backend ran its half under the cache's trace ID: its own record,
	// kept just before the cache's, carries it.
	if back := trace.Traces.Recent(2)[1]; back.Server != "backend" || back.ID != tr.ID {
		t.Errorf("backend record %s.exec has trace ID %q, want %q", back.Server, back.ID, tr.ID)
	}
	if tr.FindSpan("remote").AttrValue("sql") == "" {
		t.Error("remote span should record the shipped SQL")
	}
}
