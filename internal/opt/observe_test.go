package opt

import (
	"strings"
	"testing"
	"time"

	"mtcache/internal/exec"
	"mtcache/internal/metrics"
	"mtcache/internal/types"
)

// ChoosePlan branch-selection counters: a parameterized query executed inside
// the cached range takes the local branch, outside it the remote branch —
// and the counters record exactly which branch fired.
func TestChoosePlanBranchCounters(t *testing.T) {
	b := newBackend(t)
	env, store := newCache(t, b)
	metrics.Default.Reset()

	p := optimize(t, env, "SELECT cname FROM customer WHERE cid = @cid")
	if !p.Dynamic {
		t.Fatalf("expected a dynamic plan:\n%s", Explain(p))
	}

	run := func(cid int64) {
		t.Helper()
		rs, _ := execute(t, p, store, b, exec.Params{"cid": types.NewInt(cid)})
		if len(rs.Rows) != 1 {
			t.Fatalf("cid=%d: rows=%d", cid, len(rs.Rows))
		}
	}

	run(5) // inside Cust1000: local branch
	if got := metrics.Default.Counter("opt.chooseplan_local").Value(); got != 1 {
		t.Errorf("chooseplan_local after in-range execution: %d", got)
	}
	if got := metrics.Default.Counter("opt.chooseplan_remote").Value(); got != 0 {
		t.Errorf("chooseplan_remote after in-range execution: %d", got)
	}

	run(1500) // outside Cust1000: remote branch
	if got := metrics.Default.Counter("opt.chooseplan_local").Value(); got != 1 {
		t.Errorf("chooseplan_local after out-of-range execution: %d", got)
	}
	if got := metrics.Default.Counter("opt.chooseplan_remote").Value(); got != 1 {
		t.Errorf("chooseplan_remote after out-of-range execution: %d", got)
	}
}

// A ChoosePlan pulled above a join (§5.1.2) labels its guard-true branch
// local: that branch reads the guarded view even when the join's other input
// ships rows through a DataTransfer, and its firing counts as a local one.
func TestPulledUpChoosePlanLabelsViewBranchLocal(t *testing.T) {
	b := newBackend(t)
	env, store := newCache(t, b)
	p := optimize(t, env, `SELECT c.cname, o.total FROM customer c, orders o
		WHERE c.cid <= @key AND c.cid = o.ckey AND o.okey <= 100`)
	text := Explain(p)
	if !p.Dynamic || strings.Count(text, "DataTransfer") != 2 {
		t.Fatalf("expected a pulled-up ChoosePlan with a DataTransfer under each branch:\n%s", text)
	}
	local := strings.Index(text, "StartupFilter (ChoosePlan branch=local)")
	remote := strings.Index(text, "StartupFilter (ChoosePlan branch=remote)")
	if local < 0 || remote < local {
		t.Fatalf("want the view branch labelled local, then the else branch remote:\n%s", text)
	}

	metrics.Default.Reset()
	execute(t, p, store, b, exec.Params{"key": types.NewInt(900)})
	if got := metrics.Default.Counter("opt.chooseplan_local").Value(); got != 1 {
		t.Errorf("chooseplan_local after @key=900: %d, want 1", got)
	}
	if got := metrics.Default.Counter("opt.chooseplan_remote").Value(); got != 0 {
		t.Errorf("chooseplan_remote after @key=900: %d, want 0", got)
	}
}

// Per-view hit/miss and plan-shape counters published by the planner.
func TestPlannerViewCounters(t *testing.T) {
	b := newBackend(t)
	env, _ := newCache(t, b)
	metrics.Default.Reset()

	optimize(t, env, "SELECT cname FROM customer WHERE cid <= 100")
	if got := metrics.Default.Counter("opt.view_hit.Cust1000").Value(); got != 1 {
		t.Errorf("view_hit.Cust1000: %d", got)
	}

	optimize(t, env, "SELECT total FROM orders WHERE okey = 7")
	if got := metrics.Default.Counter("opt.view_miss").Value(); got != 1 {
		t.Errorf("view_miss: %d", got)
	}
	if got := metrics.Default.Counter("opt.plan_remote").Value(); got != 1 {
		t.Errorf("plan_remote: %d", got)
	}

	optimize(t, env, "SELECT cname FROM customer WHERE cid = @cid")
	if got := metrics.Default.Counter("opt.plan_dynamic").Value(); got != 1 {
		t.Errorf("plan_dynamic: %d", got)
	}
}

// EXPLAIN of a dynamic plan must label each ChoosePlan branch with its
// location and show the DataTransfer boundary with its shipped SQL.
func TestExplainDynamicPlanGolden(t *testing.T) {
	b := newBackend(t)
	env, _ := newCache(t, b)
	p := optimize(t, env, "SELECT cid FROM customer WHERE cid <= @cid")
	text := Explain(p)
	for _, want := range []string{
		"dynamic(Fl=",
		"UnionAll",
		"StartupFilter (ChoosePlan branch=local)",
		"StartupFilter (ChoosePlan branch=remote)",
		"DataTransfer [SELECT",
		"Cust1000",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("explain missing %q:\n%s", want, text)
		}
	}
}

// EXPLAIN of a mixed-location plan shows location=Mixed and the boundary.
func TestExplainMixedLocationGolden(t *testing.T) {
	b := newBackend(t)
	env, _ := newCache(t, b)
	// customer is answerable from the cached view; orders is not, so its
	// subtree ships to the backend behind a DataTransfer.
	p := optimize(t, env, `SELECT c.cname, o.total FROM customer c, orders o
		WHERE c.cid = o.ckey AND c.cid <= 500 AND o.okey <= 100`)
	text := Explain(p)
	if p.FullyLocal || p.FullyRemote {
		t.Skipf("optimizer chose a single location; plan:\n%s", text)
	}
	for _, want := range []string{"location=Mixed", "DataTransfer [SELECT"} {
		if !strings.Contains(text, want) {
			t.Errorf("explain missing %q:\n%s", want, text)
		}
	}
}

// EXPLAIN ANALYZE of a dynamic plan: the executed branch reports actual rows
// and time, the pruned branch renders "(never executed)".
func TestExplainAnalyzeDynamicPlan(t *testing.T) {
	b := newBackend(t)
	env, store := newCache(t, b)
	p := optimize(t, env, "SELECT cid FROM customer WHERE cid <= @cid")
	if !p.Dynamic {
		t.Fatalf("expected a dynamic plan:\n%s", Explain(p))
	}

	analyze := func(cid int64) string {
		t.Helper()
		root := exec.Instrument(exec.CloneOperator(p.Root))
		tx := store.Begin(false)
		defer tx.Abort()
		start := time.Now()
		ctx := &exec.Ctx{Txn: tx, Remote: b, Counters: &exec.Counters{}}
		if err := ctx.Env.Bind(p.Params, exec.Params{"cid": types.NewInt(cid)}, nil); err != nil {
			t.Fatal(err)
		}
		rs, err := drain(root, ctx)
		if err != nil {
			t.Fatalf("execute: %v", err)
		}
		if len(rs.Rows) != int(cid) {
			t.Fatalf("cid=%d: rows=%d", cid, len(rs.Rows))
		}
		return ExplainAnalyze(p, root, time.Since(start))
	}

	// In-range: local branch executed, remote branch pruned.
	text := analyze(50)
	for _, want := range []string{
		"actual_time=",
		"UnionAll (actual rows=50",
		"StartupFilter (ChoosePlan branch=local) (actual rows=50",
		"[executed]",
		"StartupFilter (ChoosePlan branch=remote) (actual rows=0",
		"[pruned]",
		"(never executed)",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("analyze(50) missing %q:\n%s", want, text)
		}
	}

	// Out-of-range: remote branch executed through the DataTransfer.
	text = analyze(1500)
	for _, want := range []string{
		"StartupFilter (ChoosePlan branch=remote) (actual rows=1500",
		"DataTransfer [SELECT",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("analyze(1500) missing %q:\n%s", want, text)
		}
	}
	if !strings.Contains(text, "StartupFilter (ChoosePlan branch=local) (actual rows=0") {
		t.Errorf("analyze(1500): local branch should be pruned:\n%s", text)
	}
}
