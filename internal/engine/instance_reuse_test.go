package engine

import (
	"fmt"
	"reflect"
	"testing"

	"mtcache/internal/exec"
	"mtcache/internal/opt"
	"mtcache/internal/sql"
	"mtcache/internal/types"
)

// leafKinds names the operator types of a plan's tree.
func leafKinds(op exec.Operator, into map[string]bool) map[string]bool {
	into[reflect.TypeOf(op).Elem().Name()] = true
	for i := 0; op.Child(i) != nil; i++ {
		leafKinds(*op.Child(i), into)
	}
	return into
}

// freshRun is what a fresh clone of plan's template returns on a snapshot
// of its own: the answer a parked instance must give too.
func freshRun(t *testing.T, db *Database, plan *opt.Plan, params exec.Params) []types.Row {
	t.Helper()
	tx := db.Store().Begin(false)
	defer tx.Abort()
	var rs exec.ResultSet
	ctx := exec.Ctx{Txn: tx}
	if err := ctx.Env.Bind(plan.Params, params, nil); err != nil {
		t.Fatal(err)
	}
	if err := exec.Run(exec.CloneOperator(plan.Root), &ctx, &rs); err != nil {
		t.Fatal(err)
	}
	return rs.Rows
}

func planOfText(t *testing.T, db *Database, text string) *opt.Plan {
	t.Helper()
	stmt, err := sql.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := db.Plan(stmt.(*sql.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestParkedInstanceSeesTheNextSnapshot: an instance parked after one
// execution binds its table and index views again at the next. A plan with
// Scan, IndexScan and IndexJoin leaves runs, parks its instance, and then
// commits an insert, an update of an indexed column and a delete, each of a
// row the plan returns or starts to return; the next execution, on the
// parked instance, returns what a fresh clone returns. Inside a write
// transaction, a procedure body's SELECT run on its parked instance sees the
// row the body has just inserted.
func TestParkedInstanceSeesTheNextSnapshot(t *testing.T) {
	db := New(Config{Name: "backend", Role: Backend})
	if err := db.ExecScript(`
		CREATE TABLE t (id INT PRIMARY KEY, k INT, v INT);
		CREATE INDEX ix_t_k ON t (k);
	`); err != nil {
		t.Fatal(err)
	}
	rows := make([]types.Row, 400)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 40)), types.NewInt(int64(i % 100))}
	}
	if err := db.BulkLoad("t", rows); err != nil {
		t.Fatal(err)
	}
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	queries := []struct {
		text   string
		params exec.Params
		leaves []string
	}{
		// Scan of a (v is not indexed), seeks into b's primary key.
		{"SELECT a.id, a.k, b.id, b.v FROM t a, t b WHERE a.v < @v AND b.id = a.k",
			exec.Params{"v": types.NewInt(10)}, []string{"Scan", "IndexJoin"}},
		// Range read of a's ix_t_k, seeks into b's primary key.
		{"SELECT a.id, a.v, b.id, b.k FROM t a, t b WHERE a.k = @k AND b.id = a.v",
			exec.Params{"k": types.NewInt(7)}, []string{"IndexScan", "IndexJoin"}},
	}
	parked := func(plan *opt.Plan) int { n, _ := plan.Instances.Kept(); return n }
	for qi, q := range queries {
		plan := planOfText(t, db, q.text)
		kinds := leafKinds(plan.Root, map[string]bool{})
		for _, leaf := range q.leaves {
			if !kinds[leaf] {
				t.Fatalf("%s: no %s in the plan:\n%s", q.text, leaf, opt.Explain(plan))
			}
		}
		first, err := db.RunPlan(plan, q.params)
		if err != nil {
			t.Fatal(err)
		}
		// Each step changes what the plan returns: a row inserted into the
		// result, its indexed k moved (out of a.k = 7, to another b), an
		// existing row's k moved into the result, that row deleted.
		id, old := 1000+qi, 1+qi
		steps := []string{
			fmt.Sprintf("INSERT INTO t (id, k, v) VALUES (%d, 7, 3)", id),
			fmt.Sprintf("UPDATE t SET k = 9 WHERE id = %d", id),
			fmt.Sprintf("UPDATE t SET k = 7 WHERE id = %d", old),
			fmt.Sprintf("DELETE FROM t WHERE id = %d", old),
		}
		prev := first.Rows
		for _, step := range steps {
			if _, err := db.Exec(step, nil); err != nil {
				t.Fatalf("%s: %v", step, err)
			}
			if parked(plan) != 1 {
				t.Fatalf("%s: %d instances parked before the next execution, want 1", q.text, parked(plan))
			}
			want := freshRun(t, db, plan, q.params)
			res, err := db.RunPlan(plan, q.params)
			if err != nil {
				t.Fatal(err)
			}
			if parked(plan) != 1 {
				t.Fatalf("%s: the execution did not park its instance again", q.text)
			}
			if !reflect.DeepEqual(res.Rows, want) {
				t.Fatalf("%s after %s: the parked instance returns %v, a fresh clone %v", q.text, step, res.Rows, want)
			}
			if reflect.DeepEqual(res.Rows, prev) {
				t.Fatalf("%s: %s does not change the result, so it checks nothing", q.text, step)
			}
			prev = res.Rows
		}
	}

	// Inside a write transaction: the body's SELECT reads the transaction's
	// view, its own INSERT included.
	if err := db.ExecScript(`CREATE PROCEDURE addAndJoin @id INT, @k INT, @v INT AS BEGIN
		INSERT INTO t (id, k, v) VALUES (@id, @k, @v);
		SELECT a.id, b.id FROM t a, t b WHERE a.k = @k AND b.id = a.v;
	END`); err != nil {
		t.Fatal(err)
	}
	body := planOfText(t, db, "SELECT a.id, b.id FROM t a, t b WHERE a.k = @k AND b.id = a.v")
	for i, k := range []int64{41, 41, 42, 41} {
		id := int64(20000 + i)
		params := exec.Params{"id": types.NewInt(id), "k": types.NewInt(k), "v": types.NewInt(int64(100 + i))}
		if i > 0 && parked(body) != 1 {
			t.Fatalf("call %d: %d instances of the body's SELECT parked, want 1", i, parked(body))
		}
		res, err := db.CallProcedure("addAndJoin", params)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, row := range res.Rows {
			found = found || row[0].Int() == id
		}
		if !found {
			t.Fatalf("call %d: the body's SELECT does not see its own INSERT of id %d: %v", i, id, res.Rows)
		}
		if want := freshRun(t, db, body, exec.Params{"k": types.NewInt(k)}); !reflect.DeepEqual(res.Rows, want) {
			t.Fatalf("call %d: the body's SELECT returns %v, a fresh clone after the commit %v", i, res.Rows, want)
		}
	}
	if parked(body) != 1 {
		t.Fatalf("%d instances of the body's SELECT parked, want 1", parked(body))
	}
}
