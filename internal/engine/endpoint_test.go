package engine

import (
	"math/rand"
	"strings"
	"testing"

	"mtcache/internal/exec"
	"mtcache/internal/sql"
	"mtcache/internal/types"
)

// endpointDB is t(id INT PRIMARY KEY, k INT, v INT) with an index on k, n
// rows, NULL and duplicate keys, then updates and deletes that leave stale
// index entries behind.
func endpointDB(t *testing.T, rng *rand.Rand, n int) *Database {
	t.Helper()
	db := New(Config{Name: "backend", Role: Backend})
	if err := db.ExecScript(`
		CREATE TABLE t (id INT PRIMARY KEY, k INT, v INT);
		CREATE INDEX ix_t_k ON t (k);
	`); err != nil {
		t.Fatal(err)
	}
	key := func() types.Value {
		if rng.Intn(6) == 0 {
			return types.Null
		}
		return types.NewInt(int64(rng.Intn(40)))
	}
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i)), key(), types.NewInt(int64(rng.Intn(100)))}
	}
	if err := db.BulkLoad("t", rows); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		var err error
		switch rng.Intn(5) {
		case 0:
			_, err = db.Exec("DELETE FROM t WHERE id = @id", exec.Params{"id": types.NewInt(int64(i))})
		case 1:
			_, err = db.Exec("UPDATE t SET k = @k WHERE id = @id", exec.Params{"id": types.NewInt(int64(i)), "k": key()})
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestEndpointMinMaxRule: the optimizer reads a global MIN or MAX of an
// index's leading column off the end of the index exactly when the index
// range holds exactly the qualifying rows, and the answer is the one a scan
// gives either way.
func TestEndpointMinMaxRule(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 50, 2000} {
		db := endpointDB(t, rng, n)
		all, err := db.Exec("SELECT id, k, v FROM t", nil)
		if err != nil {
			t.Fatal(err)
		}
		cases := []struct {
			query    string
			endpoint bool
			keep     func(id, k types.Value, p int64) bool
			col      int
			max      bool
		}{
			{"SELECT MAX(k) FROM t", true, nil, 1, true},
			{"SELECT MIN(k) FROM t", true, nil, 1, false},
			{"SELECT MAX(id) AS m FROM t", true, nil, 0, true},
			{"SELECT MIN(id) + 0 FROM t", true, nil, 0, false},
			{"SELECT MAX(k) FROM t WHERE k <= @p", true, func(_, k types.Value, p int64) bool { return !k.IsNull() && k.Int() <= p }, 1, true},
			{"SELECT MIN(k) FROM t WHERE k >= @p", true, func(_, k types.Value, p int64) bool { return !k.IsNull() && k.Int() >= p }, 1, false},
			{"SELECT MIN(k) FROM t WHERE k <= @p", true, func(_, k types.Value, p int64) bool { return !k.IsNull() && k.Int() <= p }, 1, false},
			{"SELECT MAX(k) FROM t WHERE k BETWEEN 5 AND @p", true, func(_, k types.Value, p int64) bool { return !k.IsNull() && k.Int() >= 5 && k.Int() <= p }, 1, true},
			{"SELECT MAX(k) FROM t WHERE k = @p", true, func(_, k types.Value, p int64) bool { return !k.IsNull() && k.Int() == p }, 1, true},
			// Not exactly an index range, or not one value: the rule stays out.
			{"SELECT MAX(k) FROM t WHERE k < @p", false, func(_, k types.Value, p int64) bool { return !k.IsNull() && k.Int() < p }, 1, true},
			{"SELECT MAX(k) FROM t WHERE id <= @p", false, func(id, _ types.Value, p int64) bool { return id.Int() <= p }, 1, true},
			{"SELECT MAX(v) FROM t", false, nil, 2, true},
			{"SELECT MAX(k + 1) - 1 FROM t", false, nil, 1, true},
		}
		for _, c := range cases {
			plan, err := db.Explain(c.query)
			if err != nil {
				t.Fatal(err)
			}
			if n >= 50 {
				want := " (first 1)"
				if c.max {
					want = " (last 1)"
				}
				if got := strings.Contains(plan, want); got != c.endpoint {
					t.Errorf("n=%d %s: endpoint read = %v, want %v:\n%s", n, c.query, got, c.endpoint, plan)
				}
				if c.endpoint && strings.Contains(plan, "Scan t") {
					t.Errorf("n=%d %s: an endpoint read next to a scan:\n%s", n, c.query, plan)
				}
			}
			for _, p := range []int64{-1, 0, 7, 20, 39, 1000} {
				want := types.Null
				for _, row := range all.Rows {
					v := row[c.col]
					if v.IsNull() || c.keep != nil && !c.keep(row[0], row[1], p) {
						continue
					}
					if want.IsNull() || (types.Compare(v, want) > 0) == c.max && types.Compare(v, want) != 0 {
						want = v
					}
				}
				res, err := db.Exec(c.query, exec.Params{"p": types.NewInt(p)})
				if err != nil {
					t.Fatalf("%s: %v", c.query, err)
				}
				if len(res.Rows) != 1 || types.Compare(res.Rows[0][0], want) != 0 || res.Rows[0][0].IsNull() != want.IsNull() {
					t.Errorf("n=%d %s with @p=%d: %v, a scan says %v", n, c.query, p, res.Rows, want)
				}
			}
			// A NULL bound compares true with nothing.
			if strings.Contains(c.query, "@p") {
				res, err := db.Exec(c.query, exec.Params{"p": types.Null})
				if err != nil || len(res.Rows) != 1 || !res.Rows[0][0].IsNull() {
					t.Errorf("n=%d %s with @p NULL: %v, %v", n, c.query, res, err)
				}
			}
		}
		// Several aggregates, or groups: one row per group from a scan, as before.
		for _, q := range []string{"SELECT MIN(k), MAX(k) FROM t", "SELECT k, MAX(k) FROM t GROUP BY k", "SELECT COUNT(*), MAX(k) FROM t"} {
			if plan, _ := db.Explain(q); strings.Contains(plan, " 1)") {
				t.Errorf("%s: endpoint read:\n%s", q, plan)
			}
		}
	}
}

// TestEndpointReadInsideWriteTransaction: a procedure that inserts and then
// asks for the MAX sees its own uncommitted row through the index.
func TestEndpointReadInsideWriteTransaction(t *testing.T) {
	db := endpointDB(t, rand.New(rand.NewSource(8)), 300)
	if err := db.ExecScript(`CREATE PROCEDURE addAndMax @id INT, @k INT AS BEGIN
		INSERT INTO t (id, k, v) VALUES (@id, @k, 0);
		SELECT MAX(k) FROM t;
	END`); err != nil {
		t.Fatal(err)
	}
	for i, k := range []int64{500, 10, 700} {
		res, err := db.CallProcedure("addAndMax", exec.Params{"id": types.NewInt(int64(10000 + i)), "k": types.NewInt(k)})
		if err != nil {
			t.Fatal(err)
		}
		want := []int64{500, 500, 700}[i]
		if len(res.Rows) != 1 || res.Rows[0][0].Int() != want {
			t.Errorf("after inserting k=%d: MAX(k) = %v, want %d", k, res.Rows, want)
		}
	}
}

// TestFailedExecutionDropsItsInstance: an execution that returns an error
// leaves its operator tree in whatever state the failure left it, so the tree
// is not parked; a clean one is, and the next execution takes it.
func TestFailedExecutionDropsItsInstance(t *testing.T) {
	db := endpointDB(t, rand.New(rand.NewSource(1)), 100)
	stmt, err := sql.Parse("SELECT id FROM t WHERE v / @z >= 0")
	if err != nil {
		t.Fatal(err)
	}
	sel := stmt.(*sql.SelectStmt)
	plan, err := db.Plan(sel)
	if err != nil {
		t.Fatal(err)
	}
	parked := func() int { n, _ := plan.Instances.Kept(); return n }
	if _, err := db.RunPlan(plan, exec.Params{"z": types.NewInt(0)}); err == nil {
		t.Fatal("division by zero did not fail the execution")
	}
	if parked() != 0 {
		t.Fatal("a failed execution parked its instance")
	}
	for i := 0; i < 3; i++ {
		res, err := db.RunPlan(plan, exec.Params{"z": types.NewInt(1)})
		if err != nil || len(res.Rows) < 50 {
			t.Fatalf("%d rows, %v", len(res.Rows), err)
		}
		if parked() != 1 {
			t.Fatalf("after clean execution %d the plan holds %d instances", i, parked())
		}
	}
	if _, err := db.RunPlan(plan, exec.Params{"z": types.NewInt(0)}); err == nil {
		t.Fatal("division by zero did not fail the execution")
	}
	if parked() != 0 {
		t.Fatal("a failed execution gave its instance back")
	}
}
