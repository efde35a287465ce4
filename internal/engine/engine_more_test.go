package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"mtcache/internal/opt"
	"mtcache/internal/types"
)

func TestDropStatements(t *testing.T) {
	db := newBackendDB(t)
	db.ExecScript(`CREATE VIEW v AS SELECT i_id FROM item;
		CREATE PROCEDURE p1 AS SELECT COUNT(*) FROM item`)
	if _, err := db.Exec("DROP VIEW v", nil); err != nil {
		t.Fatal(err)
	}
	if db.Catalog().Table("v") != nil {
		t.Error("view not dropped")
	}
	if _, err := db.Exec("DROP PROCEDURE p1", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("DROP TABLE orders", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("SELECT * FROM orders", nil); err == nil {
		t.Error("dropped table still queryable")
	}
	if _, err := db.Exec("DROP TABLE missing", nil); err == nil {
		t.Error("dropping a missing table should fail")
	}
}

func TestPlainViewExpansion(t *testing.T) {
	db := newBackendDB(t)
	if err := db.ExecScript(`CREATE VIEW cheapview AS SELECT i_id, i_cost FROM item WHERE i_cost <= 20`); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec("SELECT COUNT(*) FROM cheapview", nil)
	if err != nil {
		t.Fatal(err)
	}
	// costs are i+0.5 for i in 1..200 → <= 20 means i <= 19.
	if res.Rows[0][0].Int() != 19 {
		t.Errorf("view rows: %v", res.Rows[0][0])
	}
	// Views of views.
	if err := db.ExecScript(`CREATE VIEW cheaper AS SELECT i_id FROM cheapview WHERE i_cost <= 10`); err != nil {
		t.Fatal(err)
	}
	res, _ = db.Exec("SELECT COUNT(*) FROM cheaper", nil)
	if res.Rows[0][0].Int() != 9 {
		t.Errorf("nested view rows: %v", res.Rows[0][0])
	}
}

func TestSetOptionsInvalidatesPlans(t *testing.T) {
	db := newBackendDB(t)
	db.Exec("SELECT i_id FROM item WHERE i_id = 1", nil)
	if db.PlanCacheSize() == 0 {
		t.Fatal("plan not cached")
	}
	o := opt.DefaultOptions()
	o.RemoteCostFactor = 3
	db.SetOptions(o)
	if db.PlanCacheSize() != 0 {
		t.Error("SetOptions should clear the plan cache")
	}
	if db.Options().RemoteCostFactor != 3 {
		t.Error("options not stored")
	}
}

func TestBulkLoadValidation(t *testing.T) {
	db := newBackendDB(t)
	if err := db.BulkLoad("missing", nil); err == nil {
		t.Error("bulk load into missing table should fail")
	}
	err := db.BulkLoad("orders", []types.Row{{types.NewInt(1)}})
	if err == nil {
		t.Error("width mismatch should fail")
	}
	err = db.BulkLoad("orders", []types.Row{
		{types.NewInt(1), types.NewInt(2), types.NewInt(3)},
		{types.NewString("4"), types.NewInt(5), types.NewInt(6)}, // cast applies
	})
	if err != nil {
		t.Fatal(err)
	}
	if db.TableRowCount("orders") != 2 {
		t.Error("bulk rows missing")
	}
}

func TestInsertSelectStatement(t *testing.T) {
	db := newBackendDB(t)
	db.ExecScript(`CREATE TABLE archive (a_id INT PRIMARY KEY, a_cost FLOAT)`)
	res, err := db.Exec("INSERT INTO archive (a_id, a_cost) SELECT i_id, i_cost FROM item WHERE i_id <= 30", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 30 {
		t.Errorf("insert-select affected %d", res.RowsAffected)
	}
}

func TestUpdateNoMatchesAffectsZero(t *testing.T) {
	db := newBackendDB(t)
	res, err := db.Exec("UPDATE item SET i_cost = 1 WHERE i_id = 99999", nil)
	if err != nil || res.RowsAffected != 0 {
		t.Errorf("no-match update: %v affected=%d", err, res.RowsAffected)
	}
	res, err = db.Exec("DELETE FROM item WHERE i_id = 99999", nil)
	if err != nil || res.RowsAffected != 0 {
		t.Errorf("no-match delete: %v affected=%d", err, res.RowsAffected)
	}
}

func TestUpdateAllRowsNoWhere(t *testing.T) {
	db := newBackendDB(t)
	res, err := db.Exec("UPDATE orders SET o_qty = 0", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 0 { // orders is empty in this fixture
		t.Errorf("affected: %d", res.RowsAffected)
	}
	db.Exec("INSERT INTO orders (o_id, o_i_id, o_qty) VALUES (1, 1, 5)", nil)
	db.Exec("INSERT INTO orders (o_id, o_i_id, o_qty) VALUES (2, 2, 5)", nil)
	res, _ = db.Exec("UPDATE orders SET o_qty = 9", nil)
	if res.RowsAffected != 2 {
		t.Errorf("update-all affected: %d", res.RowsAffected)
	}
}

func TestDMLRejectsBadColumn(t *testing.T) {
	db := newBackendDB(t)
	if _, err := db.Exec("UPDATE item SET nope = 1 WHERE i_id = 1", nil); err == nil {
		t.Error("bad SET column")
	}
	if _, err := db.Exec("INSERT INTO item (nope) VALUES (1)", nil); err == nil {
		t.Error("bad insert column")
	}
	if _, err := db.Exec("INSERT INTO missing (a) VALUES (1)", nil); err == nil {
		t.Error("missing table")
	}
}

// Model-based transaction test: random committed DML against a Go map model
// must agree at every checkpoint; procedures that fail must leave no trace.
func TestRandomDMLMatchesModel(t *testing.T) {
	db := New(Config{Name: "model", Role: Backend})
	if err := db.ExecScript(`CREATE TABLE kv (k INT PRIMARY KEY, v INT)`); err != nil {
		t.Fatal(err)
	}
	model := map[int64]int64{}
	r := rand.New(rand.NewSource(11))
	for step := 0; step < 800; step++ {
		k := int64(r.Intn(60))
		v := int64(r.Intn(1000))
		_, exists := model[k]
		switch r.Intn(3) {
		case 0: // insert
			_, err := db.Exec(fmt.Sprintf("INSERT INTO kv (k, v) VALUES (%d, %d)", k, v), nil)
			if exists {
				if err == nil {
					t.Fatalf("step %d: duplicate insert succeeded", step)
				}
			} else {
				if err != nil {
					t.Fatalf("step %d: insert failed: %v", step, err)
				}
				model[k] = v
			}
		case 1: // update
			res, err := db.Exec(fmt.Sprintf("UPDATE kv SET v = %d WHERE k = %d", v, k), nil)
			if err != nil {
				t.Fatal(err)
			}
			if exists {
				if res.RowsAffected != 1 {
					t.Fatalf("step %d: update affected %d", step, res.RowsAffected)
				}
				model[k] = v
			} else if res.RowsAffected != 0 {
				t.Fatalf("step %d: phantom update", step)
			}
		case 2: // delete
			res, err := db.Exec(fmt.Sprintf("DELETE FROM kv WHERE k = %d", k), nil)
			if err != nil {
				t.Fatal(err)
			}
			if exists != (res.RowsAffected == 1) {
				t.Fatalf("step %d: delete mismatch", step)
			}
			delete(model, k)
		}
		if step%100 == 99 {
			res, err := db.Exec("SELECT COUNT(*), SUM(v) FROM kv", nil)
			if err != nil {
				t.Fatal(err)
			}
			var sum int64
			for _, mv := range model {
				sum += mv
			}
			if res.Rows[0][0].Int() != int64(len(model)) {
				t.Fatalf("step %d: count %d model %d", step, res.Rows[0][0].Int(), len(model))
			}
			if len(model) > 0 && res.Rows[0][1].Int() != sum {
				t.Fatalf("step %d: sum %d model %d", step, res.Rows[0][1].Int(), sum)
			}
		}
	}
}

// Regression: cached plans are shared across sessions, so concurrent
// executions of the same statement must not share operator state. Run with
// -race to catch violations.
func TestConcurrentExecutionOfCachedPlan(t *testing.T) {
	db := newBackendDB(t)
	const workers = 8
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			for i := 0; i < 50; i++ {
				res, err := db.Exec("SELECT COUNT(*), SUM(i_cost) FROM item WHERE i_id <= 150", nil)
				if err != nil {
					errs <- err
					return
				}
				if res.Rows[0][0].Int() != 150 {
					errs <- fmt.Errorf("wrong count %d", res.Rows[0][0].Int())
					return
				}
			}
			errs <- nil
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if db.PlanCacheSize() != 1 {
		t.Errorf("plan cache size %d, want 1 (all workers share one plan)", db.PlanCacheSize())
	}
}
