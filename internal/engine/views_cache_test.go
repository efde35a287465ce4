package engine

import (
	"fmt"
	"testing"

	"mtcache/internal/catalog"
	"mtcache/internal/types"
)

// TestMVPlanCachePerDatabase: a view's maintenance belongs to one Database —
// two databases with a same-named view maintain independently.
func TestMVPlanCachePerDatabase(t *testing.T) {
	a := newBackendDB(t)
	b := newBackendDB(t)
	for _, db := range []*Database{a, b} {
		if err := db.ExecScript(`CREATE MATERIALIZED VIEW cheap AS SELECT i_id, i_cost FROM item WHERE i_cost <= 50`); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Exec("INSERT INTO item (i_id, i_title, i_cost) VALUES (700, 'x', 5)", nil); err != nil {
		t.Fatal(err)
	}
	a.InvalidatePlans() // maintenance is not a cache: nothing of it to lose
	if _, err := a.Exec("INSERT INTO item (i_id, i_title, i_cost) VALUES (701, 'x', 5)", nil); err != nil {
		t.Fatal(err)
	}
	for db, want := range map[*Database]int64{a: 2, b: 0} {
		res, err := db.Exec("SELECT COUNT(*) FROM cheap WHERE i_id >= 700", nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Rows[0][0].Int(); got != want {
			t.Errorf("%s: cheap holds %d of the rows inserted into a's item, want %d", db.Name, got, want)
		}
	}
}

// TestMVPlanCacheDropRecreate: dropping and recreating a matview with a
// different definition must not reuse the old maintenance (DROP deletes it,
// CREATE compiles the new definition's).
func TestMVPlanCacheDropRecreate(t *testing.T) {
	db := newBackendDB(t)
	if err := db.ExecScript(`CREATE MATERIALIZED VIEW cheap AS SELECT i_id, i_cost FROM item WHERE i_cost <= 50`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO item (i_id, i_title, i_cost) VALUES (701, 'x', 5)", nil); err != nil {
		t.Fatal(err)
	}

	if err := db.ExecScript(`DROP VIEW cheap`); err != nil {
		t.Fatal(err)
	}
	if err := db.ExecScript(`CREATE MATERIALIZED VIEW cheap AS SELECT i_id, i_cost FROM item WHERE i_cost > 100`); err != nil {
		t.Fatal(err)
	}
	// The new definition governs maintenance: a cost-5 row must NOT appear.
	if _, err := db.Exec("INSERT INTO item (i_id, i_title, i_cost) VALUES (702, 'y', 5)", nil); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec("SELECT COUNT(*) FROM cheap WHERE i_id = 702", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 0 {
		t.Error("recreated view used a stale maintenance plan (old predicate applied)")
	}
	if _, err := db.Exec("INSERT INTO item (i_id, i_title, i_cost) VALUES (703, 'z', 150)", nil); err != nil {
		t.Fatal(err)
	}
	res, err = db.Exec("SELECT COUNT(*) FROM cheap WHERE i_id = 703", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 1 {
		t.Error("recreated view did not maintain under its new predicate")
	}
}

// TestViewInvisibleWhileProvisioning: between CREATE CACHED VIEW registering
// the view and its seed committing, the view exists and is empty. A query on
// the base table that runs in that window must not be answered from it: it
// goes to the backend, as it did before the statement started. The hook here
// parks in the middle of provisioning, the way a slow snapshot transfer does.
func TestViewInvisibleWhileProvisioning(t *testing.T) {
	_, cache := newCachePair(t)
	cache.SetIMCacheEnabled(false)
	parked, release := make(chan struct{}), make(chan struct{})
	cache.OnCachedViewCreate(func(v *catalog.Table) error {
		close(parked)
		<-release
		// The seed: what replication's snapshot would have applied.
		tx := cache.Store().Begin(true)
		for i := 1; i <= 200; i++ {
			if _, err := tx.Insert(v.Name, types.Row{types.NewInt(int64(i)), types.NewString("t")}); err != nil {
				return err
			}
		}
		return tx.CommitUnlogged()
	})
	created := make(chan error, 1)
	go func() {
		_, err := cache.Exec("CREATE CACHED VIEW all_items AS SELECT i_id, i_title FROM item", nil)
		created <- err
	}()
	<-parked
	for i := 0; i < 3; i++ { // the first plans, the others hit the plan cache
		res, err := cache.Exec("SELECT COUNT(*) FROM item", nil)
		if err != nil {
			t.Fatal(err)
		}
		if n := res.Rows[0][0].Int(); n != 200 || res.Counters.RemoteQueries != 1 {
			t.Fatalf("while the view is being provisioned COUNT(*) = %d with %d remote queries: answered from the empty view", n, res.Counters.RemoteQueries)
		}
	}
	close(release)
	if err := <-created; err != nil {
		t.Fatal(err)
	}
	res, err := cache.Exec("SELECT COUNT(*) FROM item", nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Rows[0][0].Int(); n != 200 || res.Counters.RemoteQueries != 0 {
		t.Errorf("once seeded COUNT(*) = %d with %d remote queries, want 200 from the view", n, res.Counters.RemoteQueries)
	}

	// A failed provisioning leaves nothing behind, as before.
	cache.OnCachedViewCreate(func(*catalog.Table) error { return fmt.Errorf("backend unreachable") })
	if _, err := cache.Exec("CREATE CACHED VIEW some_items AS SELECT i_id FROM item WHERE i_id < 10", nil); err == nil {
		t.Fatal("a failing hook must fail the statement")
	}
	if cache.Catalog().Table("some_items") != nil || cache.Store().Table("some_items") != nil {
		t.Error("a failed CREATE CACHED VIEW left the view behind")
	}
}
