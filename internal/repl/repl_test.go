package repl_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"mtcache/internal/core"
	"mtcache/internal/engine"
	"mtcache/internal/metrics"
	"mtcache/internal/repl"
	"mtcache/internal/sql"
)

// These tests drive the replication pipeline the way a deployment does: the
// publisher half is a core.BackendServer (Provision / Pull over its
// repl.Server), the subscriber half one repl.Subscriber per target database —
// the same two pieces a cache server is assembled from.

const itemDDL = `
	CREATE TABLE item (
		i_id INT PRIMARY KEY,
		i_title VARCHAR(60) NOT NULL,
		i_cost FLOAT,
		i_subject VARCHAR(20)
	);`

func newPublisher(t *testing.T, rows int) *core.BackendServer {
	t.Helper()
	b := core.NewBackend("backend")
	db := b.DB
	if err := db.ExecScript(itemDDL); err != nil {
		t.Fatal(err)
	}
	subjects := []string{"ARTS", "BIOGRAPHIES", "COMPUTERS"}
	for i := 1; i <= rows; i++ {
		stmt := fmt.Sprintf("INSERT INTO item (i_id, i_title, i_cost, i_subject) VALUES (%d, 't%d', %d.5, '%s')",
			i, i, i, subjects[i%3])
		if _, err := db.Exec(stmt, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	return b
}

// newSubscriberTable creates a cache-side database with one target table
// matching the article projection (i_id, i_title, i_cost).
func newSubscriberTable(t *testing.T, name string) *engine.Database {
	t.Helper()
	db := engine.New(engine.Config{Name: name, Role: engine.Backend}) // role irrelevant for apply
	err := db.ExecScript(`CREATE TABLE tgt (i_id INT PRIMARY KEY, i_title VARCHAR(60), i_cost FLOAT)`)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

var itemCols = []string{"i_id", "i_title", "i_cost"}

// subscribe does what a cache does for its first cached view over item:
// provision the article on the backend (filter is a predicate over item, ""
// for none) and build the Subscriber that seeds the target's tgt table with
// the snapshot and owns the cursor.
func subscribe(t *testing.T, b *core.BackendServer, target *engine.Database, filter string) *repl.Subscriber {
	t.Helper()
	return subscribeStats(t, b, target, filter, repl.NewApplyStats())
}

func subscribeStats(t *testing.T, b *core.BackendServer, target *engine.Database, filter string, stats repl.ApplyStats) *repl.Subscriber {
	t.Helper()
	sub := repl.NewSubscriber(target, stats)
	addView(t, b, sub, target.Name, "item", itemCols, filter, "tgt")
	return sub
}

// addView provisions one more article on cache's subscription and seeds the
// subscriber's table tgt from it.
func addView(t *testing.T, b *core.BackendServer, sub *repl.Subscriber, cache, table string, cols []string, filter, tgt string) {
	t.Helper()
	asOf := time.Now()
	id, start, rows, err := b.Provision(table, cols, filter, cache, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.AddView(b, id, tgt, rows, start, asOf); err != nil {
		t.Fatal(err)
	}
}

// step is one synchronous propagation round: every subscriber pulls (each
// pull reads the backend's log) and applies.
func step(t *testing.T, b *core.BackendServer, subs ...*repl.Subscriber) {
	t.Helper()
	for _, s := range subs {
		if _, err := s.Pull(b); err != nil {
			t.Fatal(err)
		}
	}
}

func count(t *testing.T, db *engine.Database, q string) int64 {
	t.Helper()
	res, err := db.Exec(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res.Rows[0][0].Int()
}

func TestSnapshotPopulatesTarget(t *testing.T) {
	b := newPublisher(t, 100)
	subDB := newSubscriberTable(t, "cache")
	subscribe(t, b, subDB, "i_cost <= 50")
	// costs are i+0.5, filter <= 50 → ids 1..49
	if got := count(t, subDB, "SELECT COUNT(*) FROM tgt"); got != 49 {
		t.Fatalf("snapshot rows: %d", got)
	}
}

func TestIncrementalPropagation(t *testing.T) {
	b := newPublisher(t, 100)
	pub := b.DB
	subDB := newSubscriberTable(t, "cache")
	sub := subscribe(t, b, subDB, "")

	pub.Exec("INSERT INTO item (i_id, i_title, i_cost, i_subject) VALUES (500, 'new', 1, 'ARTS')", nil)
	pub.Exec("UPDATE item SET i_title = 'renamed' WHERE i_id = 10", nil)
	pub.Exec("DELETE FROM item WHERE i_id = 20", nil)

	step(t, b, sub)
	if got := count(t, subDB, "SELECT COUNT(*) FROM tgt"); got != 100 {
		t.Fatalf("target rows: %d", got)
	}
	res, _ := subDB.Exec("SELECT i_title FROM tgt WHERE i_id = 10", nil)
	if res.Rows[0][0].Str() != "renamed" {
		t.Error("update not propagated")
	}
	if got := count(t, subDB, "SELECT COUNT(*) FROM tgt WHERE i_id = 20"); got != 0 {
		t.Error("delete not propagated")
	}
	if got := count(t, subDB, "SELECT COUNT(*) FROM tgt WHERE i_id = 500"); got != 1 {
		t.Error("insert not propagated")
	}
}

func TestFilterBoundaryCrossing(t *testing.T) {
	b := newPublisher(t, 100)
	pub := b.DB
	subDB := newSubscriberTable(t, "cache")
	sub := subscribe(t, b, subDB, "i_cost <= 50")

	// Update moving a row INTO the filter: id 80 (cost 80.5) → cost 10.
	pub.Exec("UPDATE item SET i_cost = 10 WHERE i_id = 80", nil)
	// Update moving a row OUT: id 5 (cost 5.5) → cost 999.
	pub.Exec("UPDATE item SET i_cost = 999 WHERE i_id = 5", nil)
	// In-place update staying inside.
	pub.Exec("UPDATE item SET i_title = 'kept' WHERE i_id = 7", nil)
	step(t, b, sub)

	if got := count(t, subDB, "SELECT COUNT(*) FROM tgt WHERE i_id = 80"); got != 1 {
		t.Error("move-in should become an insert on the subscriber")
	}
	if got := count(t, subDB, "SELECT COUNT(*) FROM tgt WHERE i_id = 5"); got != 0 {
		t.Error("move-out should become a delete on the subscriber")
	}
	res, _ := subDB.Exec("SELECT i_title FROM tgt WHERE i_id = 7", nil)
	if res.Rows[0][0].Str() != "kept" {
		t.Error("in-place update lost")
	}
}

func TestCommitOrderAndTransactionality(t *testing.T) {
	b := newPublisher(t, 10)
	pub := b.DB
	subDB := newSubscriberTable(t, "cache")
	sub := subscribe(t, b, subDB, "")

	// A multi-statement transaction via a stored procedure.
	pub.ExecScript(`CREATE PROCEDURE swapTitles @a INT, @b INT AS BEGIN
		UPDATE item SET i_title = 'swapA' WHERE i_id = @a;
		UPDATE item SET i_title = 'swapB' WHERE i_id = @b;
	END`)
	pub.Exec("EXEC swapTitles @a = 1, @b = 2", nil)
	if n := b.Repl.Health(time.Now())[0].Pending; n != 1 {
		t.Fatalf("expected 1 pending transaction, got %d", n)
	}
	if n, err := sub.Pull(b); err != nil || n != 1 {
		t.Fatalf("pull applied %d transactions, err %v", n, err)
	}
	if got := count(t, subDB, "SELECT COUNT(*) FROM tgt WHERE i_title LIKE 'swap%'"); got != 2 {
		t.Error("transaction applied partially")
	}
}

func TestWALTruncationAfterPropagation(t *testing.T) {
	b := newPublisher(t, 10)
	subDB := newSubscriberTable(t, "cache")
	sub := subscribe(t, b, subDB, "")

	for i := 0; i < 5; i++ {
		b.DB.Exec(fmt.Sprintf("UPDATE item SET i_cost = %d WHERE i_id = 1", i+100), nil)
	}
	step(t, b, sub)      // delivered and applied; kept in the log until acknowledged
	step(t, b, sub)      // the next pull acknowledges them
	b.Repl.TruncateLog() // a pass after the ack truncates the consumed entries
	if n := b.DB.Store().WAL().Len(); n != 0 {
		t.Errorf("WAL should be truncated after all subscribers consumed: %d left", n)
	}
}

func TestMultipleSubscribers(t *testing.T) {
	b := newPublisher(t, 50)
	var targets []*engine.Database
	var subs []*repl.Subscriber
	for i := 0; i < 3; i++ {
		db := newSubscriberTable(t, fmt.Sprintf("cache%d", i))
		subs = append(subs, subscribe(t, b, db, ""))
		targets = append(targets, db)
	}
	b.DB.Exec("INSERT INTO item (i_id, i_title, i_cost, i_subject) VALUES (999, 'multi', 1, 'ARTS')", nil)
	step(t, b, subs...)
	for i, db := range targets {
		if got := count(t, db, "SELECT COUNT(*) FROM tgt"); got != 51 {
			t.Errorf("subscriber %d rows: %d", i, got)
		}
	}
}

func TestArticleReuse(t *testing.T) {
	srv := newPublisher(t, 10).Repl
	a1, _ := srv.EnsureArticle("item", []string{"i_id", "i_title"}, nil)
	a2, _ := srv.EnsureArticle("item", []string{"i_id", "i_title"}, nil)
	if a1 != a2 {
		t.Error("identical article definitions should be shared")
	}
	a3, _ := srv.EnsureArticle("item", []string{"i_id"}, nil)
	if a1 == a3 {
		t.Error("different projections must be distinct articles")
	}
	filter, err := sql.ParseExpr("i_cost <= 5")
	if err != nil {
		t.Fatal(err)
	}
	a4, _ := srv.EnsureArticle("item", []string{"i_id", "i_title"}, filter)
	if a1 == a4 {
		t.Error("different filters must be distinct articles")
	}
}

func TestLatencyMeasured(t *testing.T) {
	b := newPublisher(t, 10)
	subDB := newSubscriberTable(t, "cache")
	stats := repl.NewApplyStats()
	sub := subscribeStats(t, b, subDB, "", stats)

	b.DB.Exec("UPDATE item SET i_cost = 7 WHERE i_id = 1", nil)
	time.Sleep(20 * time.Millisecond)
	step(t, b, sub)
	if stats.Latency.Count() != 1 || stats.TxnsApplied.Value() != 1 {
		t.Fatal("latency not recorded")
	}
	if lat := stats.Latency.Mean(); lat < 0.015 {
		t.Errorf("latency should include queueing delay: %f", lat)
	}
	if stats.ApplyTime.Value() <= 0 {
		t.Error("apply time not recorded")
	}
}

// Property-style convergence test: random committed operations on the
// publisher converge the subscriber to exactly the filtered projection.
func TestConvergenceUnderRandomWorkload(t *testing.T) {
	b := newPublisher(t, 200)
	pub := b.DB
	subDB := newSubscriberTable(t, "cache")
	sub := subscribe(t, b, subDB, "i_cost <= 100")

	r := rand.New(rand.NewSource(7))
	nextID := 1000
	live := map[int]bool{}
	for i := 1; i <= 200; i++ {
		live[i] = true
	}
	ids := func() []int {
		var out []int
		for id := range live {
			out = append(out, id)
		}
		return out
	}
	for i := 0; i < 300; i++ {
		switch r.Intn(3) {
		case 0:
			nextID++
			cost := r.Intn(200)
			pub.Exec(fmt.Sprintf("INSERT INTO item (i_id, i_title, i_cost, i_subject) VALUES (%d, 'r', %d, 'ARTS')", nextID, cost), nil)
			live[nextID] = true
		case 1:
			all := ids()
			id := all[r.Intn(len(all))]
			pub.Exec(fmt.Sprintf("UPDATE item SET i_cost = %d WHERE i_id = %d", r.Intn(200), id), nil)
		case 2:
			all := ids()
			id := all[r.Intn(len(all))]
			pub.Exec(fmt.Sprintf("DELETE FROM item WHERE i_id = %d", id), nil)
			delete(live, id)
		}
		if i%50 == 0 {
			step(t, b, sub)
		}
	}
	step(t, b, sub)
	want := count(t, pub, "SELECT COUNT(*) FROM item WHERE i_cost <= 100")
	got := count(t, subDB, "SELECT COUNT(*) FROM tgt")
	if want != got {
		t.Fatalf("divergence: publisher filtered=%d subscriber=%d", want, got)
	}
	// Spot-check content equality via checksums.
	wantSum, _ := pub.Exec("SELECT SUM(i_id), SUM(i_cost) FROM item WHERE i_cost <= 100", nil)
	gotSum, _ := subDB.Exec("SELECT SUM(i_id), SUM(i_cost) FROM tgt", nil)
	if wantSum.Rows[0][0].Int() != gotSum.Rows[0][0].Int() ||
		wantSum.Rows[0][1].Float() != gotSum.Rows[0][1].Float() {
		t.Fatalf("content divergence: %v vs %v", wantSum.Rows[0], gotSum.Rows[0])
	}
}

// A predicate that cannot be evaluated on a logged row is one error for both
// readers of the definition, each answering it its own way: a pull passes the
// change over — as it passes over a row the filter rejects — and
// counts it; a backend maintaining a materialized view of the same definition
// fails the statement, so the view never silently misses a row.
func TestFilterErrorIsCountedAndPassedOver(t *testing.T) {
	b := newPublisher(t, 10)
	subDB := newSubscriberTable(t, "cache")
	sub := subscribe(t, b, subDB, "100 / i_cost >= 1")
	errors := metrics.Default.Counter("repl.filter_errors")
	before := errors.Value()
	b.DB.Exec("INSERT INTO item (i_id, i_title, i_cost, i_subject) VALUES (500, 'free', 0, 'ARTS')", nil)
	b.DB.Exec("INSERT INTO item (i_id, i_title, i_cost, i_subject) VALUES (501, 'cheap', 2, 'ARTS')", nil)
	step(t, b, sub)
	if got := errors.Value() - before; got != 1 {
		t.Errorf("repl.filter_errors moved by %d, want 1", got)
	}
	if got := count(t, subDB, "SELECT COUNT(*) FROM tgt WHERE i_id >= 500"); got != 1 {
		t.Errorf("%d of the two inserts arrived, want the one the filter could be evaluated on", got)
	}

	b.DB.Exec("DELETE FROM item WHERE i_id = 500", nil)
	if err := b.DB.ExecScript("CREATE MATERIALIZED VIEW worth AS SELECT i_id, i_cost FROM item WHERE 100 / i_cost >= 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.DB.Exec("INSERT INTO item (i_id, i_title, i_cost, i_subject) VALUES (502, 'free', 0, 'ARTS')", nil); err == nil {
		t.Error("an insert the view's predicate cannot be evaluated on must fail")
	}
	if got := count(t, b.DB, "SELECT COUNT(*) FROM item WHERE i_id = 502"); got != 0 {
		t.Error("the failed insert stayed in the base table")
	}
}
