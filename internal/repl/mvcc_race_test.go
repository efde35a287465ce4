package repl_test

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mtcache/internal/core"
	"mtcache/internal/engine"
	"mtcache/internal/exec"
	"mtcache/internal/repl"
	"mtcache/internal/types"
)

// tornReadCase is one reader workload run against the subscriber while its
// distribution agent applies whole-generation updates. Each publisher
// generation is a single UPDATE-all statement (one transaction), so every
// snapshot must see all rows at the same cost: the reader query returns
// (MIN(i_cost), MAX(i_cost), COUNT(*)) and a torn apply surfaces as
// min != max or a short count within a single result.
type tornReadCase struct {
	rows     int
	readers  int
	prepare  func(t *testing.T, subDB *engine.Database) // after the initial snapshot
	query    string
	wantPlan string // the reader plan must contain this
}

func runTornReadCase(t *testing.T, c tornReadCase) {
	b := newPublisher(t, c.rows)
	pub := b.DB
	subDB := newSubscriberTable(t, "cache")
	// Level the generation before subscribing: the initial snapshot then
	// carries uniform costs, so "all costs equal" holds for every read.
	if _, err := pub.Exec("UPDATE item SET i_cost = 1000 WHERE i_id > 0", nil); err != nil {
		t.Fatal(err)
	}
	sub := subscribe(t, b, subDB, "i_cost <= 1e9")
	if c.prepare != nil {
		c.prepare(t, subDB)
	}
	plan, err := subDB.Explain(c.query)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, c.wantPlan) {
		t.Fatalf("reader plan lacks %q:\n%s", c.wantPlan, plan)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Distribution agent: ship publisher commits to the subscriber.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			if _, err := sub.Pull(b); err != nil {
				t.Errorf("apply: %v", err)
				return
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	tornCh := make(chan string, 8)
	for r := 0; r < c.readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := subDB.Exec(c.query, nil)
				if err != nil {
					t.Errorf("read: %v", err)
					return
				}
				lo, hi := res.Rows[0][0].Float(), res.Rows[0][1].Float()
				n := res.Rows[0][2].Int()
				if lo != hi || n != int64(c.rows) {
					select {
					case tornCh <- fmt.Sprintf("torn read: min=%g max=%g count=%d (want %d)", lo, hi, n, c.rows):
					default:
					}
					return
				}
			}
		}()
	}

	// Publisher: one transaction per generation.
	deadline := time.Now().Add(time.Second)
	for g := 1; time.Now().Before(deadline); g++ {
		stmt := fmt.Sprintf("UPDATE item SET i_cost = %d WHERE i_id > 0", 1000+g)
		if _, err := pub.Exec(stmt, nil); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-tornCh:
		t.Fatal(msg)
	default:
	}
}

// TestNoTornReadsDuringApply: under the seed's store-wide 2PL this test
// either blocks readers behind every apply or — with the exclusion removed —
// shows torn generations; under MVCC it passes, including with -race.
func TestNoTornReadsDuringApply(t *testing.T) {
	runTornReadCase(t, tornReadCase{
		rows: 60, readers: 4,
		query:    "SELECT MIN(i_cost), MAX(i_cost), COUNT(*) FROM tgt",
		wantPlan: "Scan tgt",
	})
}

// TestNoTornReadsDuringApplyParallelScan is the intra-query-parallel variant:
// the reader's aggregate runs as a Gather over partitioned scan workers, all
// sharing one pinned snapshot. Partition bounds are computed once at Open
// from that snapshot, so no worker may observe a half-applied generation.
func TestNoTornReadsDuringApplyParallelScan(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	runTornReadCase(t, tornReadCase{
		rows: 1500, readers: 3,
		prepare: func(t *testing.T, subDB *engine.Database) {
			// Stats + a low startup cost make the optimizer pick a parallel
			// plan for the 1500-row aggregate even though the table is modest.
			if err := subDB.Analyze(); err != nil {
				t.Fatal(err)
			}
			opts := subDB.Options()
			opts.MaxDOP = 4
			opts.ParallelStartupCost = 10
			subDB.SetOptions(opts)
		},
		query:    "SELECT MIN(i_cost), MAX(i_cost), COUNT(*) FROM tgt",
		wantPlan: "Gather (Exchange dop=",
	})
}

// TestNoTornReadsDuringApplyIndexJoin is the lookup-join variant. The reader
// fetches row 1 and joins it, on the cost, to every row of the same table
// through a non-unique index on i_cost: in one snapshot all rows carry row
// 1's cost, so the join must return every row. Each generation moves every
// row to a new index key and leaves the old entries behind until GC, so the
// seeks wade through stale entries (filtered by visibility plus a key
// recheck), and an inner side read at any other snapshot than the outer
// row's would come back empty or short.
func TestNoTornReadsDuringApplyIndexJoin(t *testing.T) {
	runTornReadCase(t, tornReadCase{
		rows: 60, readers: 4,
		prepare: func(t *testing.T, subDB *engine.Database) {
			if _, err := subDB.Exec("CREATE INDEX ix_tgt_cost ON tgt (i_cost)", nil); err != nil {
				t.Fatal(err)
			}
			if err := subDB.Analyze(); err != nil {
				t.Fatal(err)
			}
		},
		query: "SELECT MIN(b.i_cost), MAX(b.i_cost), COUNT(*) FROM tgt a, tgt b " +
			"WHERE a.i_id = 1 AND a.i_cost = b.i_cost",
		wantPlan: "IndexJoin tgt.ix_tgt_cost",
	})
}

// TestNoTornReadsAcrossViews is the two-table variant: one writer commits an
// order and its line per backend transaction, a distribution agent applies
// them to a subscriber with a view over each table, and readers assert in one
// statement that the orders view and the lines view are at the same backend
// prefix — every order has its line. One subscriber per view, each applying
// its share in its own transaction, shows an order without its line.
func TestNoTornReadsAcrossViews(t *testing.T) {
	b := core.NewBackend("backend")
	if err := b.ExecScript(`
		CREATE TABLE orders (o_id INT PRIMARY KEY, o_total FLOAT);
		CREATE TABLE order_line (ol_id INT PRIMARY KEY, ol_o_id INT, ol_qty INT);
		CREATE PROCEDURE placeOrder @o INT AS BEGIN
			INSERT INTO orders (o_id, o_total) VALUES (@o, 1.0);
			INSERT INTO order_line (ol_id, ol_o_id, ol_qty) VALUES (@o, @o, 1);
		END`); err != nil {
		t.Fatal(err)
	}
	subDB := engine.New(engine.Config{Name: "cache", Role: engine.Backend})
	if err := subDB.ExecScript(`
		CREATE TABLE cv_o (o_id INT PRIMARY KEY, o_total FLOAT);
		CREATE TABLE cv_ol (ol_id INT PRIMARY KEY, ol_o_id INT, ol_qty INT);`); err != nil {
		t.Fatal(err)
	}
	sub := repl.NewSubscriber(subDB, repl.NewApplyStats())
	addView(t, b, sub, "cache", "orders", nil, "", "cv_o")
	addView(t, b, sub, "cache", "order_line", nil, "", "cv_ol")
	if n := len(b.Repl.Subscriptions()); n != 1 {
		t.Fatalf("%d subscriptions for one subscriber of two views", n)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // distribution agent
		defer wg.Done()
		for {
			if _, err := sub.Pull(b); err != nil {
				t.Errorf("apply: %v", err)
				return
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	const query = `SELECT o.n, l.n FROM (SELECT COUNT(*) AS n FROM cv_o) o,
		(SELECT COUNT(DISTINCT ol_o_id) AS n FROM cv_ol) l`
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := subDB.Exec(query, nil)
				if err != nil {
					t.Errorf("read: %v", err)
					return
				}
				if o, l := res.Rows[0][0].Int(), res.Rows[0][1].Int(); o != l {
					t.Errorf("torn read: %d orders, lines of %d", o, l)
					return
				}
			}
		}()
	}

	deadline := time.Now().Add(time.Second)
	placed := 0
	for ; time.Now().Before(deadline); placed++ {
		if _, err := b.DB.CallProcedure("placeOrder", exec.Params{"o": types.NewInt(int64(placed + 1))}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	step(t, b, sub)
	if got := count(t, subDB, "SELECT COUNT(*) FROM cv_ol"); got != int64(placed) {
		t.Fatalf("subscriber holds %d lines at quiescence, %d were placed", got, placed)
	}
}
