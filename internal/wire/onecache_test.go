package wire

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"mtcache/internal/core"
	"mtcache/internal/metrics"
	"mtcache/internal/types"
)

// rendered returns rows as sorted strings, for set comparison.
func rendered(rows []types.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return out
}

// TestInProcessAndTCPCachesAgree: the in-process cache and the deployed
// cache are one server over two transports, so fed the same backend history
// they must hold the same view contents — the backend's article — and report
// the same applied position after every pull.
func TestInProcessAndTCPCachesAgree(t *testing.T) {
	b, srv := newWiredBackend(t)
	local, err := core.NewCache("local", b, nil)
	if err != nil {
		t.Fatal(err)
	}
	tcp, err := NewRemoteCache("tcp", dial(t, srv), nil)
	if err != nil {
		t.Fatal(err)
	}
	const ddl = "CREATE CACHED VIEW tires AS SELECT id, name, qty FROM part WHERE type = 'Tire'"
	for _, c := range []*core.CacheServer{local, tcp} {
		if err := c.CreateCachedView(ddl); err != nil {
			t.Fatal(err)
		}
	}
	check := func(step int) {
		t.Helper()
		for _, c := range []*core.CacheServer{local, tcp} {
			if _, err := c.Pull(); err != nil {
				t.Fatalf("step %d: %s pull: %v", step, c.DB.Name, err)
			}
		}
		if l, r := local.AppliedLSN(), tcp.AppliedLSN(); l != r {
			t.Fatalf("step %d: applied LSN in-process %d, TCP %d", step, l, r)
		}
		res, err := b.Exec("SELECT id, name, qty FROM part WHERE type = 'Tire'", nil)
		if err != nil {
			t.Fatal(err)
		}
		want := rendered(res.Rows)
		for _, c := range []*core.CacheServer{local, tcp} {
			tx := c.DB.Store().Begin(false)
			tires, _ := tx.Table("tires")
			got := rendered(tires.Rows())
			tx.Abort()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: %s view has %d rows, backend article %d", step, c.DB.Name, len(got), len(want))
			}
		}
	}

	r := rand.New(rand.NewSource(14))
	next := 2000
	kinds := []string{"Tire", "Bolt"}
	for i := 1; i <= 200; i++ {
		var stmt string
		switch r.Intn(4) {
		case 0:
			next++
			stmt = fmt.Sprintf("INSERT INTO part (id, name, type, qty) VALUES (%d, 'n%d', '%s', %d)", next, next, kinds[r.Intn(2)], r.Intn(100))
		case 1:
			stmt = fmt.Sprintf("UPDATE part SET qty = %d WHERE id = %d", r.Intn(100), 1+r.Intn(1000))
		case 2: // may move a row across the view's filter boundary
			stmt = fmt.Sprintf("UPDATE part SET type = '%s' WHERE id = %d", kinds[r.Intn(2)], 1+r.Intn(1000))
		case 3:
			stmt = fmt.Sprintf("DELETE FROM part WHERE id = %d", 1+r.Intn(1000))
		}
		if _, err := b.Exec(stmt, nil); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		if i%10 == 0 {
			check(i)
		}
	}
}

// TestConcurrentProvisionOneSubscription: handlers run concurrently, so a
// ResilientClient retry can race its slow original. Same-name provisions must
// agree on one subscription with one feed — an orphan's ack would pin WAL
// truncation forever, a second feed would deliver every change twice.
func TestConcurrentProvisionOneSubscription(t *testing.T) {
	b, srv := newWiredBackend(t)
	c := dial(t, srv)
	// A one-row table keeps each provision short, so the sixteen handlers
	// reach find-or-create together; a few hundred rounds then hit the window
	// reliably when it exists.
	if err := b.ExecScript("CREATE TABLE tiny (id INT PRIMARY KEY, qty INT); INSERT INTO tiny (id, qty) VALUES (1, 1);"); err != nil {
		t.Fatal(err)
	}
	cols := []string{"id", "qty"}
	for round := 0; round < 400; round++ {
		name := fmt.Sprintf("cache%d", round)
		var wg sync.WaitGroup
		ids := make([]int, 16)
		for i := range ids {
			wg.Add(1)
			go func() {
				defer wg.Done()
				a, err := c.Provision("tiny", cols, "", name, "v", 0, 0)
				if err != nil {
					t.Error(err)
				}
				ids[i] = a.SubID
			}()
		}
		wg.Wait()
		if got := len(b.Repl.Health(time.Now())); got != round+1 {
			t.Fatalf("round %d: %d subscriptions registered, want %d", round, got, round+1)
		}
		for _, id := range ids {
			if id != ids[0] {
				t.Fatalf("round %d: provisions of one name answered ids %v", round, ids)
			}
		}
	}

	// One pull + ack per subscription and nothing pins the log: the WAL
	// truncates to the visible end.
	if _, err := b.Exec("UPDATE tiny SET qty = 2 WHERE id = 1", nil); err != nil {
		t.Fatal(err)
	}
	for id := range b.Repl.Health(time.Now()) {
		batches, _, err := c.Pull(id, 0, 0)
		if err != nil || len(batches) != 1 || len(batches[0].Changes) != 1 {
			t.Fatalf("sub %d: pulled %v, err %v; want one batch of one change", id, batches, err)
		}
		if _, _, err := c.Pull(id, 0, batches[0].LSN); err != nil {
			t.Fatal(err)
		}
	}
	b.Repl.TruncateLog()
	if n := b.DB.Store().WAL().Len(); n != 0 {
		t.Fatalf("WAL holds %d records after every subscription acknowledged", n)
	}
}

// TestPullReportsApplyLatency: the one apply site observes the apply and
// commit-to-applied histograms, so a deployed cache reports them.
func TestPullReportsApplyLatency(t *testing.T) {
	b, srv := newWiredBackend(t)
	rc, err := NewRemoteCache("tcpcache", dial(t, srv), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := rc.CreateCachedView("CREATE CACHED VIEW tires AS SELECT id, name, qty FROM part WHERE type = 'Tire'"); err != nil {
		t.Fatal(err)
	}
	apply := metrics.Default.Histogram("repl.apply_seconds")
	latency := metrics.Default.Histogram("repl.latency_seconds")
	applyBefore, latencyBefore := apply.Count(), latency.Count()
	if _, err := b.Exec("UPDATE part SET qty = 9 WHERE id = 4", nil); err != nil {
		t.Fatal(err)
	}
	if n, err := rc.Pull(); err != nil || n != 1 {
		t.Fatalf("pull applied %d, err %v", n, err)
	}
	if apply.Count() <= applyBefore {
		t.Error("repl.apply_seconds not observed by a pull that applied a batch")
	}
	if latency.Count() <= latencyBefore {
		t.Error("repl.latency_seconds not observed by a pull that applied a batch")
	}
	if rc.Stats.TxnsApplied.Value() != 1 || rc.Stats.Latency.Count() != 1 {
		t.Errorf("cache stats: %d txns, %d latency samples", rc.Stats.TxnsApplied.Value(), rc.Stats.Latency.Count())
	}
}
