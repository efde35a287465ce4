package repl_test

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"mtcache/internal/core"
	"mtcache/internal/metrics"
	"mtcache/internal/repl"
	"mtcache/internal/types"
)

// expiryViews are two cached views over item, so that a re-attach makes more
// than one view current in its one transaction.
var expiryViews = map[string]string{
	"cheap": "SELECT i_id, i_title, i_cost FROM item WHERE i_cost < 6",
	"arts":  "SELECT i_id, i_title FROM item WHERE i_subject = 'ARTS'",
}

// newViewCache is an in-process cache with expiryViews provisioned.
func newViewCache(t *testing.T, b *core.BackendServer, name string) *core.CacheServer {
	t.Helper()
	c, err := core.NewCache(name, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	for view, def := range expiryViews {
		if err := c.CreateCachedView(fmt.Sprintf("CREATE CACHED VIEW %s AS %s", view, def)); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// sortedRows runs query on exec and returns its rows, each rendered, sorted.
func sortedRows(t *testing.T, exec func(string) ([]types.Row, error), query string) []string {
	t.Helper()
	rows, err := exec(query)
	if err != nil {
		t.Fatalf("%s: %v", query, err)
	}
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	slices.Sort(out)
	return out
}

// requireCurrent checks that every view of c holds what its definition
// selects on the backend, and that c stands where the backend's log ends:
// with no commit in flight, that is the backend's state at c's AppliedLSN.
func requireCurrent(t *testing.T, b *core.BackendServer, c *core.CacheServer) {
	t.Helper()
	if got, want := c.AppliedLSN(), b.DB.Store().VisibleEnd()-1; got != want {
		t.Fatalf("%s stands at %d, the backend's log ends at %d", c.DB.Name, got, want)
	}
	for view, def := range expiryViews {
		local := sortedRows(t, func(q string) ([]types.Row, error) {
			res, err := c.DB.Exec(q, nil)
			if err != nil {
				return nil, err
			}
			return res.Rows, nil
		}, "SELECT * FROM "+view)
		backend := sortedRows(t, func(q string) ([]types.Row, error) {
			res, err := b.Exec(q, nil)
			if err != nil {
				return nil, err
			}
			return res.Rows, nil
		}, def)
		if !slices.Equal(local, backend) {
			t.Fatalf("%s.%s holds\n%v\nthe backend selects\n%v", c.DB.Name, view, local, backend)
		}
	}
}

// subID is the subscription c pulls with, as its sys.repl_status shows it.
func subID(t *testing.T, c *core.CacheServer) int {
	t.Helper()
	res, err := c.DB.Exec("SELECT detail FROM sys.repl_status", nil)
	if err != nil || len(res.Rows) == 0 {
		t.Fatalf("%s's sys.repl_status: %v rows, %v", c.DB.Name, len(res.Rows), err)
	}
	var id int
	if _, err := fmt.Sscanf(res.Rows[0][0].Str(), "pull sub %d", &id); err != nil {
		t.Fatal(err)
	}
	return id
}

func insertItem(t *testing.T, b *core.BackendServer, id int) {
	t.Helper()
	if _, err := b.Exec(fmt.Sprintf("INSERT INTO item (i_id, i_title, i_cost, i_subject) VALUES (%d, 'x%d', %d, 'ARTS')", id, id, id%10), nil); err != nil {
		t.Fatal(err)
	}
}

// TestSilentSubscriberExpires: a cache that stops pulling pins the backend's
// log until the truncation agent's pass finds its oldest unacknowledged
// commit older than the retention period. The pass expires it, and the log
// is bounded by the caches that still pull. The silent cache's next pull
// finds no subscription and attaches every view again — seeded, since the
// log no longer holds its position — at one prefix, the backend's.
func TestSilentSubscriberExpires(t *testing.T) {
	b := newPublisher(t, 10)
	busy, silent := newViewCache(t, b, "busy"), newViewCache(t, b, "silent")
	pull := func() {
		t.Helper()
		for range 2 { // apply, then acknowledge
			if _, err := busy.Pull(); err != nil {
				t.Fatal(err)
			}
		}
	}
	const commits = 200
	for i := range commits {
		insertItem(t, b, 100+i)
		if i%20 == 0 {
			pull()
			b.Repl.TruncateLog()
		}
	}
	pull()
	b.Repl.TruncateLog()
	if n := b.DB.Store().WAL().Len(); n < commits {
		t.Fatalf("the log holds %d records before the silent cache expires; it pins all %d commits", n, commits)
	}

	expired := metrics.Default.Counter("repl.subscription_expired")
	expired0 := expired.Value()
	b.Repl.TruncateLogAt(time.Now().Add(repl.Retention + time.Minute))
	if n := b.DB.Store().WAL().Len(); n != 0 {
		t.Fatalf("the log holds %d records after a pass past the retention period; the busy cache acknowledged them all", n)
	}
	if expired.Value() != expired0+1 {
		t.Fatalf("%d subscriptions expired, want the silent one", expired.Value()-expired0)
	}
	hs := b.Repl.Health(time.Now())
	if _, ok := hs[subID(t, busy)]; !ok || len(hs) != 1 {
		t.Fatalf("Health lists %v after the expiry, want only the busy cache's subscription", hs)
	}
	res, err := b.Exec("SELECT name FROM sys.repl_status", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "busy" {
		t.Fatalf("the backend's sys.repl_status lists %v after the expiry, want only busy", res.Rows)
	}
	for i := range commits {
		insertItem(t, b, 1000+i)
		if i%20 == 0 {
			pull()
			b.Repl.TruncateLog()
		}
	}
	pull()
	b.Repl.TruncateLog()
	if n := b.DB.Store().WAL().Len(); n != 0 {
		t.Fatalf("the log holds %d records with only the busy cache subscribed", n)
	}

	reattached := metrics.Default.Counter("wire.views_reattached")
	seeded := metrics.Default.Counter("wire.view_seeded")
	reattached0, seeded0 := reattached.Value(), seeded.Value()
	if _, err := silent.Pull(); err != nil {
		t.Fatalf("the silent cache's pull after its expiry: %v", err)
	}
	if reattached.Value() != reattached0+1 || seeded.Value() != seeded0+int64(len(expiryViews)) {
		t.Fatalf("the silent cache re-attached %d times seeding %d views, want once and %d",
			reattached.Value()-reattached0, seeded.Value()-seeded0, len(expiryViews))
	}
	requireCurrent(t, b, silent)
	requireCurrent(t, b, busy)
	insertItem(t, b, 5000)
	for range 2 {
		if _, err := silent.Pull(); err != nil {
			t.Fatal(err)
		}
	}
	requireCurrent(t, b, silent)
}

// TestBackendRestartReattachesEveryCache: a backend restart forgets every
// subscription (here, a new replication runtime over the same database). A
// cache made after it gets an id no cache held before, so a cache that
// pulls with its old id is told it has no subscription — rather than being
// handed the new cache's stream — and attaches every view again: each cache
// ends with every commit, the ones made while it did not pull included.
func TestBackendRestartReattachesEveryCache(t *testing.T) {
	b := newPublisher(t, 4)
	a, bb := newViewCache(t, b, "A"), newViewCache(t, b, "B")
	ids := map[int]string{}
	for _, c := range []*core.CacheServer{a, bb} {
		if _, err := c.Pull(); err != nil {
			t.Fatal(err)
		}
		ids[subID(t, c)] = c.DB.Name + " before the restart"
	}

	b.Repl = repl.NewServer(b.DB)
	insertItem(t, b, 10)
	c := newViewCache(t, b, "C")
	insertItem(t, b, 11)
	for range 2 {
		if _, err := c.Pull(); err != nil {
			t.Fatal(err)
		}
	}
	insertItem(t, b, 12)
	for range 2 {
		if _, err := c.Pull(); err != nil {
			t.Fatal(err)
		}
	}
	b.Repl.TruncateLog()

	for _, cache := range []*core.CacheServer{a, bb, c} {
		if _, err := cache.Pull(); err != nil {
			t.Fatalf("%s's pull after the restart: %v", cache.DB.Name, err)
		}
		requireCurrent(t, b, cache)
		id := subID(t, cache)
		if held, ok := ids[id]; ok {
			t.Fatalf("%s pulls with id %d, which %s held", cache.DB.Name, id, held)
		}
		ids[id] = cache.DB.Name
	}
	if n := len(b.Repl.Health(time.Now())); n != 3 {
		t.Fatalf("%d subscriptions after every cache re-attached, want 3", n)
	}
}
