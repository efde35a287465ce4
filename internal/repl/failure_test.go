package repl_test

import (
	"testing"
	"time"
)

// Failure injection: a subscriber that temporarily cannot apply (conflicting
// row) must not lose or reorder transactions — the unapplied suffix stays
// queued on the publisher, unacknowledged, and the next pull retries it.

func TestApplyFailureRequeuesInOrder(t *testing.T) {
	b := newPublisher(t, 20)
	pub := b.DB
	subDB := newSubscriberTable(t, "cache")
	sub := subscribe(t, b, subDB, "")
	queue := b.Repl.Subscriptions()[0]

	// Sabotage: insert a conflicting row directly into the target so the
	// next replicated insert (i_id = 500) collides on the primary key.
	if _, err := subDB.Exec("INSERT INTO tgt (i_id, i_title, i_cost) VALUES (500, 'conflict', 0)", nil); err != nil {
		t.Fatal(err)
	}

	pub.Exec("INSERT INTO item (i_id, i_title, i_cost, i_subject) VALUES (500, 'real', 1, 'ARTS')", nil)
	pub.Exec("UPDATE item SET i_title = 'after-conflict' WHERE i_id = 1", nil)

	// The first pull fails on the conflicting transaction.
	if _, err := sub.Pull(b); err == nil {
		t.Fatal("expected apply failure")
	}
	if st := sub.Status(); st.ApplyErrors != 1 || st.LastError == "" {
		t.Fatalf("failure record: %d %q", st.ApplyErrors, st.LastError)
	}
	// Both transactions must still be queued, in commit order.
	if got := b.Repl.PendingFor(queue); got != 2 {
		t.Fatalf("pending after failure: %d", got)
	}
	// The later update must NOT have been applied out of order.
	res, _ := subDB.Exec("SELECT i_title FROM tgt WHERE i_id = 1", nil)
	if res.Rows[0][0].Str() == "after-conflict" {
		t.Fatal("later transaction applied before the failed one")
	}

	// Repair the conflict; the next pull applies both, in order.
	if _, err := subDB.Exec("DELETE FROM tgt WHERE i_id = 500", nil); err != nil {
		t.Fatal(err)
	}
	if n, err := sub.Pull(b); err != nil || n != 2 {
		t.Fatalf("retry applied %d, err %v", n, err)
	}
	res, _ = subDB.Exec("SELECT i_title FROM tgt WHERE i_id = 500", nil)
	if res.Rows[0][0].Str() != "real" {
		t.Error("failed transaction not applied after repair")
	}
	res, _ = subDB.Exec("SELECT i_title FROM tgt WHERE i_id = 1", nil)
	if res.Rows[0][0].Str() != "after-conflict" {
		t.Error("subsequent transaction lost")
	}
}

func TestOneFailingSubscriberDoesNotBlockOthers(t *testing.T) {
	b := newPublisher(t, 10)
	good := newSubscriberTable(t, "good")
	bad := newSubscriberTable(t, "bad")
	gsub := subscribe(t, b, good, "")
	bsub := subscribe(t, b, bad, "")

	// Break the bad subscriber only.
	bad.Exec("INSERT INTO tgt (i_id, i_title, i_cost) VALUES (777, 'conflict', 0)", nil)
	b.DB.Exec("INSERT INTO item (i_id, i_title, i_cost, i_subject) VALUES (777, 'x', 1, 'ARTS')", nil)

	if _, err := gsub.Pull(b); err != nil {
		t.Fatalf("healthy subscriber affected: %v", err)
	}
	if _, err := bsub.Pull(b); err == nil {
		t.Fatal("expected failure on the broken subscriber")
	}
	res, _ := good.Exec("SELECT COUNT(*) FROM tgt WHERE i_id = 777", nil)
	if res.Rows[0][0].Int() != 1 {
		t.Error("healthy subscriber missing the change")
	}
	// WAL retention: the healthy subscriber acknowledges, but the failed
	// subscriber's pending txn pins the log.
	step(t, b, gsub)
	b.Repl.RunLogReader()
	if b.DB.Store().WAL().Len() == 0 {
		t.Error("WAL truncated while a subscriber still has pending work")
	}
}

func TestStalenessGrowsWithPendingWork(t *testing.T) {
	b := newPublisher(t, 10)
	subDB := newSubscriberTable(t, "cache")
	sub := subscribe(t, b, subDB, "")
	queue := b.Repl.Subscriptions()[0]

	step(t, b, sub)
	b.DB.Exec("UPDATE item SET i_cost = 1 WHERE i_id = 1", nil)
	time.Sleep(15 * time.Millisecond)
	b.Repl.RunLogReader() // queued but not applied
	stale := queue.Staleness(time.Now())
	if stale < 10*time.Millisecond {
		t.Fatalf("pending txn should show its age: %v", stale)
	}
	if s := time.Since(sub.Status().CurrentAsOf); s < 10*time.Millisecond {
		t.Fatalf("subscriber should count from its last pull: %v", s)
	}
	step(t, b, sub) // applied
	if s := time.Since(sub.Status().CurrentAsOf); s > stale {
		t.Errorf("subscriber staleness should reset on a full pull: before=%v after=%v", stale, s)
	}
	step(t, b, sub) // acknowledged; this pull's reader pass sees the drained queue next time
	b.Repl.RunLogReader()
	after := queue.Staleness(time.Now())
	if after > stale {
		t.Errorf("staleness should reset after catching up: before=%v after=%v", stale, after)
	}
}
