package repl_test

import (
	"testing"
	"time"

	"mtcache/internal/repl"
	"mtcache/internal/storage"
)

// Failure injection: a subscriber that temporarily cannot apply (conflicting
// row) must not lose or reorder transactions — the unapplied suffix stays in
// the publisher's log, unacknowledged, and the next pull retries it.

func TestApplyFailureRequeuesInOrder(t *testing.T) {
	b := newPublisher(t, 20)
	pub := b.DB
	subDB := newSubscriberTable(t, "cache")
	sub := subscribe(t, b, subDB, "")

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
	// Both transactions must still be pending, in commit order.
	if got := b.Repl.Health(time.Now())[0].Pending; got != 2 {
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
	b.Repl.TruncateLog()
	if b.DB.Store().WAL().Len() == 0 {
		t.Error("WAL truncated while a subscriber still has pending work")
	}
}

// TestStalenessGrowsWithPendingWork: the publisher's staleness of a
// subscription is the age of the oldest commit past its ack, and zero once it
// has acknowledged everything visible — however long ago that was.
func TestStalenessGrowsWithPendingWork(t *testing.T) {
	b := newPublisher(t, 10)
	subDB := newSubscriberTable(t, "cache")
	sub := subscribe(t, b, subDB, "")

	step(t, b, sub)
	res, err := b.DB.Exec("UPDATE item SET i_cost = 1 WHERE i_id = 1", nil)
	if err != nil {
		t.Fatal(err)
	}
	committed := b.DB.Store().WAL().ReadFrom(res.CommitLSN, 1)[0].CommitTime
	if h := b.Repl.Health(committed.Add(time.Second))[0]; h.StalenessSeconds != 1 || h.Pending != 1 {
		t.Fatalf("a second after the one commit past the ack: staleness %vs, %d pending; want 1s and 1", h.StalenessSeconds, h.Pending)
	}
	step(t, b, sub) // applied
	step(t, b, sub) // acknowledged
	if h := b.Repl.Health(committed.Add(time.Hour))[0]; h.StalenessSeconds != 0 || h.Pending != 0 || h.AckedLSN != res.CommitLSN {
		t.Errorf("after a pull and an ack: staleness %vs, %d pending, acked %d; want 0, 0 and %d",
			h.StalenessSeconds, h.Pending, h.AckedLSN, res.CommitLSN)
	}
}

// slowPuller is a publisher whose response is in flight for delay: it notes
// when each request reached it.
type slowPuller struct {
	repl.Puller
	delay   time.Duration
	entered time.Time
}

func (p *slowPuller) Pull(subID, max int, ack storage.LSN) ([]repl.TxnBatch, storage.LSN, error) {
	p.entered = time.Now()
	batches, through, err := p.Puller.Pull(subID, max, ack)
	time.Sleep(p.delay) // a commit landing now is not in the response
	return batches, through, err
}

// TestRoundIsCurrentAsOfItsRequest: a pull round covers the commits made
// before its request was sent, not those made while its response was in
// flight, so the instant it is current as of is no later than the request.
func TestRoundIsCurrentAsOfItsRequest(t *testing.T) {
	b := newPublisher(t, 10)
	sub := subscribe(t, b, newSubscriberTable(t, "cache"), "")
	p := &slowPuller{Puller: b, delay: 20 * time.Millisecond}
	if _, err := sub.Pull(p); err != nil {
		t.Fatal(err)
	}
	if asOf := sub.Status().CurrentAsOf; asOf.After(p.entered) {
		t.Fatalf("round current as of %v after its request reached the publisher", asOf.Sub(p.entered))
	}
}
