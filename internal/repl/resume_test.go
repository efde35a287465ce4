package repl_test

import (
	"fmt"
	"sync"
	"testing"

	"mtcache/internal/engine"
	"mtcache/internal/repl"
	"mtcache/internal/storage"
)

// drain fetches everything queued for sub and acknowledges it.
func drain(srv *repl.Server, sub *repl.Subscription) []repl.TxnBatch {
	batches, _ := srv.DrainAfterThrough(sub, 0, 0)
	if n := len(batches); n > 0 {
		srv.DrainAfterThrough(sub, batches[n-1].LSN, 0)
	}
	return batches
}

// TestResumeRemoteReplaysFromCheckpoint covers the restart path of a pull
// subscriber: a subscription resumed at its durable apply position must
// receive exactly the records from that position on, without a reseed, as
// long as the publisher's WAL retains them — even though it had acknowledged
// past that position before it went down.
func TestResumeRemoteReplaysFromCheckpoint(t *testing.T) {
	b := newPublisher(t, 0)
	pub, srv := b.DB, b.Repl
	art, err := srv.EnsureArticle("item", nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Original subscriber: snapshot at LSN 1, stream everything. A second
	// subscription stands by to show a rewind is one subscription's business.
	id, startLSN, rows, err := srv.Provision("cache1", art, "tgt")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 || startLSN != 1 {
		t.Fatalf("empty snapshot: %d rows start %d", len(rows), startLSN)
	}
	if _, _, _, err := srv.Provision("cache2", art, "tgt"); err != nil {
		t.Fatal(err)
	}
	orig, other := srv.Subscriptions()[id], srv.Subscriptions()[1]

	for i := 1; i <= 10; i++ {
		if _, err := pub.Exec(fmt.Sprintf(
			"INSERT INTO item (i_id, i_title, i_cost, i_subject) VALUES (%d, 't%d', %d.5, 'ARTS')", i, i, i), nil); err != nil {
			t.Fatal(err)
		}
	}
	srv.RunLogReader()
	if got := drain(srv, orig); len(got) != 10 {
		t.Fatalf("original subscriber drained %d batches, want 10", len(got))
	}
	if got := drain(srv, other); len(got) != 10 {
		t.Fatalf("second subscriber drained %d batches, want 10", len(got))
	}

	// The subscriber restarts having durably applied through LSN 4: it
	// resumes at 5 and must get 5..10 again — and only those.
	rid, ok := srv.Resume("cache1", art, "tgt", 5)
	if !ok || rid != id {
		t.Fatalf("resume at 5: id %d ok %v; WAL window is [%d,%d)", rid, ok, pub.Store().WAL().First(), pub.Store().WAL().End())
	}
	srv.RunLogReader()
	batches := drain(srv, orig)
	if len(batches) != 6 {
		t.Fatalf("resumed subscriber got %d batches, want 6 (LSNs 5..10)", len(batches))
	}
	for i, b := range batches {
		if b.LSN != storage.LSN(5+i) {
			t.Fatalf("batch %d has LSN %d, want %d", i, b.LSN, 5+i)
		}
	}
	// The rewound pass must not re-deliver to the other subscription.
	if n := srv.PendingFor(other); n != 0 {
		t.Fatalf("second subscription re-received %d batches after the rewind", n)
	}
	if n := len(srv.Subscriptions()); n != 2 {
		t.Fatalf("%d subscriptions after a resume by name, want 2", n)
	}
}

// TestResumeRemoteRefusesTruncatedWindow: once the WAL has been truncated
// past the restart position, resume must report a miss so the caller falls
// back to a full reseed instead of silently losing the gap.
func TestResumeRemoteRefusesTruncatedWindow(t *testing.T) {
	b := newPublisher(t, 10) // 10 insert commits, LSNs 1..10
	pub, srv := b.DB, b.Repl
	art, err := srv.EnsureArticle("item", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// No subscriptions: the reader pass truncates everything it has read.
	srv.RunLogReader()
	if first := pub.Store().WAL().First(); first != 11 {
		t.Fatalf("WAL not truncated: First=%d", first)
	}
	if _, ok := srv.Resume("cache1", art, "tgt", 5); ok {
		t.Fatal("resume at a truncated LSN succeeded; it must force a reseed")
	}
	// A position inside the (empty) retained window is fine.
	if _, ok := srv.Resume("cache2", art, "tgt", 11); !ok {
		t.Fatal("resume at the WAL head refused")
	}
	// A position past the publisher's log means the subscriber is ahead of a
	// publisher that lost state — also a reseed.
	if _, ok := srv.Resume("cache3", art, "tgt", 99); ok {
		t.Fatal("resume past the WAL end succeeded")
	}
	if n := len(srv.Subscriptions()); n != 1 {
		t.Fatalf("%d subscriptions, want 1: a refused resume must leave nothing behind", n)
	}
}

// TestResumePastAcknowledgedRewindsOrReseeds is the acknowledged-then-crashed
// regression: a subscriber that checkpoints at c, applies and acknowledges
// through p > c and then restarts from the checkpoint must get (c, p] again.
// Reattaching to its live queue — which starts after p — would lose them
// silently. While the WAL still holds c+1 the stream is rewound; once it does
// not, the answer is a reseed.
func TestResumePastAcknowledgedRewindsOrReseeds(t *testing.T) {
	b := newPublisher(t, 5)
	subDB := newSubscriberTable(t, "cache")
	sub := subscribe(t, b, subDB, "")
	ckpt := sub.Status().AppliedLSN // the durable position: rows 1..5

	insert := func(id int) {
		t.Helper()
		if _, err := b.DB.Exec(fmt.Sprintf(
			"INSERT INTO item (i_id, i_title, i_cost, i_subject) VALUES (%d, 'x', 1, 'ARTS')", id), nil); err != nil {
			t.Fatal(err)
		}
	}
	insert(6)
	step(t, b, sub) // applied
	step(t, b, sub) // acknowledged: the queue now starts after it

	// Restart from the checkpoint: a new subscriber over the checkpointed rows.
	restart := func() (*repl.Subscriber, *engine.Database, bool) {
		t.Helper()
		db := newSubscriberTable(t, "cache")
		id, ok, err := b.Resume("item", itemCols, "", "cache", "tgt", ckpt+1)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return nil, db, false
		}
		tx := b.DB.Store().Begin(false)
		rows := tx.Table("item").Rows()[:5]
		tx.Abort()
		for i := range rows {
			rows[i] = rows[i][:3]
		}
		s := repl.NewSubscriber(db, repl.NewApplyStats())
		if err := s.AddView(b, id, "tgt", rows, ckpt+1); err != nil {
			t.Fatal(err)
		}
		return s, db, true
	}
	s2, db2, ok := restart()
	if !ok {
		t.Fatal("resume refused while the WAL still holds the position")
	}
	step(t, b, s2)
	if got := count(t, db2, "SELECT COUNT(*) FROM tgt"); got != 6 {
		t.Fatalf("resumed subscriber has %d rows, publisher 6: the acknowledged batch was not replayed", got)
	}

	// Same again, but the log has been truncated past the checkpoint by the
	// time the subscriber comes back.
	insert(7)
	step(t, b, s2)
	step(t, b, s2)
	b.Repl.RunLogReader()
	if first := b.DB.Store().WAL().First(); first <= ckpt+1 {
		t.Fatalf("WAL still starts at %d", first)
	}
	if _, _, ok := restart(); ok {
		t.Fatal("resume below the truncated log succeeded: the subscriber would silently miss acknowledged transactions")
	}
}

// TestProvisionRacingLogReaderLosesNoCommit: a commit that lands right after
// a provision's snapshot must reach the new feed even when another
// subscriber's pull runs the log reader before the provisioning one gets to
// pull. (The snapshot used to be taken first and the subscription registered
// afterwards, behind whatever the reader had read in between: the row was in
// neither the snapshot nor the stream, and the applied LSN moved past it.)
func TestProvisionRacingLogReaderLosesNoCommit(t *testing.T) {
	b := newPublisher(t, 2000)
	other := subscribe(t, b, newSubscriberTable(t, "other"), "")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // the other cache, pulling flat out
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if _, err := other.Pull(b); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	written := make(chan struct{})
	go func() { // a writer; bounded, every late subscription queues each commit
		defer wg.Done()
		defer close(written)
		for id := 10000; id < 12000; id++ {
			if _, err := b.DB.Exec(fmt.Sprintf(
				"INSERT INTO item (i_id, i_title, i_cost, i_subject) VALUES (%d, 'w', 1, 'ARTS')", id), nil); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var dbs []*engine.Database
	var subs []*repl.Subscriber
	for round, writing := 0, true; writing && round < 12; round++ {
		db := newSubscriberTable(t, fmt.Sprintf("late%d", round))
		dbs, subs = append(dbs, db), append(subs, subscribe(t, b, db, ""))
		select {
		case <-written:
			writing = false
		default:
		}
	}
	close(stop)
	wg.Wait()

	want := count(t, b.DB, "SELECT COUNT(*) FROM item")
	for i, sub := range subs {
		step(t, b, sub)
		if got := count(t, dbs[i], "SELECT COUNT(*) FROM tgt"); got != want {
			t.Fatalf("subscriber %d provisioned under load holds %d rows at quiescence, publisher %d", i, got, want)
		}
	}
}

// TestTruncateRetainsUnconsumedTail is the pull-subscriber-behind-checkpoint
// regression: a subscription whose cursor trails the log reader (a resumed
// subscriber, or one the reader has not yet caught up for) must pin WAL
// truncation at its cursor even when its queue is empty and even when a
// storage checkpoint would otherwise allow the whole log to be dropped.
func TestTruncateRetainsUnconsumedTail(t *testing.T) {
	dir := t.TempDir()
	pub := engine.New(engine.Config{Name: "backend", Role: engine.Backend})
	if err := pub.Store().EnableDurability(storage.DurabilityOptions{Dir: dir, Policy: storage.SyncGroup}); err != nil {
		t.Fatal(err)
	}
	defer pub.Store().Close()
	if err := pub.ExecScript(itemDDL); err != nil {
		t.Fatal(err)
	}
	srv := repl.NewServer(pub)
	art, err := srv.EnsureArticle("item", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := srv.Resume("cache1", art, "tgt", 1); !ok {
		t.Fatal("subscription at the head of an empty log refused")
	}
	sub := srv.Subscriptions()[0]

	for i := 1; i <= 10; i++ {
		if _, err := pub.Exec(fmt.Sprintf(
			"INSERT INTO item (i_id, i_title, i_cost, i_subject) VALUES (%d, 't%d', %d.5, 'ARTS')", i, i, i), nil); err != nil {
			t.Fatal(err)
		}
	}
	// A checkpoint at LSN 11 makes the whole log redundant *for recovery* —
	// but the pull subscriber still needs it.
	if ck, err := pub.Store().Checkpoint(); err != nil || ck != 11 {
		t.Fatalf("checkpoint: lsn=%d err=%v", ck, err)
	}
	srv.RunLogReader()
	if first := pub.Store().WAL().First(); first != 1 {
		t.Fatalf("truncation dropped records the pull subscriber has not acked: First=%d", first)
	}

	// Ack everything; the next pass may now truncate up to the cursor.
	if got := drain(srv, sub); len(got) != 10 {
		t.Fatalf("drained %d, want 10", len(got))
	}
	srv.RunLogReader()
	if first := pub.Store().WAL().First(); first != 11 {
		t.Fatalf("truncation blocked after full ack: First=%d, want 11", first)
	}

	// Resume a second subscriber behind the checkpoint: refused (truncated),
	// resume at the head: allowed, and it pins truncation again.
	if _, ok := srv.Resume("late", art, "tgt", 5); ok {
		t.Fatal("resume below the truncated window succeeded")
	}
	lateID, ok := srv.Resume("late", art, "tgt", 11)
	if !ok {
		t.Fatal("resume at the retained head refused")
	}
	late := srv.Subscriptions()[lateID]
	for i := 11; i <= 14; i++ {
		if _, err := pub.Exec(fmt.Sprintf(
			"INSERT INTO item (i_id, i_title, i_cost, i_subject) VALUES (%d, 't%d', %d.5, 'ARTS')", i, i, i), nil); err != nil {
			t.Fatal(err)
		}
	}
	srv.RunLogReader()
	if got := drain(srv, late); len(got) != 4 {
		t.Fatalf("resumed-at-head subscriber got %d batches, want 4", len(got))
	}
}
