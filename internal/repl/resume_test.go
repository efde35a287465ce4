package repl_test

import (
	"fmt"
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
// subscriber: a subscription re-created with ResumeRemote at its durable
// apply position must receive exactly the records from that position on,
// without a reseed, as long as the publisher's WAL retains them.
func TestResumeRemoteReplaysFromCheckpoint(t *testing.T) {
	b := newPublisher(t, 0)
	pub, srv := b.DB, b.Repl
	art, err := srv.EnsureArticle("item", nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Original subscriber: snapshot at LSN 1, stream everything.
	rows, startLSN, err := srv.SnapshotRows(art)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 || startLSN != 1 {
		t.Fatalf("empty snapshot: %d rows start %d", len(rows), startLSN)
	}
	orig := srv.SubscribeRemote(art, "cache1", startLSN)

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

	// The subscriber restarts having durably applied through LSN 4: it
	// resumes at 5 and must get 5..10 again — and only those.
	resumed, ok := srv.ResumeRemote(art, "cache1", 5)
	if !ok {
		t.Fatalf("resume at 5 refused; WAL window is [%d,%d)", pub.Store().WAL().First(), pub.Store().WAL().End())
	}
	srv.RunLogReader()
	batches := drain(srv, resumed)
	if len(batches) != 6 {
		t.Fatalf("resumed subscriber got %d batches, want 6 (LSNs 5..10)", len(batches))
	}
	for i, b := range batches {
		if b.LSN != storage.LSN(5+i) {
			t.Fatalf("batch %d has LSN %d, want %d", i, b.LSN, 5+i)
		}
	}
	// The rewound pass must not re-deliver to the original subscription.
	if n := srv.PendingFor(orig); n != 0 {
		t.Fatalf("original subscription re-received %d batches after the rewind", n)
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
	if _, ok := srv.ResumeRemote(art, "cache1", 5); ok {
		t.Fatal("resume at a truncated LSN succeeded; it must force a reseed")
	}
	// A position inside the (empty) retained window is fine.
	if _, ok := srv.ResumeRemote(art, "cache2", 11); !ok {
		t.Fatal("resume at the WAL head refused")
	}
	// A position past the publisher's log means the subscriber is ahead of a
	// publisher that lost state — also a reseed.
	if _, ok := srv.ResumeRemote(art, "cache3", 99); ok {
		t.Fatal("resume past the WAL end succeeded")
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
	sub := srv.SubscribeRemote(art, "cache1", 1)

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
	if _, ok := srv.ResumeRemote(art, "late", 5); ok {
		t.Fatal("resume below the truncated window succeeded")
	}
	late, ok := srv.ResumeRemote(art, "late", 11)
	if !ok {
		t.Fatal("resume at the retained head refused")
	}
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
