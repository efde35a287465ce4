package repl

import (
	"fmt"
	"strconv"
	"time"

	"mtcache/internal/metrics"
	"mtcache/internal/querystore"
	"mtcache/internal/storage"
	"mtcache/internal/types"
)

// TxnBatch is one committed transaction filtered through an article: what
// the log reader appends to a subscription's distribution queue, and what a
// Subscriber pulls from it and applies locally (the paper's "pull
// subscription", §2.2). The queue holds it as filterTxn produced it — rows
// are fresh Article.project copies that nothing mutates after enqueue, so a
// drain hands out the same Changes (re-deliveries included) and the only
// serialization is the transport's, if there is one.
type TxnBatch struct {
	LSN        storage.LSN
	CommitTime time.Time
	Changes    []storage.ChangeRec
}

// SnapshotRows computes the article's current contents plus the LSN the
// change stream must start from: a subscriber's initial population.
func (s *Server) SnapshotRows(a *Article) ([]types.Row, storage.LSN, error) {
	pubStore := s.publisher.Store()
	rtx := pubStore.Begin(false)
	src := rtx.Table(a.Table)
	if src == nil {
		rtx.Abort()
		return nil, 0, fmt.Errorf("repl: no storage for %s on publisher", a.Table)
	}
	var rows []types.Row
	var evalErr error
	src.Scan(func(_ storage.RowID, row types.Row) bool {
		ok, err := a.matches(row)
		if err != nil {
			evalErr = err
			return false
		}
		if ok {
			rows = append(rows, a.project(row))
		}
		return true
	})
	// AsOfLSN, not WAL().End(): under MVCC commits proceed during the scan,
	// so the log may already extend past what this snapshot sees.
	lsn := rtx.AsOfLSN()
	rtx.Abort()
	if evalErr != nil {
		return nil, 0, evalErr
	}
	return rows, lsn, nil
}

// SubscribeRemote registers a subscription: the log reader fills its queue,
// and the subscriber drains it with DrainAfterThrough. startLSN is the value
// returned by SnapshotRows.
func (s *Server) SubscribeRemote(a *Article, name string, startLSN storage.LSN) *Subscription {
	sub := &Subscription{
		Name:    name,
		Article: a,
		nextLSN: startLSN,
	}
	s.mu.Lock()
	s.subs = append(s.subs, sub)
	s.mu.Unlock()
	return sub
}

// ResumeRemote re-creates a subscription for a subscriber that restarted
// with durable state as of startLSN (its last checkpointed apply
// position + 1). It succeeds only when the publisher's WAL still retains
// every record from startLSN on — then the log reader is rewound so the
// stream replays from there and the subscriber skips the full reseed. When
// the WAL has been truncated past startLSN the gap is unrecoverable and the
// caller must fall back to a fresh snapshot (SnapshotRows + SubscribeRemote).
func (s *Server) ResumeRemote(a *Article, name string, startLSN storage.LSN) (*Subscription, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	wal := s.publisher.Store().WAL()
	if startLSN < wal.First() || startLSN > wal.End() {
		metrics.Default.Counter("repl.resume_misses").Add(1)
		querystore.Emit("repl_resume_miss", "sub", name,
			"from_lsn", strconv.FormatUint(uint64(startLSN), 10),
			"wal_first", strconv.FormatUint(uint64(wal.First()), 10))
		return nil, false
	}
	sub := &Subscription{
		Name:    name,
		Article: a,
		nextLSN: startLSN,
	}
	// Rewind the log reader so the next pass re-reads from the resume point;
	// other subscriptions' nextLSN cursors make re-delivered records no-ops
	// for them.
	if startLSN < s.readerLSN {
		s.readerLSN = startLSN
	}
	s.subs = append(s.subs, sub)
	metrics.Default.Counter("repl.resubscribes").Add(1)
	querystore.Emit("repl_resubscribe", "sub", name,
		"from_lsn", strconv.FormatUint(uint64(startLSN), 10))
	return sub, true
}

// ResetRemote rewinds a subscription to a fresh snapshot point: pending
// batches are dropped and the stream restarts at startLSN. Used to make
// provisioning idempotent — re-provisioning an existing subscription reuses
// it instead of leaking an undrained queue that would pin the WAL.
func (s *Server) ResetRemote(sub *Subscription, startLSN storage.LSN) {
	sub.mu.Lock()
	sub.queue = nil
	sub.nextLSN = startLSN
	sub.mu.Unlock()
}

// DrainAfterThrough acknowledges every queued transaction with LSN <= ack
// (removing it from the distribution queue) and returns — without removing —
// up to max (<= 0 means all) of the remaining ones, in commit (LSN) order.
//
// This is the fault-tolerant half of a pull subscription: a batch stays
// queued until a later call acknowledges it, so a pull whose response was
// lost in transit re-delivers the same batches. Delivery is therefore
// at-least-once; the subscriber deduplicates by LSN, which together yields
// exactly-once application.
//
// The second result is the LSN the subscription's change stream is complete
// through: when the whole remaining queue is returned, that is the log
// reader's cursor minus one — which may run ahead of the last batch's LSN,
// because the reader advances past transactions that do not touch the
// article without queueing anything. A truncated response is only complete
// through its last returned batch. Subscribers use the value to report
// applied progress for writes their views never see.
func (s *Server) DrainAfterThrough(sub *Subscription, ack storage.LSN, max int) ([]TxnBatch, storage.LSN) {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	drop := 0
	for drop < len(sub.queue) && sub.queue[drop].LSN <= ack {
		drop++
	}
	sub.queue = sub.queue[drop:]
	n := len(sub.queue)
	truncated := false
	if max > 0 && n > max {
		n = max
		truncated = true
	}
	through := sub.nextLSN - 1
	if truncated {
		through = sub.queue[n-1].LSN
	}
	// Queue elements are written once and only ever re-sliced away, so the
	// prefix stays readable after the lock is released; its capped length
	// keeps a caller's append off the queue's tail.
	return sub.queue[:n:n], through
}
