package repl

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"time"

	"mtcache/internal/metrics"
	"mtcache/internal/querystore"
	"mtcache/internal/storage"
	"mtcache/internal/types"
)

// TxnBatch is one committed transaction filtered through a subscription's
// articles, each change addressed (ChangeRec.Table) to the subscriber's table
// it feeds: what the log reader appends to the distribution queue, and what a
// Subscriber pulls from it and applies locally in one transaction (the
// paper's "pull subscription", §2.2). The queue holds it as
// Subscription.filter produced it — rows are fresh ChangeMap projections that
// nothing mutates after enqueue, so a drain hands out the same Changes
// (re-deliveries included) and the only serialization is the transport's, if
// there is one.
type TxnBatch struct {
	LSN        storage.LSN
	CommitTime time.Time
	Changes    []storage.ChangeRec
}

// Provision makes a the feed of the subscriber's table target — creating the
// subscription named subName on first use — and returns the subscription id,
// the LSN the article's changes start from and the table's initial
// population, current through the LSN before. The snapshot is pinned and the
// article attached in one critical section with the log reader: a commit is
// either in the returned rows or in the stream, never in neither. The scan
// itself runs outside it.
func (s *Server) Provision(subName string, a *Article, target string) (int, storage.LSN, []types.Row, error) {
	s.mu.Lock()
	// AsOfLSN, not WAL().End(): commits proceed during the scan, so the log
	// may already extend past what this snapshot sees. No cursor is past it —
	// the reader stops at the store's visible end.
	rtx := s.publisher.Store().Begin(false)
	defer rtx.Abort()
	src := rtx.Table(a.Table)
	if src == nil {
		s.mu.Unlock()
		return 0, 0, nil, fmt.Errorf("repl: no storage for %s on publisher", a.Table)
	}
	start := rtx.AsOfLSN()
	id, _ := s.attach(subName, a, target, start)
	s.mu.Unlock()

	// The snapshot is the article's share of an insert of every row there is.
	var rows []types.Row
	var evalErr error
	src.Scan(func(_ storage.RowID, row types.Row) bool {
		c, ok, err := a.Map(storage.ChangeRec{Op: storage.OpInsert, After: row})
		if ok {
			rows = append(rows, c.After)
		}
		evalErr = err
		return err == nil
	})
	return id, start, rows, evalErr
}

// Resume reattaches a subscriber that restarted with target durably current
// through from-1: the stream carries a's changes for target from `from` on,
// with no initial population. ok is false when the publisher can no longer
// serve that position — the log was truncated past it, or the subscriber is
// ahead of a publisher that lost state — and the caller must Provision afresh.
func (s *Server) Resume(subName string, a *Article, target string, from storage.LSN) (id int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	counter, event := "repl.resume_misses", "repl_resume_miss"
	if id, ok = s.attach(subName, a, target, from); ok {
		counter, event = "repl.resubscribes", "repl_resubscribe"
	}
	metrics.Default.Counter(counter).Add(1)
	querystore.Emit(event, "sub", subName, "target", target, "from_lsn", strconv.FormatUint(uint64(from), 10))
	return id, ok
}

// attach is the one way an article joins a subscription: afterwards the
// stream of the subscription named subName carries a's changes for target
// from LSN `from` on. It is idempotent by (subName, target), so a retried
// request leaves neither a second subscription — whose undrained queue would
// pin the WAL forever — nor a second feed. Callers hold s.mu, which keeps the
// log reader out.
//
// When the queue already covers `from` for this feed — it is attached at or
// before it and nothing past from-1 has been acknowledged — nothing changes.
// Otherwise the log is read again from `from`: the cursor moves back to it and
// the batches queued from there on, which lack this feed, are dropped for the
// reader to rebuild. That needs the WAL to still hold `from`; ok is false when
// it does not.
func (s *Server) attach(subName string, a *Article, target string, from storage.LSN) (id int, ok bool) {
	id = slices.IndexFunc(s.subs, func(sub *Subscription) bool { return sub.Name == subName })
	if id < 0 {
		id = len(s.subs)
	} else {
		sub := s.subs[id]
		i := slices.IndexFunc(sub.feeds, func(f feed) bool { return f.target == target })
		if i >= 0 && sub.feeds[i].Article == a && sub.feeds[i].start <= from && sub.acked < from {
			return id, true
		}
	}
	wal := s.publisher.Store().WAL()
	if from < wal.First() || from > s.publisher.Store().VisibleEnd() {
		return 0, false
	}
	if id == len(s.subs) {
		s.subs = append(s.subs, &Subscription{Name: subName, nextLSN: from, acked: from - 1})
	}
	sub := s.subs[id]
	sub.feeds = append(slices.DeleteFunc(sub.feeds, func(f feed) bool { return f.target == target }),
		feed{Article: a, target: target, start: from})
	sub.mu.Lock()
	// Capped, so the reader's next append cannot overwrite a slot an earlier
	// drain handed out.
	k := sort.Search(len(sub.queue), func(i int) bool { return sub.queue[i].LSN >= from })
	sub.queue = sub.queue[:k:k]
	sub.nextLSN = min(sub.nextLSN, from)
	sub.acked = min(sub.acked, from-1)
	sub.mu.Unlock()
	return id, true
}

// Pull is one subscriber pull: a log-reader pass, then the subscription's
// queue past ack (DrainAfterThrough).
func (s *Server) Pull(id, max int, ack storage.LSN) ([]TxnBatch, storage.LSN, error) {
	s.mu.Lock()
	if id < 0 || id >= len(s.subs) {
		s.mu.Unlock()
		return nil, 0, errors.New("repl: unknown subscription")
	}
	sub := s.subs[id]
	s.mu.Unlock()
	s.RunLogReader()
	batches, through := s.DrainAfterThrough(sub, ack, max)
	return batches, through, nil
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
	if drop > 0 {
		sub.acked = sub.queue[drop-1].LSN
		sub.queue = sub.queue[drop:]
	}
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
