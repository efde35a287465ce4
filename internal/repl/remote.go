package repl

import (
	"fmt"
	"slices"
	"strconv"
	"time"

	"mtcache/internal/metrics"
	"mtcache/internal/storage"
	"mtcache/internal/types"
)

// TxnBatch is one committed transaction filtered through a subscription's
// articles, each change addressed (ChangeRec.Table) to the subscriber's table
// it feeds: what a Subscriber pulls and applies locally in one transaction
// (the paper's "pull subscription", §2.2). Its rows are ChangeMap
// projections nothing mutates afterwards — built in shared arrays for a
// transport to encode (PullInto), each After row its own for a subscriber
// in the same process (Pull) — and the only serialization is the
// transport's, if there is one.
type TxnBatch struct {
	LSN        storage.LSN
	CommitTime time.Time
	Changes    []storage.ChangeRec
}

// Attachment is Provision's answer: the subscription's id, the first LSN the
// stream carries for the view, and whether the view was resumed at the LSN its
// subscriber asked for — then Rows is empty and the subscriber keeps the rows
// it has — or seeded, with Rows its initial population, current through the
// LSN before StartLSN. History, the publisher's from StartLSN-1 on (usually
// one entry), names every position the subscription will carry: only an open
// adds an entry, and an open starts a publisher that holds no subscription.
type Attachment struct {
	SubID    int
	History  storage.History
	StartLSN storage.LSN
	Resumed  bool
	Rows     []types.Row
}

// Provision makes a the feed of the subscriber's table target, creating the
// subscription named subName, under an id no subscription has had, on first
// use or again after it expired or the publisher restarted. A subscriber
// resumes only on the log it applied: one that restarted with target durably
// current through from-1 passes from > 0 and the ID of that position, and
// when this publisher's log has that ID at from-1 (storage.Store.IDAt) and
// attach accepts from, the stream carries a's changes for target from `from`
// on and the answer is Resumed.
// On any other outcome target is seeded: the snapshot is pinned and the
// article attached in one critical section — no pull reads the log in
// between — so a commit is either in the returned rows or in the stream,
// never in neither. The scan itself runs outside it, and the answer waits
// until an fsync covers the snapshot's last commit: a seed holds nothing a
// crash could take back.
func (s *Server) Provision(subName string, a *Article, target string, id uint64, from storage.LSN) (Attachment, error) {
	st := s.publisher.Store()
	s.mu.Lock()
	if from > 0 {
		fields := []string{"sub", subName, "target", target, "from_lsn", strconv.FormatUint(uint64(from), 10)}
		if id == st.IDAt(from-1) {
			if subID, ok := s.attach(subName, a, target, from); ok {
				s.mu.Unlock()
				metrics.Default.Event("repl.resubscribes", fields...)
				return Attachment{SubID: subID, History: st.History(from - 1), StartLSN: from, Resumed: true}, nil
			}
		}
		metrics.Default.Event("repl.resume_misses", fields...)
	}
	// AsOfLSN, not WAL().End(): commits proceed during the scan, so the log
	// may already extend past what this snapshot sees. No pull has read past
	// it — a pull stops at the store's durable end, which is not past it.
	rtx := st.Begin(false)
	defer rtx.Abort()
	src, ok := rtx.Table(a.Table)
	if !ok {
		s.mu.Unlock()
		return Attachment{}, fmt.Errorf("repl: no storage for %s on publisher", a.Table)
	}
	start := rtx.AsOfLSN()
	at := Attachment{History: st.History(start - 1), StartLSN: start}
	at.SubID, _ = s.attach(subName, a, target, at.StartLSN)
	s.mu.Unlock()

	// The snapshot is the article's share of an insert of every row there is.
	var evalErr error
	src.Scan(func(_ storage.RowID, row types.Row) bool {
		c, ok, err := a.Map(storage.ChangeRec{Op: storage.OpInsert, After: row})
		if ok {
			at.Rows = append(at.Rows, c.After)
		}
		evalErr = err
		return err == nil
	})
	if evalErr != nil {
		return at, evalErr
	}
	return at, st.WaitDurable(at.StartLSN - 1)
}

// attach is the one way an article joins a subscription: afterwards the
// stream of the subscription named subName carries a's changes for target
// from LSN `from` on. It is idempotent by (subName, target), so a retried
// request leaves neither a second subscription — whose ack would pin the WAL
// forever — nor a second feed. Callers hold s.mu.
//
// ok is false when the WAL no longer holds `from`, or `from` is past the
// visible end: the caller is ahead of a publisher that lost state, and a
// retried request finding its original's feed must not be told otherwise.
// When the stream already carries a for target from `from` on — the feed
// starts at or before it and nothing past from-1 has been acknowledged —
// nothing changes: a retried request's late original must not move a feed
// the retry's snapshot was seeded against. Otherwise it replaces target's
// feed and lowers the ack to from-1, so the next pull reads the log again
// from `from`.
func (s *Server) attach(subName string, a *Article, target string, from storage.LSN) (id int, ok bool) {
	if from < s.publisher.Store().WAL().First() || from > s.publisher.Store().VisibleEnd() {
		return 0, false
	}
	var sub *Subscription
	for i, named := range s.subs {
		if named.Name == subName {
			id, sub = i, named
		}
	}
	if sub == nil {
		id, sub = s.nextID, &Subscription{Name: subName, acked: from - 1}
		s.subs[id] = sub
		s.nextID++
	} else if i := slices.IndexFunc(sub.feeds, func(f feed) bool { return f.target == target }); i >= 0 &&
		sub.feeds[i].Article == a && sub.feeds[i].start <= from && sub.acked < from {
		return id, true
	}
	// A copy: a pull filtering outside the lock still holds the old slice.
	sub.feeds = append(slices.DeleteFunc(slices.Clone(sub.feeds), func(f feed) bool { return f.target == target }),
		feed{Article: a, target: target, start: from})
	sub.acked = min(sub.acked, from-1)
	return id, true
}

// PullInto is the one place the log is read for a subscriber — the paper's
// log reader and distribution database in one step. A subscription id the
// server does not hold is answered ErrNoSubscription. It runs the truncation
// pass first and then records ack, so the log still holds everything past the
// previous ack: a subscriber that restarts behind this one can be rewound. The
// ack only rises; a stale one re-delivers from the highest seen. The records
// past it, up to the store's durable end, are read under s.mu and filtered
// through the feeds outside it: a commit no fsync covers yet is not sent,
// since a crash could take it back and a restart give its LSN to another
// commit. The answer is one TxnBatch per commit record that touches a feed,
// up to limit (<= 0 means all), in LSN order, built in sl's arrays: the
// batches, their changes and every projected row's values each share one,
// sized by answerSize. It is valid until sl is used or cleared again, which
// makes it an answer to encode, not to keep (Pull).
//
// Nothing is removed by a read, so a pull whose response was lost in transit
// is answered again by the next one: delivery is at-least-once, and the
// subscriber's LSN dedup makes application exactly-once.
//
// The second result is the LSN the stream is complete through: the durable end
// minus one — past the last batch's LSN when later commits touch no feed — or
// the last batch's LSN when limit cut the answer short. Subscribers use it to
// report applied progress for writes their views never see.
func (s *Server) PullInto(sl *Slabs, id, limit int, ack storage.LSN) ([]TxnBatch, storage.LSN, error) {
	start := time.Now()
	s.mu.Lock()
	sub := s.subs[id]
	if sub == nil {
		s.mu.Unlock()
		return nil, 0, ErrNoSubscription
	}
	s.truncate()
	sub.acked = max(sub.acked, ack)
	end := s.publisher.Store().DurableEnd()
	var recs []storage.CommitRecord
	if sub.acked+1 < end {
		recs = s.publisher.Store().WAL().ReadFrom(sub.acked+1, int(end-1-sub.acked))
	}
	feeds := sub.feeds
	s.mu.Unlock()

	nb, nc, nv := answerSize(feeds, recs)
	batches, changes, vals := room(sl.batches, nb), room(sl.changes, nc), room(sl.vals, nv)
	through := end - 1
	for _, rec := range recs {
		from := len(changes)
		if changes, vals = filter(changes, vals, feeds, rec); len(changes) == from {
			continue
		}
		if limit > 0 && len(batches) == limit {
			through = batches[limit-1].LSN
			break
		}
		batches = append(batches, TxnBatch{LSN: rec.LSN, CommitTime: rec.CommitTime, Changes: changes[from:len(changes):len(changes)]})
	}
	sl.batches, sl.changes, sl.vals = batches, changes, vals
	d := time.Since(start)
	s.Stats.ReaderTime.Add(int64(d))
	metrics.Default.Histogram("repl.reader_seconds").ObserveDuration(d)
	if len(batches) == 0 {
		batches = nil
	}
	return batches, through, nil
}

// Pull is PullInto for a subscriber that keeps what it is handed: Txn.Apply
// keeps every After row, so each is copied out of the answer's shared array
// into an allocation of its own — no row a store keeps shares one with
// another row. A Before row is only read, and stays where it is.
func (s *Server) Pull(id, limit int, ack storage.LSN) ([]TxnBatch, storage.LSN, error) {
	batches, through, err := s.PullInto(new(Slabs), id, limit, ack)
	for _, b := range batches {
		for i := range b.Changes {
			b.Changes[i].After = slices.Clone(b.Changes[i].After)
		}
	}
	return batches, through, err
}
