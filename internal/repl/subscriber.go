package repl

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"mtcache/internal/engine"
	"mtcache/internal/metrics"
	"mtcache/internal/storage"
	"mtcache/internal/types"
)

// Puller is the publisher as a subscriber sees it: Pull acknowledges
// everything at or below ack and returns up to max (<= 0 means all) of the
// batches past it, read from the publisher's log, and the LSN the stream is
// complete through (Server.Pull behind whatever transport carries the call).
type Puller interface {
	Pull(subID, max int, ack storage.LSN) ([]TxnBatch, storage.LSN, error)
}

// ApplyStats accumulates the subscriber-side replication costs, used by the
// replication experiments (paper §6.2.2 and §6.2.3).
type ApplyStats struct {
	TxnsApplied *metrics.Counter
	Latency     *metrics.Histogram // commit-to-commit propagation delay
	ApplyTime   *metrics.Counter   // ns spent applying (cache overhead)
}

// NewApplyStats returns zeroed stats.
func NewApplyStats() ApplyStats {
	return ApplyStats{TxnsApplied: &metrics.Counter{}, Latency: metrics.NewHistogram(0), ApplyTime: &metrics.Counter{}}
}

// SubscriberStatus is a Subscriber's replication cursor and failure record.
type SubscriberStatus struct {
	SubID int // the publisher's handle for the subscription, once a view is attached
	// AppliedLSN is the one position of the subscriber: every view is current
	// through it. Pulls acknowledge and deduplicate with it. It follows the
	// pull responses' completeness position, so it also advances past commits
	// that touch no view — without that it would stall at the last write that
	// happened to hit a view, wedging every session gated on a later
	// watermark. A subscriber with no views holds no replicated data and is
	// vacuously current: math.MaxInt64.
	AppliedLSN storage.LSN
	// ID names the publisher incarnation that wrote AppliedLSN.
	ID uint64
	// CurrentAsOf is the instant before the request of the last round that
	// applied everything it was handed (or of the seed a view was provisioned
	// from, when later): every commit before it is applied. Zero while it is
	// not known — views resumed from a checkpoint, before their first round.
	CurrentAsOf time.Time
	ApplyErrors int64  // rounds that failed to apply
	LastError   string // the most recent apply failure, "" if none
}

// view is one target table and the first LSN whose changes apply to it (it
// was seeded through the LSN before).
type view struct {
	table string
	start storage.LSN
}

// Subscriber is the subscriber half of a pull subscription — the paper's
// distribution agent. It owns the one replication cursor of all its target
// tables: a backend transaction is applied in one local transaction, exactly
// once and in LSN order (each pull acknowledges what was applied and skips
// re-delivered batches), and a failed apply stops the stream at the failed
// batch with no table advanced; the suffix stays unacknowledged in the
// publisher's log for the next pull.
//
// Pull rounds and Attach calls on one Subscriber must not overlap; the owner
// serializes them.
type Subscriber struct {
	target *engine.Database
	stats  ApplyStats
	tx     storage.Txn // apply's, kept between applies, which never overlap

	mu      sync.Mutex
	views   []view          // replaced, never edited in place (current)
	history storage.History // the publisher's, naming every position past AppliedLSN
	st      SubscriberStatus
}

// NewSubscriber returns the subscriber for target's tables; Attach gives it
// its first one.
func NewSubscriber(target *engine.Database, stats ApplyStats) *Subscriber {
	return &Subscriber{target: target, stats: stats,
		st: SubscriberStatus{AppliedLSN: math.MaxInt64}}
}

// Status returns the current cursor and failure record. Staleness — how far
// the views may trail the publisher — is the time since CurrentAsOf.
func (s *Subscriber) Status() SubscriberStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st
}

// Views returns the target tables, in the order they were added.
func (s *Subscriber) Views() []string {
	views, _ := s.current()
	out := make([]string, len(views))
	for i, v := range views {
		out[i] = v.table
	}
	return out
}

// current returns the views and the status. A view whose table the target
// no longer has (DROP VIEW) is taken out first: changes to it are passed
// over from then on, as for any table that is not a view, and a re-attach
// provisions the others only. A drop that lands while a round applies fails
// that round once, and the next one passes it over.
func (s *Subscriber) current() ([]view, SubscriberStatus) {
	s.mu.Lock()
	defer s.mu.Unlock()
	dropped := func(v view) bool { return s.target.Catalog().Table(v.table) == nil }
	if slices.ContainsFunc(s.views, dropped) {
		s.views = slices.DeleteFunc(slices.Clone(s.views), dropped)
	}
	return s.views, s.st
}

// Attached is one target table's Provision answer as the subscriber takes it
// (Attach). A seeded table's rows are replaced by Rows, current through
// StartLSN-1. A resumed table keeps the rows it holds, which are current
// through StartLSN-1, and gains Rows: rows restored from a checkpoint into a
// table created empty.
type Attached struct {
	Table string
	Attachment
}

// Attach makes each of ats a view fed by its subscription from its StartLSN
// on, in one local transaction with every view the subscriber has: a seeded
// view's rows are replaced, a resumed view keeps its rows, and the views the
// subscriber already has stand where it stands. When they do not all stand
// at one position, the transaction also applies the stream past the lowest
// of them, so that every view ends where the stream is complete through; no
// reader sees two views at different positions. The cursor moves to where
// the views end — below where it stood when the publisher lost state. When
// the views end at rows fetched after asOf — the instant before the first
// Provision request — because a view was seeded or the stream was pulled,
// CurrentAsOf moves up to asOf. Views that were all resumed are as current
// as they were, and it stays. All of ats name one subscription, and so one
// publisher, whose history names every position the cursor takes from then
// on; when it is not the subscription the subscriber pulls from, ats must
// hold every view it has.
func (s *Subscriber) Attach(src Puller, ats []Attached, asOf time.Time) error {
	views, st := s.current()
	subID := ats[0].SubID
	// A view's start is the first LSN it needs; every view stands at start-1.
	next := make([]view, len(views), len(views)+len(ats))
	for i, v := range views {
		next[i] = view{v.table, st.AppliedLSN + 1}
	}
	fed := 0 // how many of views ats attach again
	for _, a := range ats {
		if a.SubID != subID {
			return fmt.Errorf("repl: %s is attached to subscription %d, %s to %d", ats[0].Table, subID, a.Table, a.SubID)
		}
		i := slices.IndexFunc(next, func(v view) bool { return v.table == a.Table })
		if i < 0 {
			i, next = len(next), append(next, view{table: a.Table})
		} else {
			fed++
		}
		next[i].start = a.StartLSN
	}
	if subID != st.SubID && fed < len(views) {
		return fmt.Errorf("repl: subscription %d does not feed all of %d views", subID, len(views))
	}
	lo, hi := next[0].start, next[0].start
	for _, v := range next[1:] {
		lo, hi = min(lo, v.start), max(hi, v.start)
	}
	at := hi - 1
	var batches []TxnBatch
	if lo < hi {
		var err error
		if batches, at, err = src.Pull(subID, 0, lo-1); err != nil {
			return err
		}
		if at < hi-1 {
			return fmt.Errorf("repl: a view is seeded through %d, the stream complete only through %d", hi-1, at)
		}
	}
	if err := s.apply(next, ats, batches...); err != nil {
		return fmt.Errorf("repl: attach: %w", err)
	}
	for _, a := range ats {
		if !a.Resumed || len(a.Rows) > 0 {
			if err := s.target.AnalyzeTable(a.Table); err != nil {
				return err
			}
		}
	}
	fetched := lo < hi || slices.ContainsFunc(ats, func(a Attached) bool { return !a.Resumed })
	s.mu.Lock()
	defer s.mu.Unlock()
	s.history, s.st.AppliedLSN, s.st.ID = ats[0].History, at, ats[0].History.At(at)
	if fetched && asOf.After(s.st.CurrentAsOf) {
		s.st.CurrentAsOf = asOf
	}
	s.st.SubID, s.views = subID, next
	return nil
}

// Pull performs one pull-and-apply round and returns the number of
// transactions applied. On any error the cursor stays at the last applied
// batch: nothing is lost, the publisher re-delivers from there.
func (s *Subscriber) Pull(src Puller) (int, error) {
	views, st := s.current()
	subID, acked := st.SubID, st.AppliedLSN
	if len(views) == 0 {
		return 0, nil
	}
	asOf := time.Now() // a commit after this may be missing from the response
	batches, through, err := src.Pull(subID, 0, acked)
	if err != nil {
		return 0, err
	}
	applied, n := acked, 0
	start := time.Now()
	for _, b := range batches {
		if b.LSN <= applied {
			// Re-delivered batch from a pull whose response was lost —
			// already applied; acknowledging happens on the next pull.
			metrics.Default.Counter("wire.pull_redelivered").Add(1)
			continue
		}
		if err = s.apply(views, nil, b); err != nil {
			// Stop at the failed batch to preserve LSN order; everything
			// unapplied is still unacknowledged on the publisher.
			break
		}
		applied = b.LSN
		n++
		lat := time.Since(b.CommitTime)
		s.stats.TxnsApplied.Add(1)
		s.stats.Latency.ObserveDuration(lat)
		metrics.Default.Histogram("repl.latency_seconds").ObserveDuration(lat)
	}
	if n > 0 || err != nil {
		d := time.Since(start)
		s.stats.ApplyTime.Add(int64(d))
		metrics.Default.Histogram("repl.apply_seconds").ObserveDuration(d)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		// A failed apply caps the position at the last applied batch, and the
		// views are not current as of this round. The pull loop retries, so
		// this record and the counter are the only durable trace of trouble.
		s.st.ApplyErrors++
		s.st.LastError = err.Error()
		metrics.Default.Counter("repl.apply_errors").Add(1)
		through = applied
	} else {
		s.st.CurrentAsOf = asOf
	}
	s.st.AppliedLSN = max(s.st.AppliedLSN, through, applied)
	s.st.ID = s.history.At(s.st.AppliedLSN)
	return n, err
}

// apply applies batches in one transaction, committing unlogged so replicated
// changes do not re-enter the subscriber's own WAL. First it inserts each of
// ats' rows, into a seeded table after deleting every row it held. Then
// ChangeRec.Table names the target table; a change is passed over when that
// is not one of views or the batch is below the view's start — it is in the
// view's seed already. Applying one is storage.Txn.Apply, as a backend
// maintaining a materialized view does. The transaction is the one the
// subscriber keeps (storage.Store.BeginWrite): pull rounds and Attach calls
// do not overlap, and a finished write holds nothing.
func (s *Subscriber) apply(views []view, ats []Attached, batches ...TxnBatch) error {
	tx := &s.tx
	s.target.Store().BeginWrite(tx)
	defer tx.Abort() // a no-op once committed
	var touchedBuf [8]string
	touched := touchedBuf[:0]
	for _, a := range ats {
		var rids []storage.RowID
		if tv, ok := tx.Table(a.Table); ok && !a.Resumed {
			tv.Scan(func(rid storage.RowID, _ types.Row) bool {
				rids = append(rids, rid)
				return true
			})
		}
		for _, rid := range rids {
			if err := tx.Delete(a.Table, rid); err != nil {
				return fmt.Errorf("repl: %w", err)
			}
		}
		if len(a.Rows) > 0 {
			if err := tx.Fill(a.Table, a.Rows); err != nil {
				return fmt.Errorf("repl: %w", err)
			}
		}
		if len(rids) > 0 || len(a.Rows) > 0 {
			touched = append(touched, a.Table)
		}
	}
	for _, b := range batches {
		for _, ch := range b.Changes {
			if i := slices.IndexFunc(views, func(v view) bool { return v.table == ch.Table }); i < 0 || b.LSN < views[i].start {
				continue
			}
			if err := tx.Apply(ch); err != nil {
				return fmt.Errorf("repl: %w", err)
			}
			if len(touched) == 0 || touched[len(touched)-1] != ch.Table {
				touched = append(touched, ch.Table)
			}
		}
	}
	if err := tx.CommitUnlogged(); err != nil {
		return err
	}
	// Replicated writes are the invalidation signal for intermediate results
	// derived from these tables: mark them stale now that the change is visible.
	slices.Sort(touched)
	for _, table := range slices.Compact(touched) {
		s.target.InvalidateIntermediates(table)
	}
	return nil
}
