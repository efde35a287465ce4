package repl

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"time"

	"mtcache/internal/engine"
	"mtcache/internal/metrics"
	"mtcache/internal/storage"
	"mtcache/internal/types"
)

// Puller is the publisher as a subscriber sees it: Pull acknowledges every
// batch at or below ack, returns up to max (<= 0 means all) of the following
// ones and the LSN the stream is complete through (DrainAfterThrough behind
// whatever transport carries the call).
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
	AppliedLSN  storage.LSN
	CurrentAsOf time.Time // start of the last round that applied everything it was handed
	ApplyErrors int64     // rounds that failed to apply
	LastError   string    // the most recent apply failure, "" if none
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
// batch with no table advanced; the suffix stays queued on the publisher for
// the next pull.
//
// Pull rounds and AddView calls on one Subscriber must not overlap; the owner
// serializes them.
type Subscriber struct {
	target *engine.Database
	stats  ApplyStats

	mu    sync.Mutex
	views []view // append-only
	st    SubscriberStatus
}

// NewSubscriber returns the subscriber for target's tables; AddView gives it
// its first one.
func NewSubscriber(target *engine.Database, stats ApplyStats) *Subscriber {
	return &Subscriber{target: target, stats: stats,
		st: SubscriberStatus{AppliedLSN: math.MaxInt64, CurrentAsOf: time.Now()}}
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
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, len(s.views))
	for i, v := range s.views {
		out[i] = v.table
	}
	return out
}

// HasView reports whether table is one of the target tables. Unlike Views it
// copies nothing: the staleness probe asks it once per view a plan read.
func (s *Subscriber) HasView(table string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.ContainsFunc(s.views, func(v view) bool { return strings.EqualFold(v.table, table) })
}

// AddView populates table with rows current through start-1 — a publisher
// snapshot (Server.Provision) or rows restored from a checkpoint
// (Server.Resume) — and applies the table's changes from start on; subID is
// the subscription the publisher attached it to. The views the subscriber
// already has move to start-1 in the transaction that makes the rows visible,
// so no reader sees the new view and an old one at different positions.
func (s *Subscriber) AddView(src Puller, subID int, table string, rows []types.Row, start storage.LSN) error {
	s.mu.Lock()
	views, applied := s.views, s.st.AppliedLSN
	s.mu.Unlock()
	// The seed is a transaction of inserts; the batches that move the older
	// views up to start-1 ride in the same local transaction. They are at
	// LSNs below start, so their changes to table — which the seed already
	// holds — are passed over.
	seed := TxnBatch{LSN: start, Changes: make([]storage.ChangeRec, len(rows))}
	for i, row := range rows {
		seed.Changes[i] = storage.ChangeRec{Table: table, Op: storage.OpInsert, After: row}
	}
	txn := []TxnBatch{seed}
	if applied < start-1 { // never for the first view: no views is "current"
		batches, through, err := src.Pull(subID, 0, applied)
		if err != nil {
			return err
		}
		if through < start-1 {
			return fmt.Errorf("repl: seed of %s is current through %d, the stream only through %d", table, start-1, through)
		}
		for _, b := range batches {
			if b.LSN > applied && b.LSN < start {
				txn = append(txn, b)
			}
		}
	}
	views = append(views[:len(views):len(views)], view{table, start})
	if err := s.apply(views, txn...); err != nil {
		return fmt.Errorf("repl: seed of %s: %w", table, err)
	}
	if err := s.target.AnalyzeTable(table); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(views) == 1 { // the first view: the cursor starts at its seed
		s.st.AppliedLSN, s.st.CurrentAsOf = start-1, time.Now()
	}
	s.st.AppliedLSN = max(s.st.AppliedLSN, start-1)
	s.st.SubID, s.views = subID, views
	return nil
}

// Pull performs one pull-and-apply round and returns the number of
// transactions applied. On any error the cursor stays at the last applied
// batch: nothing is lost, the publisher re-delivers from there.
func (s *Subscriber) Pull(src Puller) (int, error) {
	s.mu.Lock()
	views, subID, acked := s.views, s.st.SubID, s.st.AppliedLSN
	s.mu.Unlock()
	if len(views) == 0 {
		return 0, nil
	}
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
		if err = s.apply(views, b); err != nil {
			// Stop at the failed batch to preserve LSN order; everything
			// unapplied is still queued on the publisher.
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
		s.st.CurrentAsOf = start
	}
	s.st.AppliedLSN = max(s.st.AppliedLSN, through, applied)
	return n, err
}

// apply applies batches in one transaction, committing unlogged so replicated
// changes do not re-enter the subscriber's own WAL. ChangeRec.Table names the
// target table; a change is passed over when that is not one of views or the
// batch is below the view's start — it is in the view's seed already. Applying
// one is storage.Txn.Apply, as a backend maintaining a materialized view does.
func (s *Subscriber) apply(views []view, batches ...TxnBatch) error {
	tx := s.target.Store().Begin(true)
	defer tx.Abort() // a no-op once committed
	var touched []string
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
