package repl

import (
	"fmt"
	"sync"
	"time"

	"mtcache/internal/catalog"
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
// replication experiments (paper §6.2.2 and §6.2.3). One value is shared by
// all of a cache's subscribers.
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
	LastLSN storage.LSN // highest LSN applied; pulls ack and dedup with it
	// AppliedLSN is the LSN the table is known current through: LastLSN plus
	// the pull responses' completeness position, which also advances past
	// commits that never touch the article. Without it the applied position
	// would stall at the last write that happened to hit this table, wedging
	// every session gated on a later watermark.
	AppliedLSN  storage.LSN
	CurrentAsOf time.Time // start of the last round that applied everything it was handed
	ApplyErrors int64     // rounds that failed to apply
	LastError   string    // the most recent apply failure, "" if none
}

// Subscriber is the subscriber half of one pull subscription — the paper's
// distribution agent for one target table. It owns the table's replication
// cursor: batches are applied exactly once and in LSN order (each pull
// acknowledges what was applied and skips re-delivered batches), and a failed
// apply stops at the failed batch, whose suffix stays queued on the publisher
// for the next pull.
//
// Pull rounds on one Subscriber must not overlap; the owner serializes them.
type Subscriber struct {
	SubID int    // the publisher's handle for this subscription
	Table string // target table on the subscriber (the cached view)

	target *engine.Database
	stats  ApplyStats

	mu sync.Mutex
	st SubscriberStatus
}

// NewSubscriber populates a target table with rows current through applied —
// a publisher snapshot taken at applied+1, or rows restored from a
// checkpoint — refreshes its statistics and returns its cursor.
func NewSubscriber(target *engine.Database, table string, subID int, applied storage.LSN, rows []types.Row, stats ApplyStats) (*Subscriber, error) {
	tx := target.Store().Begin(true)
	for _, row := range rows {
		if _, err := tx.Insert(table, row); err != nil {
			tx.Abort()
			return nil, fmt.Errorf("repl: seed of %s: %w", table, err)
		}
	}
	if err := tx.CommitUnlogged(); err != nil {
		return nil, err
	}
	// Seeding replaces the table's contents; intermediates derived from it
	// are stale.
	target.InvalidateIntermediates(table)
	if err := target.AnalyzeTable(table); err != nil {
		return nil, err
	}
	return &Subscriber{
		SubID: subID, Table: table, target: target, stats: stats,
		st: SubscriberStatus{LastLSN: applied, AppliedLSN: applied, CurrentAsOf: time.Now()},
	}, nil
}

// Status returns the current cursor and failure record. Staleness — how far
// the table may trail the publisher — is the time since CurrentAsOf.
func (s *Subscriber) Status() SubscriberStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st
}

// Pull performs one pull-and-apply round and returns the number of
// transactions applied. On any error the cursor stays at the last applied
// batch: nothing is lost, the publisher re-delivers from there.
func (s *Subscriber) Pull(src Puller) (int, error) {
	acked := s.Status().LastLSN
	batches, through, err := src.Pull(s.SubID, 0, acked)
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
		if err = s.apply(b); err != nil {
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
	s.st.LastLSN = applied
	if err != nil {
		// A failed apply caps the position at the last applied batch, and the
		// table is not current as of this round. The pull loop retries, so
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

// apply applies one transaction to the target table, committing unlogged so
// replicated changes do not re-enter the subscriber's own WAL. Change records
// carry the source table's name; the target is s.Table.
func (s *Subscriber) apply(batch TxnBatch) error {
	table := s.Table
	meta := s.target.Catalog().Table(table)
	if meta == nil {
		return fmt.Errorf("repl: target table %s does not exist", table)
	}
	tx := s.target.Store().Begin(true)
	td := tx.Table(table)
	if td == nil {
		tx.Abort()
		return fmt.Errorf("repl: no storage for %s", table)
	}
	for _, ch := range batch.Changes {
		switch ch.Op {
		case storage.OpInsert:
			if _, err := tx.Insert(table, ch.After); err != nil {
				tx.Abort()
				return err
			}
		case storage.OpDelete:
			rid := locateTargetRow(td, meta, ch.Before)
			if rid < 0 {
				tx.Abort()
				return fmt.Errorf("repl: %s: delete target row missing", table)
			}
			if err := tx.Delete(table, rid); err != nil {
				tx.Abort()
				return err
			}
		case storage.OpUpdate:
			rid := locateTargetRow(td, meta, ch.Before)
			if rid < 0 {
				tx.Abort()
				return fmt.Errorf("repl: %s: update target row missing", table)
			}
			if err := tx.Update(table, rid, ch.After); err != nil {
				tx.Abort()
				return err
			}
		}
	}
	if err := tx.CommitUnlogged(); err != nil {
		return err
	}
	// Replicated writes are the invalidation signal for intermediate results
	// derived from this table: mark them stale now that the change is visible.
	s.target.InvalidateIntermediates(table)
	return nil
}

// locateTargetRow finds a row by target primary key, falling back to
// full-row equality.
func locateTargetRow(td *storage.TableView, target *catalog.Table, row types.Row) storage.RowID {
	if len(target.PrimaryKey) > 0 {
		key := make(types.Row, len(target.PrimaryKey))
		for i, ord := range target.PrimaryKey {
			key[i] = row[ord]
		}
		return td.PKLookup(key)
	}
	found := storage.RowID(-1)
	td.Scan(func(rid storage.RowID, r types.Row) bool {
		if types.RowsEqual(r, row) {
			found = rid
			return false
		}
		return true
	})
	return found
}
