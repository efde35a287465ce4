package storage

// recover.go rebuilds store state after a restart: load the newest readable
// checkpoint image into the heaps, then replay every retained WAL record at
// or past the checkpoint's LSN. Replay applies each commit record as its
// own transaction (committed unlogged — the records are already in the log)
// so the rebuilt version chains and indexes are exactly what normal
// execution would have produced. The schema must already exist: DDL is not
// logged, so the boot path recreates it (e.g. tpcw.CreateSchema) before
// calling Recover.

import (
	"errors"
	"fmt"
	"time"

	"mtcache/internal/catalog"
	"mtcache/internal/metrics"
	"mtcache/internal/types"
)

// RecoveryStats reports what Recover did.
type RecoveryStats struct {
	CheckpointLSN   LSN  // WAL position the heap image was restored to (0 = none)
	CheckpointRows  int  // rows restored from the checkpoint image
	ReplayedTxns    int  // WAL records replayed on top of the image
	ReplayedChanges int  // row changes inside those records
	TornTail        bool // the last record was torn by the crash and cut off
	CRCErrors       int  // corrupt frames encountered while opening the log
	Duration        time.Duration
}

// Recover rebuilds the heaps from the latest checkpoint plus the WAL tail.
// It must run after EnableDurability (which loaded and validated the
// retained records) and after the schema has been recreated, and before any
// new writes.
func (s *Store) Recover() (*RecoveryStats, error) {
	if s.durable == nil {
		return nil, errors.New("storage: store has no durable log")
	}
	start := time.Now()
	stats := &RecoveryStats{TornTail: s.openStats.TornTail, CRCErrors: s.openStats.CRCErrors}

	replayFrom := s.wal.First()
	img, err := s.durable.loadCheckpoint()
	if err != nil {
		return nil, err
	}
	if img != nil {
		stats.CheckpointLSN = img.LSN
		replayFrom = img.LSN
		for _, set := range img.Sets {
			if len(set.Rows) == 0 {
				continue
			}
			t := s.Begin(true)
			for _, row := range set.Rows {
				if _, err := t.Insert(set.Name, row); err != nil {
					t.Abort()
					return nil, fmt.Errorf("storage: recover %s from checkpoint: %w", set.Name, err)
				}
			}
			if err := t.CommitUnlogged(); err != nil {
				return nil, err
			}
			stats.CheckpointRows += len(set.Rows)
		}
	}

	for _, rec := range s.wal.ReadFrom(replayFrom, 0) {
		if err := s.replayRecord(rec); err != nil {
			return nil, fmt.Errorf("storage: replay LSN %d: %w", rec.LSN, err)
		}
		stats.ReplayedTxns++
		stats.ReplayedChanges += len(rec.Changes)
	}

	stats.Duration = time.Since(start)
	metrics.Default.Counter("storage.recovered_txns").Add(int64(stats.ReplayedTxns))
	metrics.Default.Gauge("storage.recovery_seconds").Set(stats.Duration.Seconds())
	return stats, nil
}

// replayRecord applies one logged transaction to the heaps. Row location
// mirrors the replication apply path: by primary key when the table has
// one, by full-row equality otherwise — redo on the exact pre-state is
// deterministic, so a missing row means the log and heap diverged.
func (s *Store) replayRecord(rec CommitRecord) error {
	t := s.Begin(true)
	for _, ch := range rec.Changes {
		tv, ok := t.Table(ch.Table)
		if !ok {
			t.Abort()
			return fmt.Errorf("table %s missing (schema must be recreated before recovery)", ch.Table)
		}
		switch ch.Op {
		case OpInsert:
			if _, err := t.Insert(ch.Table, ch.After); err != nil {
				t.Abort()
				return err
			}
		case OpDelete:
			rid := replayLocate(&tv, ch.Before)
			if rid < 0 {
				t.Abort()
				return fmt.Errorf("delete target row missing in %s", ch.Table)
			}
			if err := t.Delete(ch.Table, rid); err != nil {
				t.Abort()
				return err
			}
		case OpUpdate:
			rid := replayLocate(&tv, ch.Before)
			if rid < 0 {
				t.Abort()
				return fmt.Errorf("update target row missing in %s", ch.Table)
			}
			if err := t.Update(ch.Table, rid, ch.After); err != nil {
				t.Abort()
				return err
			}
		}
	}
	return t.CommitUnlogged()
}

func replayLocate(tv *TableView, row types.Row) RowID {
	meta := tv.Meta()
	if len(meta.PrimaryKey) > 0 && pkCovered(meta, row) {
		key := make(types.Row, len(meta.PrimaryKey))
		for i, ord := range meta.PrimaryKey {
			key[i] = row[ord]
		}
		if rid := tv.PKLookup(key); rid >= 0 {
			return rid
		}
	}
	found := RowID(-1)
	tv.Scan(func(rid RowID, r types.Row) bool {
		if types.RowsEqual(r, row) {
			found = rid
			return false
		}
		return true
	})
	return found
}

func pkCovered(meta *catalog.Table, row types.Row) bool {
	for _, ord := range meta.PrimaryKey {
		if ord >= len(row) {
			return false
		}
	}
	return true
}
