package storage

// recover.go rebuilds store state after a restart from the directory alone:
// run the newest readable checkpoint image's catalog, load its rows into the
// heaps, then replay every retained WAL record at or past the image's LSN, in
// LSN order. A record of row changes is applied here as its own transaction
// (committed unlogged — the records are already in the log), so the rebuilt
// version chains and indexes are exactly what normal execution would have
// produced; a DDL record runs through the database's own DDL path (Schema).

import (
	"errors"
	"fmt"
	"time"

	"mtcache/internal/metrics"
)

// Schema is the database above a store, as the store needs it to log its
// own schema: Script renders the catalog as the DDL script that recreates it,
// which a checkpoint image carries, and Exec runs DDL text (such a script, or
// one logged statement) through the database's DDL path, which reaches the
// store as DDL.
type Schema interface {
	Script() string
	Exec(ddl string) error
}

// RecoveryStats reports what Recover did.
type RecoveryStats struct {
	CheckpointLSN   LSN  // WAL position the heap image was restored to (0 = none)
	CheckpointRows  int  // rows restored from the checkpoint image
	ReplayedTxns    int  // WAL records replayed on top of the image, DDL included
	ReplayedChanges int  // row changes inside those records
	TornTail        bool // the last record was torn by the crash and cut off
	CRCErrors       int  // corrupt frames encountered while opening the log
	Duration        time.Duration
}

// Recover rebuilds the catalog and the heaps from the latest checkpoint plus
// the WAL tail, running DDL through schema, which also renders the catalog of
// every later checkpoint. It runs once, after EnableDurability (which loaded
// and validated the retained records and read the checkpoint) and before any
// write; Recovered reports what it rebuilt. schema may be nil for a store
// whose directory holds no DDL.
func (s *Store) Recover(schema Schema) error {
	if s.durable == nil {
		return errors.New("storage: store has no durable log")
	}
	start := time.Now()
	stats := &RecoveryStats{TornTail: s.opened.TornTail, CRCErrors: s.opened.CRCErrors}
	s.schema = schema
	s.replaying = true
	defer func() { s.replaying = false }()

	replayFrom := s.wal.First()
	img := s.opened.ckpt
	s.opened.ckpt = nil // the rows are the heaps' from here on
	if img != nil {
		stats.CheckpointLSN = img.LSN
		replayFrom = img.LSN
		if err := s.execDDL(img.Script); err != nil {
			return fmt.Errorf("storage: recover the catalog of checkpoint %d: %w", img.LSN, err)
		}
		for _, set := range img.Sets {
			if len(set.Rows) == 0 {
				continue
			}
			t := s.Begin(true)
			if err := t.Fill(set.Name, set.Rows); err != nil {
				t.Abort()
				return fmt.Errorf("storage: recover %s from checkpoint: %w", set.Name, err)
			}
			if err := t.CommitUnlogged(); err != nil {
				return err
			}
			stats.CheckpointRows += len(set.Rows)
		}
	}

	for _, rec := range s.wal.ReadFrom(replayFrom, 0) {
		var err error
		if rec.DDL != "" {
			err = s.execDDL(rec.DDL)
		} else {
			err = s.replayRecord(rec)
		}
		if err != nil {
			return fmt.Errorf("storage: replay LSN %d: %w", rec.LSN, err)
		}
		stats.ReplayedTxns++
		stats.ReplayedChanges += len(rec.Changes)
	}

	stats.Duration = time.Since(start)
	s.recovered = stats
	metrics.Default.Counter("storage.recovered_txns").Add(int64(stats.ReplayedTxns))
	metrics.Default.Gauge("storage.recovery_seconds").Set(stats.Duration.Seconds())
	return nil
}

// Recovered reports what Recover rebuilt, or nil before it ran.
func (s *Store) Recovered() *RecoveryStats { return s.recovered }

// execDDL runs logged DDL text through the schema.
func (s *Store) execDDL(ddl string) error {
	switch {
	case ddl == "":
		return nil
	case s.schema == nil:
		return fmt.Errorf("DDL %q and no schema to run it", ddl)
	}
	return s.schema.Exec(ddl)
}

// replayRecord applies one logged transaction to the heaps, change by
// change through Txn.Apply — redo on the exact pre-state is deterministic,
// so a row Apply does not find means the log and heap diverged.
func (s *Store) replayRecord(rec CommitRecord) error {
	t := s.Begin(true)
	for _, ch := range rec.Changes {
		if err := t.Apply(ch); err != nil {
			t.Abort()
			return err
		}
	}
	return t.CommitUnlogged()
}
