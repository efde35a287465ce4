package main

import (
	"errors"
	"fmt"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"time"

	"mtcache"
)

// bootOptions is what a backend's boot takes from its flags.
type bootOptions struct {
	durable *mtcache.DurabilityOptions   // nil: an in-memory backend
	empty   bool                         // start with no TPC-W data
	load    func(*mtcache.Backend) error // the TPC-W load
}

// boot opens the backend: in memory, or recovered from its data directory.
// TPC-W is loaded into an in-memory backend, and into a data directory only
// while it holds nothing (it does not exist, or is an empty directory), so a
// restart never regenerates the dataset. The load is unlogged, so a durable
// one and its first checkpoint are one step to recovery: both are made in a
// staging directory beside the data directory (stagingDir), which is renamed
// into place only once the checkpoint is written. A staging directory that a
// boot finds is what a load that never finished left, and it is removed.
func boot(o bootOptions) (*mtcache.Backend, error) {
	if o.durable == nil {
		b := mtcache.NewBackend("backend")
		if !o.empty {
			if err := o.load(b); err != nil {
				return nil, err
			}
		}
		return b, nil
	}
	dir, staging := o.durable.Dir, stagingDir(o.durable.Dir)
	if err := os.RemoveAll(staging); err != nil {
		return nil, err
	}
	if !o.empty {
		fresh, err := holdsNothing(dir)
		if err != nil {
			return nil, err
		}
		if fresh {
			if err := loadStaged(o, staging); err != nil {
				return nil, err
			}
		}
	}
	start := time.Now()
	b, err := mtcache.NewBackendDurable("backend", *o.durable)
	if err != nil {
		return nil, err
	}
	stats := b.DB.Store().Recovered()
	log.Printf("recovered in %v: checkpoint LSN %d (%d rows), %d records replayed (torn tail: %v, CRC errors: %d)",
		time.Since(start).Round(time.Millisecond), stats.CheckpointLSN, stats.CheckpointRows,
		stats.ReplayedTxns, stats.TornTail, stats.CRCErrors)
	return b, nil
}

// stagingDir is where the data directory dir is loaded before it exists.
func stagingDir(dir string) string { return filepath.Clean(dir) + ".loading" }

// holdsNothing reports whether dir does not exist or is an empty directory.
func holdsNothing(dir string) (bool, error) {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return true, nil
	}
	return err == nil && len(entries) == 0, err
}

// loadStaged loads a durable backend in staging, checkpoints it, closes it
// and renames staging to the data directory.
func loadStaged(o bootOptions, staging string) error {
	opts := *o.durable
	opts.Dir, opts.CheckpointEvery = staging, 0 // the one checkpoint is the load's own
	b, err := mtcache.NewBackendDurable("backend", opts)
	if err != nil {
		return err
	}
	err = o.load(b)
	if err == nil {
		_, err = b.DB.Checkpoint()
	}
	if cerr := b.DB.CloseStore(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	dir := o.durable.Dir
	if err := os.Remove(dir); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	if err := os.Rename(staging, dir); err != nil {
		return err
	}
	parent, err := os.Open(filepath.Dir(filepath.Clean(dir)))
	if err != nil {
		return err
	}
	defer parent.Close()
	if err := parent.Sync(); err != nil { // the rename is durable before anything is logged in dir
		return fmt.Errorf("sync %s: %w", parent.Name(), err)
	}
	log.Printf("initial checkpoint written to %s", dir)
	return nil
}
