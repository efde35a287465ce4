package core

// cachestate.go persists a CacheServer's durable state: one state file holding
// every cached view's rows, the one replication LSN they are all current
// through (a cache is one subscriber with one cursor) and the ID of the
// backend incarnation that wrote that position (storage.Image.ID). A cache
// applies pulled batches unlogged (replicated changes must not re-enter a
// WAL), so its durability story is checkpoint + resubscribe rather than log
// replay: on restart it reloads the checkpointed rows and provisions each view
// with the checkpointed ID and LSN (BackendClient.Provision's id and from):
// the backend resumes the change stream there when its log holds the position
// under that ID, and otherwise — another backend, a log that started over, a
// restored copy that wrote other commits there, a position truncated away —
// the same request answers with a full reseed.
//
// The state file is a storage image, written by storage.WriteImage and read
// by storage.ReadImage like a backend's checkpoint: one format, one magic.

import (
	"errors"
	"io/fs"
	"path/filepath"

	"mtcache/internal/storage"
)

const cacheCkptFile = "cache-state.ckpt"

// loadCacheCheckpoint reads the state file. A missing file returns (nil,
// nil) — a fresh cache; an unreadable one returns an error naming what it
// found, and the caller reseeds from the backend (the cache's source of truth
// is always the backend, so a lost checkpoint costs a reseed, never
// correctness).
func loadCacheCheckpoint(dir string) (*storage.Image, error) {
	img, err := storage.ReadImage(storage.OSFS(), filepath.Join(dir, cacheCkptFile))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	return img, err
}
