package core

// cachestate.go persists a CacheServer's durable state: one checkpoint file
// holding every cached view's rows and the one replication LSN they are all
// current through (a cache is one subscriber with one cursor). A cache applies
// pulled batches unlogged (replicated changes must not re-enter a WAL), so its
// durability story is checkpoint + resubscribe rather than log replay: on
// restart it reloads the checkpointed rows and asks the backend to resume the
// change stream at the checkpointed LSN (BackendClient.Resume). Only when the
// backend can no longer serve that position does it fall back to a full reseed.

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"mtcache/internal/storage"
	"mtcache/internal/types"
)

const (
	cacheCkptMagic = "MTCCKPT3" // 3: one LSN for the whole cache, not one per view
	cacheCkptFile  = "cache-state.ckpt"
)

var cacheCRCTable = crc32.MakeTable(crc32.Castagnoli)

// cacheCheckpoint is the serialized durable state of one CacheServer: the
// views' rows reflect every pulled batch up through LSN, atomically (the
// checkpoint is taken under pullMu, so no pull round is half-applied).
type cacheCheckpoint struct {
	LSN   storage.LSN
	Views []cacheViewState
}

// cacheViewState is one cached view's rows.
type cacheViewState struct {
	Name string
	Rows []types.Row
}

// writeCacheCheckpoint durably writes the state file: temp file, fsync,
// rename, directory fsync — a crash mid-write leaves the previous
// checkpoint intact.
func writeCacheCheckpoint(dir string, ck *cacheCheckpoint) error {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(ck); err != nil {
		return fmt.Errorf("core: encode cache checkpoint: %w", err)
	}
	var buf bytes.Buffer
	buf.WriteString(cacheCkptMagic)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(payload.Len()))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload.Bytes(), cacheCRCTable))
	buf.Write(hdr[:])
	buf.Write(payload.Bytes())

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp := filepath.Join(dir, cacheCkptFile+".tmp")
	final := filepath.Join(dir, cacheCkptFile)
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf.Bytes()); err != nil {
		f.Close()
		return fmt.Errorf("core: write cache checkpoint: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("core: sync cache checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// loadCacheCheckpoint reads the state file. A missing file returns (nil,
// nil) — a fresh cache; a damaged file returns an error and the caller
// reseeds from the backend (the cache's source of truth is always the
// backend, so a lost checkpoint costs a reseed, never correctness).
func loadCacheCheckpoint(dir string) (*cacheCheckpoint, error) {
	data, err := os.ReadFile(filepath.Join(dir, cacheCkptFile))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	if len(data) < len(cacheCkptMagic)+8 || string(data[:len(cacheCkptMagic)]) != cacheCkptMagic {
		return nil, errors.New("core: cache checkpoint: bad magic")
	}
	body := data[len(cacheCkptMagic):]
	n := binary.LittleEndian.Uint32(body[0:4])
	sum := binary.LittleEndian.Uint32(body[4:8])
	payload := body[8:]
	if uint32(len(payload)) < n {
		return nil, io.ErrUnexpectedEOF
	}
	payload = payload[:n]
	if crc32.Checksum(payload, cacheCRCTable) != sum {
		return nil, errors.New("core: cache checkpoint: CRC mismatch")
	}
	ck := new(cacheCheckpoint)
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(ck); err != nil {
		return nil, fmt.Errorf("core: decode cache checkpoint: %w", err)
	}
	return ck, nil
}
