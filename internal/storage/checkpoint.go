package storage

// checkpoint.go snapshots the MVCC heap to disk so recovery replays only
// the WAL tail. A checkpoint is one CRC-framed gob image of every table's
// visible rows, taken under an MVCC snapshot (writers keep committing), and
// stamped with the snapshot's AsOfLSN: the first LSN recovery must replay
// on top of the image. Checkpoints are written to a temp file, fsynced and
// renamed, so a crash mid-checkpoint leaves the previous one intact.

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"mtcache/internal/metrics"
	"mtcache/internal/querystore"
	"mtcache/internal/types"
)

// checkpointImage is the serialized heap snapshot.
type checkpointImage struct {
	WalEnd LSN // first LSN to replay on top of the image
	Tables []checkpointTable
}

type checkpointTable struct {
	Name string
	Rows []types.Row
}

// Checkpoint writes a heap snapshot to the data directory and returns the
// LSN recovery would replay from. It runs under an MVCC read snapshot, so
// commits proceed concurrently; the image and its WalEnd are consistent by
// the store's snapMark invariant. The previous checkpoint file is removed
// only after the new one is durable.
func (s *Store) Checkpoint() (LSN, error) {
	if s.durable == nil {
		return 0, errors.New("storage: store has no durable log")
	}
	start := time.Now()
	t := s.Begin(false)
	walEnd := t.AsOfLSN()
	s.mu.RLock()
	names := make([]string, 0, len(s.tables))
	for k := range s.tables {
		names = append(names, k)
	}
	s.mu.RUnlock()
	sort.Strings(names)
	img := checkpointImage{WalEnd: walEnd}
	rows := 0
	for _, name := range names {
		tv := t.Table(name)
		if tv == nil {
			continue // dropped between the list and the read; not in the image
		}
		ct := checkpointTable{Name: tv.Meta().Name, Rows: tv.Rows()}
		rows += len(ct.Rows)
		img.Tables = append(img.Tables, ct)
	}
	t.Abort()

	// The log must be durable up to the image's WalEnd before the checkpoint
	// claims recovery can start there (matters under interval/none policies,
	// where records linger in the flush buffer).
	if err := s.durable.flush(true); err != nil {
		return 0, err
	}
	if err := s.durable.writeCheckpoint(&img); err != nil {
		return 0, err
	}
	s.ckptLSN.Store(int64(walEnd))
	metrics.Default.Counter("storage.checkpoints").Add(1)
	querystore.Emit("checkpoint",
		"lsn", strconv.FormatUint(uint64(walEnd), 10),
		"rows", strconv.Itoa(rows),
		"ms", strconv.FormatInt(time.Since(start).Milliseconds(), 10))
	metrics.Default.Gauge("storage.checkpoint_lsn").Set(float64(walEnd))
	metrics.Default.Histogram("storage.checkpoint_seconds").ObserveDuration(time.Since(start))
	metrics.Default.Gauge("storage.checkpoint_rows").Set(float64(rows))
	return walEnd, nil
}

// CheckpointLSN returns the WAL position of the latest completed checkpoint
// (0 when none has been taken).
func (s *Store) CheckpointLSN() LSN { return LSN(s.ckptLSN.Load()) }

// writeCheckpoint durably writes one checkpoint image: temp file, fsync,
// rename, directory fsync; then older checkpoint files are deleted.
func (d *diskWAL) writeCheckpoint(img *checkpointImage) error {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(img); err != nil {
		return fmt.Errorf("storage: encode checkpoint: %w", err)
	}
	data := append([]byte(ckptMagic), appendFrame(nil, payload.Bytes())...)

	tmp := filepath.Join(d.dir, ckptName(img.WalEnd)+".tmp")
	final := filepath.Join(d.dir, ckptName(img.WalEnd))
	f, err := d.fs.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("storage: write checkpoint: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("storage: sync checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := d.fs.Rename(tmp, final); err != nil {
		return err
	}
	if err := d.fs.SyncDir(d.dir); err != nil {
		return err
	}
	// Retire older checkpoints (best effort — recovery picks the newest
	// valid one regardless).
	names, err := d.fs.ReadDir(d.dir)
	if err != nil {
		return nil
	}
	for _, name := range names {
		if lsn, ok := parseSeqName(name, "ckpt-", ".ckpt"); ok && lsn < img.WalEnd {
			d.fs.Remove(filepath.Join(d.dir, name)) //nolint:errcheck
		}
	}
	return nil
}

// loadCheckpoint returns the newest valid checkpoint image, or nil when the
// directory has none. Corrupt checkpoint files are skipped (counted in
// storage.ckpt_crc_errors) and the next older one is tried.
func (d *diskWAL) loadCheckpoint() *checkpointImage {
	names, err := d.fs.ReadDir(d.dir)
	if err != nil {
		return nil
	}
	var lsns []LSN
	for _, name := range names {
		if lsn, ok := parseSeqName(name, "ckpt-", ".ckpt"); ok {
			lsns = append(lsns, lsn)
		}
	}
	sort.Slice(lsns, func(i, j int) bool { return lsns[i] > lsns[j] })
	for _, lsn := range lsns {
		img, err := readCheckpointFile(d.fs, filepath.Join(d.dir, ckptName(lsn)))
		if err != nil {
			metrics.Default.Counter("storage.ckpt_crc_errors").Add(1)
			continue
		}
		return img
	}
	return nil
}

// ErrCheckpointFormat reports a checkpoint written in another version of the
// format. It is not a torn file and must not be skipped like one: the WAL
// behind a checkpoint was truncated when it was taken, so recovering without
// the image would replay the tail onto nothing.
var ErrCheckpointFormat = errors.New("storage: unsupported checkpoint format")

// checkCheckpointFormat fails with ErrCheckpointFormat when the file starts
// with a checkpoint magic of a version other than ckptMagic. A file too short
// or too damaged to carry any magic is left to loadCheckpoint, which skips
// it.
func checkCheckpointFormat(fsys FS, path string) error {
	f, err := fsys.Open(path)
	if err != nil {
		return nil
	}
	defer f.Close()
	magic := make([]byte, len(ckptMagic))
	if _, err := io.ReadFull(f, magic); err != nil {
		return nil
	}
	const family = len("MTCKPT")
	if string(magic[:family]) == ckptMagic[:family] && string(magic) != ckptMagic {
		return fmt.Errorf("%w: %s is %q, this build reads and writes %q; recover it with the build that wrote it, or move the data directory away to start empty",
			ErrCheckpointFormat, filepath.Base(path), magic, ckptMagic)
	}
	return nil
}

func readCheckpointFile(fsys FS, path string) (*checkpointImage, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := &chunkReader{r: f}
	magic := make([]byte, len(ckptMagic))
	if _, err := io.ReadFull(r, magic); err != nil || string(magic) != ckptMagic {
		return nil, errBadFrame
	}
	payload, err := readFrame(r, 1<<30)
	if err != nil {
		return nil, errBadFrame
	}
	img := new(checkpointImage)
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(img); err != nil {
		return nil, fmt.Errorf("storage: decode checkpoint: %w", err)
	}
	return img, nil
}
