package storage

// checkpoint.go writes and reads image files. An image is named row sets plus
// the LSN they are current at, and it is the one file format for both durable
// snapshots the system takes: a store checkpoint (every table's visible rows
// under an MVCC snapshot, stamped with the snapshot's AsOfLSN, the first LSN
// recovery must replay on top of it, and the catalog as of that LSN) and a
// cache's state file (every cached view's rows and the LSN they are applied
// through, core/cachestate.go).
//
// File layout: the 8-byte magic ckptMagic, then one WAL-style frame
// ([uint32 length][uint32 CRC32-C][payload]) whose payload is
//
//	uvarint LSN, uint64 ID (8 bytes LE), string Script,
//	uvarint #sets, per set: string Name, uvarint #rows, rows
//
// in types/codec.go's bytes, the ones the WAL and the wire use. WriteImage is
// the one writer (temp file, fsync, rename, directory fsync, so a crash
// mid-write leaves the previous file intact) and ReadImage the one reader.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"mtcache/internal/metrics"
	"mtcache/internal/types"
)

// ckptMagic opens every image file. 03: the payload is types/codec.go bytes
// in explicit field order, not gob. 04: the payload carries the catalog. 05:
// the payload carries an ID.
const ckptMagic = "MTCKPT05"

// Image is the content of an image file. What LSN means is the writer's: a
// store checkpoint's is the first LSN to replay on top of the rows, a cache's
// the last LSN its rows have applied. ID names the incarnation that wrote the
// last position the rows hold (History): a store checkpoint's LSN-1, in its
// own log (Store.IDAt), and a cache's LSN, in the backend's log it applied
// (repl.SubscriberStatus.ID). Script is a store checkpoint's catalog, as the
// DDL that recreates it (Schema.Script); a cache's is empty.
type Image struct {
	LSN    LSN
	ID     uint64
	Script string
	Sets   []RowSet
}

// RowSet is one table's or one view's rows.
type RowSet struct {
	Name string
	Rows []types.Row
}

// Checkpoint writes a heap snapshot and the catalog to the data directory and
// returns the LSN recovery would replay from. It runs under an MVCC read
// snapshot, so commits proceed concurrently; the image and its LSN are
// consistent by the store's snapMark invariant, and the catalog is read
// between two DDL statements, so it is the catalog as of that LSN. Older
// checkpoint files are removed only after the new one is durable.
func (s *Store) Checkpoint() (LSN, error) {
	if s.durable == nil {
		return 0, errors.New("storage: store has no durable log")
	}
	start := time.Now()
	s.ddlMu.Lock()
	t := s.Begin(false)
	walEnd := t.AsOfLSN()
	img := Image{LSN: walEnd, ID: s.IDAt(walEnd - 1)}
	if s.schema != nil {
		img.Script = s.schema.Script()
	}
	s.mu.RLock()
	names := make([]string, 0, len(s.tables))
	for k := range s.tables {
		names = append(names, k)
	}
	s.mu.RUnlock()
	s.ddlMu.Unlock()
	sort.Strings(names)
	rows := 0
	for _, name := range names {
		tv, ok := t.Table(name)
		if !ok {
			continue // dropped between the list and the read; not in the image
		}
		set := RowSet{Name: tv.Meta().Name, Rows: tv.Rows()}
		rows += len(set.Rows)
		img.Sets = append(img.Sets, set)
	}
	t.Abort()

	// The log must be durable up to the image's LSN before the checkpoint
	// claims recovery can start there: a commit is visible, and so in the
	// image, before the syncer's fsync covers it.
	d := s.durable
	if err := d.flush(); err != nil {
		return 0, err
	}
	if err := WriteImage(d.fs, d.dir, ckptName(walEnd), &img); err != nil {
		return 0, err
	}
	// Retire older checkpoints (best effort — recovery picks the newest
	// valid one regardless).
	if files, err := d.fs.ReadDir(d.dir); err == nil {
		for _, name := range files {
			if lsn, ok := parseSeqName(name, "ckpt-", ".ckpt"); ok && lsn < walEnd {
				d.fs.Remove(filepath.Join(d.dir, name)) //nolint:errcheck
			}
		}
	}
	s.ckptLSN.Store(int64(walEnd))
	metrics.Default.Event("storage.checkpoints",
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

// WriteImage durably writes img as dir/name, creating dir if needed: magic
// and one frame to a temp file, fsync, rename, directory fsync.
func WriteImage(fsys FS, dir, name string, img *Image) error {
	data := appendFrame([]byte(ckptMagic), appendImage(nil, img))
	if err := fsys.MkdirAll(dir); err != nil {
		return err
	}
	tmp := filepath.Join(dir, name+".tmp")
	f, err := fsys.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("storage: write %s: %w", name, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("storage: sync %s: %w", name, err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := fsys.Rename(tmp, filepath.Join(dir, name)); err != nil {
		return err
	}
	return fsys.SyncDir(dir)
}

// errDamagedImage reports an image file too damaged to say what it holds: a
// magic that is no version of ours, a torn frame, a CRC mismatch. A store
// skips it for an older checkpoint and a cache reseeds.
var errDamagedImage = errors.New("storage: damaged image file")

// ReadImage reads the image file at path. Besides the file system's own
// errors (a missing file is fs.ErrNotExist), it fails with
//   - ErrFormat for another version's magic;
//   - errDamagedImage for any other wrong magic or a frame that does not
//     verify;
//   - a plain error for a payload whose CRC verifies but which does not
//     decode, or has bytes left over: the file is what was written, and this
//     build cannot read it.
//
// Every error names the file, and a wrong magic the magic found.
func ReadImage(fsys FS, path string) (*Image, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := &chunkReader{r: f}
	magic := make([]byte, len(ckptMagic))
	n, _ := io.ReadFull(r, magic)
	if err := checkMagic(magic[:n], ckptMagic, path); err != nil {
		return nil, err
	}
	payload, err := readFrame(r, 1<<30)
	if err != nil {
		return nil, fmt.Errorf("%w %s: %v", errDamagedImage, filepath.Base(path), err)
	}
	img, err := decodeImage(payload)
	if err != nil {
		return nil, fmt.Errorf("storage: %s: the frame verifies but the image does not decode (%v); recover it with the build that wrote it",
			filepath.Base(path), err)
	}
	return img, nil
}

// appendImage appends img's payload: LSN, ID, script, then each set's
// name and rows.
func appendImage(buf []byte, img *Image) []byte {
	buf = binary.AppendUvarint(buf, uint64(img.LSN))
	buf = binary.LittleEndian.AppendUint64(buf, img.ID)
	buf = types.AppendString(buf, img.Script)
	buf = binary.AppendUvarint(buf, uint64(len(img.Sets)))
	for i := range img.Sets {
		set := &img.Sets[i]
		buf = types.AppendString(buf, set.Name)
		buf = binary.AppendUvarint(buf, uint64(len(set.Rows)))
		for _, row := range set.Rows {
			buf = types.AppendRow(buf, row)
		}
	}
	return buf
}

// decodeImage is appendImage's inverse. An absent row and bytes left over are
// errors, so a payload that decodes re-encodes to itself.
func decodeImage(payload []byte) (*Image, error) {
	d := types.Decoder{Buf: payload}
	img := &Image{LSN: LSN(d.Uvarint()), ID: d.Fixed64(), Script: d.Str()}
	img.Sets = make([]RowSet, d.Count(2)) // a name and a row count
	for i := range img.Sets {
		set := &img.Sets[i]
		set.Name = d.Str()
		set.Rows = make([]types.Row, d.Count(1))
		for j := range set.Rows {
			if set.Rows[j] = d.Row(); set.Rows[j] == nil {
				d.Fail()
			}
		}
	}
	if d.Err == nil && d.Remaining() != 0 {
		d.Fail()
	}
	if d.Err != nil {
		return nil, d.Err
	}
	return img, nil
}

// loadCheckpoint returns the newest readable checkpoint image, or nil when
// the directory has none. A damaged file is skipped (counted in
// storage.ckpt_crc_errors) for the next older one; any other error fails the
// recovery, because skipping a readable image would replay the WAL tail
// behind it onto nothing.
func (d *diskWAL) loadCheckpoint() (*Image, error) {
	names, err := d.fs.ReadDir(d.dir)
	if err != nil {
		return nil, err
	}
	var lsns []LSN
	for _, name := range names {
		if lsn, ok := parseSeqName(name, "ckpt-", ".ckpt"); ok {
			lsns = append(lsns, lsn)
		}
	}
	sort.Slice(lsns, func(i, j int) bool { return lsns[i] > lsns[j] })
	for _, lsn := range lsns {
		img, err := ReadImage(d.fs, filepath.Join(d.dir, ckptName(lsn)))
		if errors.Is(err, errDamagedImage) {
			metrics.Default.Counter("storage.ckpt_crc_errors").Add(1)
			continue
		}
		return img, err
	}
	return nil, nil
}

// ErrFormat reports a checkpoint or a WAL segment written in another version
// of its format. It is not a torn file and must not be skipped like one: the
// WAL behind a checkpoint was truncated when it was taken, so recovering
// without the image would replay the tail onto nothing, and a segment cut as
// torn would lose acknowledged commits.
var ErrFormat = errors.New("storage: unsupported file format")

// checkMagic accepts want. Another version of want's magic (its letters, other
// digits) is ErrFormat; anything else, a short one included, errDamagedImage.
func checkMagic(magic []byte, want, path string) error {
	family := strings.TrimRight(want, "0123456789")
	switch {
	case string(magic) == want:
		return nil
	case len(magic) == len(want) && strings.HasPrefix(string(magic), family):
		return fmt.Errorf("%w: %s is %q, this build reads and writes %q; recover it with the build that wrote it, or move the data directory away to start empty",
			ErrFormat, filepath.Base(path), magic, want)
	}
	return fmt.Errorf("%w %s: magic %q, want %q", errDamagedImage, filepath.Base(path), magic, want)
}

// checkFormat fails with ErrFormat when the file starts with another version
// of want's magic. Opening the log runs it on every checkpoint and segment
// file before anything is cut or deleted. A file too short or too damaged to
// carry any magic is left to the reader, which skips a checkpoint and cuts a
// segment.
func checkFormat(fsys FS, path, want string) error {
	f, err := fsys.Open(path)
	if err != nil {
		return nil
	}
	defer f.Close()
	magic := make([]byte, len(want))
	if _, err := io.ReadFull(f, magic); err != nil {
		return nil
	}
	if err := checkMagic(magic, want, path); errors.Is(err, ErrFormat) {
		return err
	}
	return nil
}
