package storage

// walfile.go makes the WAL real: a segmented on-disk log of CRC-framed
// commit records behind the in-memory WAL, with group commit. The disk log
// is strictly a durability mirror — the in-memory WAL remains the read path
// for the replication log reader — so enabling durability changes no reader
// semantics, only what survives a crash.
//
// On-disk layout (one directory per store):
//
//	wal-00000000000000000001.seg   segment whose first record is LSN 1
//	wal-00000000000000004096.seg   next segment, and so on
//	ckpt-00000000000000003000.ckpt latest heap checkpoint (see checkpoint.go)
//
// Each segment starts with a header, the 8-byte magic and the ID of the store
// incarnation that wrote its records (uint64 LE, see History), and then holds
// frames:
//
//	[uint32 payload length][uint32 CRC32-C of payload][payload]
//
// where the payload is one binary-encoded CommitRecord (see walcodec.go).
// Recovery reads frames
// sequentially and stops at the first invalid one: a short or CRC-failing
// frame at the tail of the last segment is a torn write from the crash
// (truncated away, counted in storage.wal_torn_tail); anywhere else it is
// corruption (counted in storage.wal_crc_errors) and the log is cut there.
// Every open starts a segment of its own, so no segment holds the records of
// two incarnations, and none is written again once closed.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"mtcache/internal/metrics"
)

// SyncPolicy and SyncGroup are kept only so the fleet benchmark's
// DurabilityOptions literal (bench/layers.go) compiles: group commit is the
// one way a durable store commits, and nothing reads them. They go with
// DurabilityOptions.Policy once the benchmark stops naming them (ROADMAP
// direction 2(d)).
type SyncPolicy uint8

// SyncGroup is SyncPolicy's zero value; see SyncPolicy.
const SyncGroup SyncPolicy = 0

// DurabilityOptions configures a store's on-disk log.
type DurabilityOptions struct {
	Dir    string     // data directory (created if missing)
	Policy SyncPolicy // unused; see SyncPolicy
	// SegmentBytes rotates to a new segment file once the current one
	// exceeds it; 0 = 8 MiB. Truncation deletes whole segments only.
	SegmentBytes int64
	// CheckpointEvery takes an automatic heap checkpoint after this many
	// logged commits; 0 disables automatic checkpoints.
	CheckpointEvery int
	// FS overrides the filesystem (crash-injection tests); nil = the OS.
	FS FS
}

// FS is the minimal filesystem surface the durable log needs. The default
// implementation is the OS; the crashtest package wraps it with fault
// injection.
type FS interface {
	MkdirAll(dir string) error
	Create(name string) (File, error)     // truncating create, read/write
	Open(name string) (File, error)       // read-only
	ReadDir(dir string) ([]string, error) // sorted base names
	Rename(oldPath, newPath string) error
	Remove(name string) error
	Truncate(name string, size int64) error // synced before it returns
	SyncDir(dir string) error               // fsync the directory entry table
}

// File is one open file of an FS.
type File interface {
	io.Reader
	io.Writer
	Sync() error
	Close() error
}

// OSFS returns the real filesystem.
func OSFS() FS { return osFS{} }

type osFS struct{}

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }
func (osFS) Create(name string) (File, error) {
	return os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
}
func (osFS) Open(name string) (File, error) { return os.Open(name) }
func (osFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}
func (osFS) Rename(o, n string) error { return os.Rename(o, n) }
func (osFS) Remove(name string) error { return os.Remove(name) }

// Truncate syncs the cut: a segment cut at a torn tail stays in the middle of
// the log once the next open starts a segment after it, where a cut lost to a
// crash would leave a torn frame that the open after reads as corruption.
func (osFS) Truncate(name string, sz int64) error {
	f, err := os.OpenFile(name, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	return errors.Join(f.Truncate(sz), f.Sync(), f.Close())
}
func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

const (
	// segMagic opens every segment. 2: a record carries DDL text. 3: an ID
	// follows the magic.
	segMagic        = "MTWALSG3"
	segHeaderSize   = len(segMagic) + 8 // magic + uint64 LE incarnation ID
	frameHeaderSize = 8                 // uint32 length + uint32 CRC32-C
	defaultSegBytes = 8 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func segName(first LSN) string { return fmt.Sprintf("wal-%020d.seg", first) }
func ckptName(lsn LSN) string  { return fmt.Sprintf("ckpt-%020d.ckpt", lsn) }
func parseSeqName(name, prefix, suffix string) (LSN, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	var n int64
	if _, err := fmt.Sscanf(name[len(prefix):len(name)-len(suffix)], "%d", &n); err != nil || n < 0 {
		return 0, false
	}
	return LSN(n), true
}

// appendFrame appends [len][crc][payload] to dst.
func appendFrame(dst, payload []byte) []byte {
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// appendRecordFrame encodes rec as a frame directly into dst — the commit
// hot path, so no intermediate payload allocation: reserve the header,
// encode in place, then backfill length and CRC.
func appendRecordFrame(dst []byte, rec *CommitRecord) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, frameHeaderSize)...)
	dst = appendCommitRecord(dst, rec)
	payload := dst[start+frameHeaderSize:]
	binary.LittleEndian.PutUint32(dst[start:start+4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:start+8], crc32.Checksum(payload, crcTable))
	return dst
}

// errBadFrame reports a frame whose header or CRC failed validation;
// io.ErrUnexpectedEOF reports a frame cut short by a torn write. WAL segments
// and image files frame their payloads alike.
var errBadFrame = errors.New("storage: frame CRC mismatch")

// readFrame reads one frame from r. On success it returns the payload.
// io.EOF means a clean end between frames; io.ErrUnexpectedEOF means the
// frame was cut short; errBadFrame means the CRC failed.
func readFrame(r io.Reader, maxLen uint32) ([]byte, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, io.ErrUnexpectedEOF
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	sum := binary.LittleEndian.Uint32(hdr[4:8])
	if length > maxLen {
		// A garbage length (bit flip in the header) would otherwise ask for
		// gigabytes; treat it as a bad frame, not an allocation.
		return nil, errBadFrame
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, io.ErrUnexpectedEOF
	}
	if crc32.Checksum(payload, crcTable) != sum {
		return nil, errBadFrame
	}
	return payload, nil
}

// diskWAL is the on-disk mirror of the in-memory WAL. Appends are buffered
// in memory (under mu, in LSN order because commits serialize on the store's
// commitMu); flush moves the buffer to the current segment file and fsync
// publishes a new durable LSN to waiters.
type diskWAL struct {
	fs       FS
	dir      string
	segBytes int64
	id       uint64 // this incarnation's, written into the header of every segment it starts

	mu      sync.Mutex
	buf     []byte // encoded frames not yet written to the file
	spare   []byte // retired batch buffer, recycled to avoid regrowing per batch
	bufEnd  LSN    // highest LSN appended (buffered or written)
	durable LSN    // highest LSN covered by an fsync
	err     error  // sticky I/O error: the log is wedged, commits fail
	closed  bool
	// Group-commit wakeup, precise per batch: curCh is closed when the flush
	// that grabs the *current* buffer completes, so a waiter sleeps on exactly
	// the channel of the batch holding its record — no waiter is woken by an
	// fsync that does not cover it. While a flush is in device wait,
	// inflightEnd/inflightCh describe the batch it took.
	curCh       chan struct{}
	inflightEnd LSN           // highest LSN in the in-flight flush; 0 = none
	inflightCh  chan struct{} // channel of the in-flight batch

	flushMu sync.Mutex // serializes file writes, fsyncs and rotation
	f       File
	written LSN   // highest LSN written to the file (not necessarily synced)
	segSize int64 // bytes in the current segment

	fsyncs atomic.Int64 // fsyncs issued over this log's lifetime

	segsMu sync.Mutex
	segs   []walSegment // all live segments, ascending; last = current

	flushC chan struct{}
	stopC  chan struct{}
	wg     sync.WaitGroup
}

type walSegment struct {
	first LSN
	name  string
}

// walOpened is what opening a log found besides its records: the history of
// its positions, the newest readable checkpoint, which Recover starts from,
// and the damage the open cut, which Recover reports.
type walOpened struct {
	hist      History
	ckpt      *Image
	TornTail  bool
	CRCErrors int
}

// openDiskWAL opens (or initializes) the log directory, validates every
// retained record and returns them in LSN order, and starts a segment under
// id, the new incarnation's, at the LSN the next append must get: past the
// last valid record and any checkpoint. A record-less segment already there
// covers no position, and the new one takes its place. The history names each
// retained segment's records by its header's ID, the positions below them by
// the checkpoint's, and every later one by id. The checkpoint is read before
// anything is cut or written, so one that fails the open changes nothing.
func openDiskWAL(opts DurabilityOptions, id uint64) (d *diskWAL, recs []CommitRecord, ckptLSN LSN, found walOpened, err error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = OSFS()
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultSegBytes
	}
	if err = fsys.MkdirAll(opts.Dir); err != nil {
		return nil, nil, 0, found, err
	}
	d = &diskWAL{
		fs:       fsys,
		dir:      opts.Dir,
		segBytes: opts.SegmentBytes,
		id:       id,
		flushC:   make(chan struct{}, 1),
		stopC:    make(chan struct{}),
		curCh:    make(chan struct{}),
	}

	names, err := fsys.ReadDir(opts.Dir)
	if err != nil {
		return nil, nil, 0, found, err
	}
	var segFirsts []LSN
	for _, name := range names {
		// Every file's format is checked before anything below cuts or
		// deletes a file.
		if first, ok := parseSeqName(name, "wal-", ".seg"); ok {
			if err = checkFormat(fsys, filepath.Join(opts.Dir, name), segMagic); err != nil {
				return nil, nil, 0, found, err
			}
			segFirsts = append(segFirsts, first)
		}
		if lsn, ok := parseSeqName(name, "ckpt-", ".ckpt"); ok {
			if err = checkFormat(fsys, filepath.Join(opts.Dir, name), ckptMagic); err != nil {
				return nil, nil, 0, found, err
			}
			if lsn > ckptLSN {
				ckptLSN = lsn
			}
		}
	}
	sort.Slice(segFirsts, func(i, j int) bool { return segFirsts[i] < segFirsts[j] })
	if found.ckpt, err = d.loadCheckpoint(); err != nil {
		return nil, nil, 0, found, err
	} else if found.ckpt != nil {
		found.hist = History{{ID: found.ckpt.ID}}
	}

	// Scan retained segments in order, stopping at the first invalid frame.
	next := LSN(1)
	if ckptLSN > next {
		next = ckptLSN
	}
	stop := false
	for i, first := range segFirsts {
		if stop {
			// The log was cut at a corrupt frame in an earlier segment;
			// anything after the cut can never be appended to again without
			// colliding with re-used LSNs, so delete it.
			_ = fsys.Remove(filepath.Join(opts.Dir, segName(first)))
			continue
		}
		last := i == len(segFirsts)-1
		segRecs, segID, validSize, segErr := readSegment(fsys, filepath.Join(opts.Dir, segName(first)))
		recs = append(recs, segRecs...)
		if len(segRecs) > 0 {
			next = segRecs[len(segRecs)-1].LSN + 1
			if found.hist.At(first) != segID {
				found.hist = append(found.hist, Incarnation{First: first, ID: segID})
			}
		} else if first >= next {
			next = first
		}
		d.segs = append(d.segs, walSegment{first: first, name: segName(first)})
		switch {
		case segErr == nil:
		case errors.Is(segErr, io.ErrUnexpectedEOF) && last:
			// Torn final record from the crash: cut it off.
			found.TornTail = true
			metrics.Default.Counter("storage.wal_torn_tail").Add(1)
			if terr := d.cutSegment(segName(first), validSize); terr != nil {
				return nil, nil, 0, found, terr
			}
			stop = true // (last segment anyway)
		default:
			// CRC failure, or a torn frame followed by more segments: the
			// log is only trustworthy up to the last valid record.
			found.CRCErrors++
			metrics.Default.Counter("storage.wal_crc_errors").Add(1)
			if terr := d.cutSegment(segName(first), validSize); terr != nil {
				return nil, nil, 0, found, terr
			}
			stop = true
		}
	}

	if n := len(d.segs); n > 0 && d.segs[n-1].first == next {
		d.segs = d.segs[:n-1]
	}
	found.hist = append(found.hist, Incarnation{First: next, ID: id})
	if err = d.createSegmentLocked(next); err != nil {
		return nil, nil, 0, found, err
	}
	d.written = next - 1
	d.durable = next - 1
	d.bufEnd = next - 1
	return d, recs, ckptLSN, found, nil
}

// cutSegment truncates a segment to its valid prefix. A segment whose header
// never made it to disk (a crash during segment creation) has no valid
// prefix at all — it is deleted outright rather than truncated, otherwise a
// later restart would find a magicless file and discard everything appended
// to it since.
func (d *diskWAL) cutSegment(name string, validSize int64) error {
	path := filepath.Join(d.dir, name)
	if validSize < int64(segHeaderSize) {
		if err := d.fs.Remove(path); err != nil {
			return err
		}
		if n := len(d.segs); n > 0 && d.segs[n-1].name == name {
			d.segs = d.segs[:n-1]
		}
		return nil
	}
	return d.fs.Truncate(path, validSize)
}

// readSegment reads one segment's header and every valid frame after it.
// id is the header's (0 when the header is damaged); validSize is the byte
// offset of the end of the last valid frame; err is nil for a clean read,
// io.ErrUnexpectedEOF for a torn tail, errBadFrame for a CRC failure.
func readSegment(fsys FS, path string) (recs []CommitRecord, id uint64, validSize int64, err error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, 0, 0, err
	}
	defer f.Close()
	r := chunkReader{r: f}
	hdr := make([]byte, segHeaderSize)
	if _, err := io.ReadFull(&r, hdr); err != nil || string(hdr[:len(segMagic)]) != segMagic {
		return nil, 0, 0, errBadFrame
	}
	id, validSize = binary.LittleEndian.Uint64(hdr[len(segMagic):]), int64(segHeaderSize)
	for {
		payload, ferr := readFrame(&r, 64<<20)
		if ferr == io.EOF {
			return recs, id, validSize, nil
		}
		if ferr != nil {
			return recs, id, validSize, ferr
		}
		rec, derr := decodeCommitRecord(payload)
		if derr != nil {
			// CRC passed but the record did not decode — treat as corruption.
			return recs, id, validSize, errBadFrame
		}
		recs = append(recs, *rec)
		validSize += frameHeaderSize + int64(len(payload))
	}
}

// chunkReader is a tiny buffered reader over the FS File interface.
type chunkReader struct {
	r   io.Reader
	buf []byte
	off int
}

func (b *chunkReader) Read(p []byte) (int, error) {
	if b.off >= len(b.buf) {
		b.buf = make([]byte, 64<<10)
		n, err := b.r.Read(b.buf)
		if n == 0 {
			if err == nil {
				err = io.EOF
			}
			return 0, err
		}
		b.buf = b.buf[:n]
		b.off = 0
	}
	n := copy(p, b.buf[b.off:])
	b.off += n
	return n, nil
}

// start launches the group-commit syncer: it fsyncs whatever commits have
// appended, and one fsync releases every commit that queued behind it.
func (d *diskWAL) start() {
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		for {
			select {
			case <-d.stopC:
				return
			case <-d.flushC:
				// Commit delay: committers released by the previous fsync
				// are runnable but may not have re-appended yet. Yield to
				// them while the batch is still growing, so one fsync
				// covers the whole pile instead of a third of it. A lone
				// committer costs one no-growth yield, then flushes.
				sz := d.pendingCommits()
				for i, idle := 0, 0; sz > 0 && i < 64 && idle < 2; i++ {
					runtime.Gosched()
					grown := d.pendingCommits()
					if grown == sz {
						// One quiet yield can just mean the scheduler ran
						// a non-committing goroutine; flush after two.
						idle++
						continue
					}
					idle = 0
					sz = grown
				}
				if sz = d.pendingCommits(); sz == 0 {
					// Stale wakeup: the signaling commit was covered by a
					// previous flush (e.g. a checkpoint's). An fsync here
					// would make nothing durable and halve the batch rate.
					continue
				}
				if err := d.flush(); err == nil {
					metrics.Default.Histogram("storage.wal_group_size").Observe(float64(sz))
				}
			}
		}
	}()
}

// pendingCommits counts commits waiting for durability (group-size metric).
func (d *diskWAL) pendingCommits() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return int64(d.bufEnd - d.durable)
}

// append buffers one record's frame. Called with the store's commitMu held,
// so frames enter the buffer in LSN order.
func (d *diskWAL) append(rec *CommitRecord) error {
	d.mu.Lock()
	if d.err != nil {
		err := d.err
		d.mu.Unlock()
		return err
	}
	if d.closed {
		d.mu.Unlock()
		return errors.New("storage: wal is closed")
	}
	d.buf = appendRecordFrame(d.buf, rec)
	d.bufEnd = rec.LSN
	d.mu.Unlock()
	select {
	case d.flushC <- struct{}{}:
	default:
	}
	return nil
}

// fail records a terminal I/O error: every waiter and every future commit
// sees it. A half-written log must not acknowledge anything again. Closing
// curCh releases waiters whose batch was not yet grabbed; it stays closed
// because flush never replaces the channel once err is set.
func (d *diskWAL) fail(err error) error {
	d.mu.Lock()
	if d.err == nil {
		d.err = err
		close(d.curCh)
		metrics.Default.Event("storage.wal_wedged", "error", err.Error())
	}
	d.mu.Unlock()
	return err
}

// flush writes the buffered frames to the current segment, fsyncs and
// publishes the new durable LSN. Rotation happens after a flush that pushed
// the segment past its size bound, so segment boundaries always fall between
// records.
func (d *diskWAL) flush() error {
	d.flushMu.Lock()
	defer d.flushMu.Unlock()
	if d.f == nil {
		return errors.New("storage: wal is closed")
	}

	d.mu.Lock()
	if d.err != nil {
		err := d.err
		d.mu.Unlock()
		return err
	}
	buf := d.buf
	end := d.bufEnd
	// Swap in the retired batch's backing array: the two buffers ping-pong
	// between flushes, so the hot path never regrows a batch from scratch.
	d.buf = d.spare[:0]
	d.spare = nil
	batchCh := d.curCh
	d.curCh = make(chan struct{})
	d.inflightEnd, d.inflightCh = end, batchCh
	d.mu.Unlock()

	var ferr error
	if len(buf) > 0 {
		if _, err := d.f.Write(buf); err != nil {
			ferr = d.fail(fmt.Errorf("storage: wal write: %w", err))
		} else {
			d.segSize += int64(len(buf))
			d.written = end
			metrics.Default.Counter("storage.wal_bytes").Add(int64(len(buf)))
		}
	}
	if ferr == nil {
		if err := d.f.Sync(); err != nil {
			ferr = d.fail(fmt.Errorf("storage: wal fsync: %w", err))
		} else {
			metrics.Default.Counter("storage.wal_fsyncs").Add(1)
			d.fsyncs.Add(1)
		}
	}
	d.mu.Lock()
	if ferr == nil && end > d.durable {
		d.durable = end
	}
	d.inflightEnd = 0
	// The write is done with buf; retire its array for the next grab. Cap the
	// recycled capacity so one huge batch does not pin memory forever.
	if cap(buf) <= 1<<20 {
		d.spare = buf[:0]
	}
	d.mu.Unlock()
	// Exactly one close per grabbed batch: this flush owns batchCh. On error,
	// waiters wake here and observe the sticky err.
	close(batchCh)
	if ferr != nil {
		return ferr
	}

	// A segment that holds no record is not rotated: its successor would
	// take its name, and truncation would then delete the one file as the
	// older segment.
	if d.segSize >= d.segBytes && d.segSize > int64(segHeaderSize) {
		if err := d.rotate(); err != nil {
			return d.fail(err)
		}
	}
	return nil
}

// rotate closes the current segment and starts a new one whose first LSN is
// one past the last written record. Caller holds flushMu; everything written
// so far has been fsynced.
func (d *diskWAL) rotate() error {
	if err := d.f.Close(); err != nil {
		return fmt.Errorf("storage: wal rotate close: %w", err)
	}
	d.f = nil
	return d.createSegmentLocked(d.written + 1)
}

// createSegmentLocked creates and registers a fresh segment starting at
// first. Caller holds flushMu (or is the single-threaded open path).
func (d *diskWAL) createSegmentLocked(first LSN) error {
	name := segName(first)
	f, err := d.fs.Create(filepath.Join(d.dir, name))
	if err != nil {
		return fmt.Errorf("storage: wal create segment: %w", err)
	}
	if _, err := f.Write(binary.LittleEndian.AppendUint64([]byte(segMagic), d.id)); err != nil {
		f.Close()
		return fmt.Errorf("storage: wal segment header: %w", err)
	}
	if err := d.fs.SyncDir(d.dir); err != nil {
		f.Close()
		return fmt.Errorf("storage: wal dir sync: %w", err)
	}
	d.f = f
	d.segSize = int64(segHeaderSize)
	d.segsMu.Lock()
	d.segs = append(d.segs, walSegment{first: first, name: name})
	d.segsMu.Unlock()
	return nil
}

// waitDurable blocks until lsn is covered by an fsync: the syncer's next
// flush takes every appended record, so a waiter sleeps at most one batch
// behind the one in flight.
func (d *diskWAL) waitDurable(lsn LSN) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for d.durable < lsn {
		if d.err != nil {
			return d.err
		}
		if d.closed {
			return errors.New("storage: wal closed before commit became durable")
		}
		// Sleep on the channel of the batch that holds lsn: the in-flight
		// one if it covers us, else the current buffer's. Close() needs no
		// extra wakeup — its final flush grabs every buffered record, so one
		// of these channels always fires for a live waiter.
		ch := d.curCh
		if d.inflightEnd >= lsn {
			ch = d.inflightCh
		}
		d.mu.Unlock()
		<-ch
		d.mu.Lock()
	}
	return nil
}

// DurableLSN reports the highest LSN covered by an fsync.
func (d *diskWAL) DurableLSN() LSN {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.durable
}

// fsyncCount reports how many fsyncs this log has issued; the group-commit
// tests and the recovery benchmark use it to measure batching.
func (d *diskWAL) fsyncCount() int64 { return d.fsyncs.Load() }

// dropSegmentsBelow deletes whole segments every record of which has LSN <
// upTo. The current (last) segment is never deleted.
func (d *diskWAL) dropSegmentsBelow(upTo LSN) {
	d.segsMu.Lock()
	var drop []walSegment
	for len(d.segs) > 1 && d.segs[1].first <= upTo {
		drop = append(drop, d.segs[0])
		d.segs = d.segs[1:]
	}
	d.segsMu.Unlock()
	for _, seg := range drop {
		if err := d.fs.Remove(filepath.Join(d.dir, seg.name)); err == nil {
			metrics.Default.Counter("storage.wal_segments_dropped").Add(1)
		}
	}
	if len(drop) > 0 {
		d.fs.SyncDir(d.dir) //nolint:errcheck — removal is advisory space reclaim
	}
}

// Close flushes and fsyncs whatever is buffered, stops the background
// goroutine and closes the segment file. Safe to call once.
func (d *diskWAL) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	d.mu.Unlock()
	close(d.stopC)
	d.wg.Wait()
	err := d.flush()
	d.flushMu.Lock()
	defer d.flushMu.Unlock()
	if d.f != nil {
		if cerr := d.f.Close(); err == nil {
			err = cerr
		}
		d.f = nil
	}
	return err
}
