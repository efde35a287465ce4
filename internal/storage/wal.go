package storage

import (
	"sync"
	"time"

	"mtcache/internal/types"
)

// LSN is a log sequence number: the commit order of transactions.
type LSN int64

// ChangeOp enumerates the row-level change kinds recorded in the log.
type ChangeOp uint8

const (
	OpInsert ChangeOp = iota
	OpDelete
	OpUpdate
)

func (o ChangeOp) String() string {
	switch o {
	case OpInsert:
		return "INSERT"
	case OpDelete:
		return "DELETE"
	case OpUpdate:
		return "UPDATE"
	}
	return "?"
}

// ChangeRec is one row-level change, with full before/after images so the
// replication article filter can evaluate predicates and projections on it.
type ChangeRec struct {
	Table  string
	Op     ChangeOp
	Before types.Row
	After  types.Row
}

// CommitRecord is one committed transaction in the log: a transaction's row
// changes, or one DDL statement's text (Store.DDL), which recovery replays
// through the database's own DDL path. A DDL record has no changes.
type CommitRecord struct {
	LSN        LSN
	TxnID      int64
	CommitTime time.Time
	DDL        string
	Changes    []ChangeRec
}

// WAL is the in-memory write-ahead log of committed transactions, in commit
// order. The replication log reader consumes it exactly as SQL Server's log
// reader agent consumes the transaction log (paper §2.2: "changes to a
// published table or view are collected by log sniffing").
//
// Entries are retained until Truncate; the distributor truncates once all
// subscribers have received a transaction. The record array is never written
// below its length: Append writes past it, Truncate reslices it or installs a
// new array, and adopt installs a new array. So ReadFrom can return a view of
// the array itself, which no later call changes.
type WAL struct {
	mu    sync.Mutex
	recs  []CommitRecord
	first LSN // LSN of recs[0]
	next  LSN

	// disk, when set, mirrors every appended record to a segmented on-disk
	// log (see walfile.go). The in-memory records remain the read path.
	disk *diskWAL

	// retain, when set, returns the truncation floor: the smallest LSN that
	// must be kept for recovery (checkpoint LSN) and live snapshots.
	// Truncate clamps to it.
	retain func() LSN
}

// NewWAL returns an empty log whose first LSN is 1.
func NewWAL() *WAL {
	return &WAL{first: 1, next: 1}
}

// Append adds a committed transaction, its changes or its DDL text, and
// returns its LSN.
func (w *WAL) Append(txnID int64, commitTime time.Time, changes []ChangeRec, ddl string) LSN {
	w.mu.Lock()
	defer w.mu.Unlock()
	lsn := w.next
	w.next++
	rec := CommitRecord{LSN: lsn, TxnID: txnID, CommitTime: commitTime, DDL: ddl, Changes: changes}
	w.recs = append(w.recs, rec)
	if w.disk != nil {
		// Buffer the frame under the same mutex that assigned the LSN, so
		// the disk log receives records in LSN order. A sticky disk error
		// surfaces on the commit path's durability wait, not here.
		w.disk.append(&rec) //nolint:errcheck
	}
	return lsn
}

// adopt installs records recovered from disk (EnableDurability on an
// existing directory). nextLSN is the LSN the next append must get.
func (w *WAL) adopt(recs []CommitRecord, nextLSN LSN, disk *diskWAL) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.recs = recs
	if len(recs) > 0 {
		w.first = recs[0].LSN
	} else {
		w.first = nextLSN
	}
	w.next = nextLSN
	w.disk = disk
}

// ReadFrom returns up to max commit records with LSN >= from, in order.
// max <= 0 means no limit. The records are the log's own, in a view of its
// array clipped to their count: the caller must not write to them, and no
// later Append or Truncate does.
func (w *WAL) ReadFrom(from LSN, max int) []CommitRecord {
	w.mu.Lock()
	defer w.mu.Unlock()
	if from < w.first {
		from = w.first
	}
	start := int(from - w.first)
	if start >= len(w.recs) {
		return nil
	}
	out := w.recs[start:]
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out[:len(out):len(out)]
}

// compactAfter is how many records one Truncate must drop, and drop more
// than it keeps, before it copies the kept ones into an array of their own.
const compactAfter = 64

// Truncate discards records with LSN < upTo. On a durable store upTo is
// clamped to the retention floor — the minimum of the last checkpoint LSN
// and every pinned snapshot's WAL position — so recovery and live readers
// never lose records they still need; truncation of the on-disk log is
// segment-granular (whole segments strictly below the clamped floor).
func (w *WAL) Truncate(upTo LSN) {
	if w.retain != nil {
		if floor := w.retain(); floor < upTo {
			upTo = floor
		}
	}
	w.mu.Lock()
	if upTo <= w.first {
		w.mu.Unlock()
		return
	}
	if upTo > w.next {
		upTo = w.next
	}
	// Reslice: nothing below the kept records is ever written again, so a
	// reader still filtering a dropped record (ReadFrom's views) sees it
	// unchanged. Only a call that drops most of a long log copies what it
	// keeps, so that the array it drained is not pinned by a short tail.
	drop := int(upTo - w.first)
	if keep := w.recs[drop:]; drop > len(keep) && drop > compactAfter {
		w.recs = append(make([]CommitRecord, 0, len(keep)), keep...)
	} else {
		w.recs = keep
	}
	w.first = upTo
	disk := w.disk
	w.mu.Unlock()
	if disk != nil {
		disk.dropSegmentsBelow(upTo)
	}
}

// First returns the LSN of the oldest retained record (== End when empty).
func (w *WAL) First() LSN {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.first
}

// End returns the LSN the next commit will receive.
func (w *WAL) End() LSN {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.next
}

// Len returns the number of retained commit records.
func (w *WAL) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.recs)
}
