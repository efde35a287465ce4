package storage

// walcodec.go is the hand-rolled binary codec for on-disk WAL frames. Each
// frame's payload must be independently decodable (recovery cuts the log at
// the first bad frame), which rules out gob's streaming model — a fresh gob
// encoder re-emits full type descriptors per record, ~8µs and ~3KB of
// overhead for a one-row commit. This codec is a few hundred nanoseconds,
// which matters because encoding happens inside the commit critical section:
// it bounds how fast concurrent committers can pile onto one group fsync.
//
// Payload layout (all integers varint/uvarint; string, row and value as
// types/codec.go lays them out — the wire protocol ships the same bytes):
//
//	uvarint LSN
//	varint  TxnID
//	varint  CommitTime (unix nanoseconds)
//	changes:
//	  uvarint #changes, then per change:
//	    string table
//	    byte   op
//	    row    Before
//	    row    After

import (
	"encoding/binary"
	"fmt"
	"time"

	"mtcache/internal/types"
)

// encodeCommitRecord renders one record as a frame payload.
func encodeCommitRecord(rec *CommitRecord) ([]byte, error) {
	// Pre-size roughly: fixed header plus per-change table names and rows.
	size := 32
	for i := range rec.Changes {
		c := &rec.Changes[i]
		size += len(c.Table) + 8 + types.RowEncSize(c.Before) + types.RowEncSize(c.After)
	}
	return appendCommitRecord(make([]byte, 0, size), rec), nil
}

// appendCommitRecord appends the encoded record to buf — used by the commit
// path to encode straight into the WAL buffer with no intermediate slice.
func appendCommitRecord(buf []byte, rec *CommitRecord) []byte {
	buf = binary.AppendUvarint(buf, uint64(rec.LSN))
	buf = binary.AppendVarint(buf, rec.TxnID)
	buf = binary.AppendVarint(buf, rec.CommitTime.UnixNano())
	return AppendChanges(buf, rec.Changes)
}

// AppendChanges appends a transaction's changes in the WAL layout. A pull
// response carries a replicated transaction in the same bytes.
func AppendChanges(buf []byte, changes []ChangeRec) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(changes)))
	for i := range changes {
		c := &changes[i]
		buf = types.AppendString(buf, c.Table)
		buf = append(buf, byte(c.Op))
		buf = types.AppendRow(buf, c.Before)
		buf = types.AppendRow(buf, c.After)
	}
	return buf
}

// DecodeChanges is the inverse of AppendChanges; a failure is left in d.Err.
// Each row gets its own allocation: the store retains rows one by one.
func DecodeChanges(d *types.Decoder) []ChangeRec {
	n := d.Count(4) // table length, op, two row headers
	changes := make([]ChangeRec, 0, n)
	for i := 0; i < n; i++ {
		var c ChangeRec
		c.Table = d.Str()
		c.Op = ChangeOp(d.Byte())
		c.Before = d.Row()
		c.After = d.Row()
		if d.Err != nil {
			return nil
		}
		changes = append(changes, c)
	}
	return changes
}

// decodeCommitRecord parses a frame payload. The CRC already vouched for the
// bytes, so a parse failure means real corruption, not a torn write.
func decodeCommitRecord(payload []byte) (*CommitRecord, error) {
	d := &types.Decoder{Buf: payload}
	rec := &CommitRecord{
		LSN:        LSN(d.Uvarint()),
		TxnID:      d.Varint(),
		CommitTime: time.Unix(0, d.Varint()).UTC(),
	}
	rec.Changes = DecodeChanges(d)
	if d.Err != nil {
		return nil, fmt.Errorf("storage: wal record: %w", d.Err)
	}
	if d.Off != len(payload) {
		return nil, fmt.Errorf("storage: wal record has %d trailing bytes", len(payload)-d.Off)
	}
	return rec, nil
}
