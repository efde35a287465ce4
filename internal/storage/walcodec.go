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
//	string  DDL (empty on a record of row changes)
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

// appendCommitRecord appends the encoded record, a frame's payload, to buf —
// the commit path encodes straight into the WAL buffer with no intermediate
// slice.
func appendCommitRecord(buf []byte, rec *CommitRecord) []byte {
	buf = binary.AppendUvarint(buf, uint64(rec.LSN))
	buf = binary.AppendVarint(buf, rec.TxnID)
	buf = binary.AppendVarint(buf, rec.CommitTime.UnixNano())
	buf = types.AppendString(buf, rec.DDL)
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
// Each change's table name is made from its bytes by table: a new string, or
// a reader's intern table's — a pull names the same few tables over and over.
// An After row, which the store keeps (Txn.Apply), is d.Row's: its own
// values and one string for its string bytes. A Before row, which Txn.Apply
// only reads, is d.SharedRow's, cut from the arrays the caller reserved for
// the whole payload with SizeChanges' counts.
func DecodeChanges(d *types.Decoder, table func([]byte) string) []ChangeRec {
	n := d.Count(4) // table length, op, two row headers
	changes := make([]ChangeRec, 0, n)
	for i := 0; i < n; i++ {
		var c ChangeRec
		c.Table = table(d.Bytes(d.Uvarint()))
		c.Op = ChangeOp(d.Byte())
		c.Before = d.SharedRow()
		c.After = d.Row()
		if d.Err != nil {
			return nil
		}
		changes = append(changes, c)
	}
	return changes
}

// SizeChanges steps over one AppendChanges list, allocating nothing, and
// returns its Before rows' values and string bytes: summed over every list
// of a payload, what d.ReserveShared takes before DecodeChanges.
func SizeChanges(d *types.Decoder) (vals, strBytes int) {
	n := d.Count(4)
	for i := 0; i < n && d.Err == nil; i++ {
		d.Bytes(d.Uvarint())
		d.Byte()
		v, s := d.SkipRow()
		vals, strBytes = vals+v, strBytes+s
		d.SkipRow()
	}
	return vals, strBytes
}

// decodeCommitRecord parses a frame payload. The CRC already vouched for the
// bytes, so a parse failure means real corruption, not a torn write.
func decodeCommitRecord(payload []byte) (*CommitRecord, error) {
	d := &types.Decoder{Buf: payload}
	rec := &CommitRecord{
		LSN:        LSN(d.Uvarint()),
		TxnID:      d.Varint(),
		CommitTime: time.Unix(0, d.Varint()).UTC(),
		DDL:        d.Str(),
	}
	probe := *d
	d.ReserveShared(SizeChanges(&probe))
	rec.Changes = DecodeChanges(d, func(b []byte) string { return string(b) })
	if d.Err != nil {
		return nil, fmt.Errorf("storage: wal record: %w", d.Err)
	}
	if d.Off != len(payload) {
		return nil, fmt.Errorf("storage: wal record has %d trailing bytes", len(payload)-d.Off)
	}
	return rec, nil
}
