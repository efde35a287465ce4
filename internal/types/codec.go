package types

// codec.go is the one binary layout of a Value and a Row, and the cursor
// that decodes it. The on-disk WAL (storage/walcodec.go) and the wire
// protocol (wire/codec.go) both build their frames from these pieces, so a
// value has the same bytes in a log file and on a socket.
//
// Layout (integers varint/uvarint, floats little-endian IEEE bits):
//
//	string: uvarint len, bytes
//	value:  byte tag, then per tag:
//	  NULL      —
//	  BOOL, INT varint
//	  FLOAT     8-byte LE bits
//	  VARCHAR   string
//	  DATETIME  varint unix nanoseconds
//	  0x85      DATETIME outside UnixNano's range (before 1678, after 2261):
//	            varint unix seconds, uvarint nanoseconds
//	row:    uvarint #cols+1 (0 = absent row), then the values
//
// Times round-trip as instants (UTC); the engine compares and displays them
// by instant, never by zone. The wide DATETIME form is written only when the
// narrow one cannot hold the instant, so in-range values still encode to the
// bytes they had before it existed.
//
// Every value has exactly one encoding, and the decoder refuses any other: an
// overlong varint, a wide DATETIME the narrow form holds, a narrow one the
// encoder writes wide (only a build before the wide form wrote those, for
// instants within two seconds of either end of UnixNano's range). So decoding
// and re-encoding gives back the input bytes, which is what the image and
// snapshot fuzz targets check.

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"
	"unsafe"
)

// tagTimeWide marks the seconds + nanoseconds DATETIME form.
const tagTimeWide = 0x80 | byte(KindTime)

// maxNanoSec bounds the unix seconds whose nanosecond count fits an int64.
const maxNanoSec = math.MaxInt64 / int64(time.Second)

// wideSeconds reports whether a DATETIME with these unix seconds is written
// in the wide form.
func wideSeconds(sec int64) bool { return sec <= -maxNanoSec || sec >= maxNanoSec }

// AppendString appends s length-prefixed.
func AppendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// AppendValue appends one value.
func AppendValue(buf []byte, v *Value) []byte {
	switch v.K {
	case KindBool, KindInt:
		buf = append(buf, byte(v.K))
		return binary.AppendVarint(buf, v.w)
	case KindFloat:
		buf = append(buf, byte(v.K))
		return binary.LittleEndian.AppendUint64(buf, uint64(v.w))
	case KindString:
		buf = append(buf, byte(v.K))
		return AppendString(buf, v.str())
	case KindTime:
		if wideSeconds(v.w) {
			buf = append(buf, tagTimeWide)
			buf = binary.AppendVarint(buf, v.w)
			return binary.AppendUvarint(buf, uint64(v.nsec))
		}
		buf = append(buf, byte(v.K))
		return binary.AppendVarint(buf, v.w*int64(time.Second)+int64(v.nsec))
	}
	// NULL; unknown kinds encode as NULL rather than corrupting the frame.
	return append(buf, byte(KindNull))
}

// AppendRow appends one row; a nil row is written as absent.
func AppendRow(buf []byte, row Row) []byte {
	if row == nil {
		return binary.AppendUvarint(buf, 0)
	}
	buf = binary.AppendUvarint(buf, uint64(len(row))+1)
	for i := range row {
		buf = AppendValue(buf, &row[i])
	}
	return buf
}

// Decoder walks one encoded payload. Any overrun or malformed field sets Err
// and sticks: every later read returns a zero value, so a caller checks Err
// once per record instead of once per field. Every length is checked against
// the bytes remaining before anything is allocated, and what a walk over the
// bytes counts (SkipRow) sizes an allocation only after the walk.
//
// A row decodes in one of two ways. Row gives a row its caller keeps — a
// stored row — its own value array and one string for all of its string
// bytes. SharedRow cuts rows nobody keeps apart from each other from one
// value array and one string that ReserveShared sized for the payload, and
// SharedValues decodes values into an array the caller owns, their strings
// cut from that string.
type Decoder struct {
	Buf []byte
	Off int
	Err error

	// After ReserveShared, shared and sharedStrs are the value array and the
	// string bytes that SharedRow cuts rows from.
	shared     []Value
	sharedStrs []byte
}

// Fail records a malformed payload at the current offset.
func (d *Decoder) Fail() {
	if d.Err == nil {
		d.Err = fmt.Errorf("malformed or truncated at byte %d of %d", d.Off, len(d.Buf))
	}
}

// Remaining returns the number of undecoded bytes.
func (d *Decoder) Remaining() int { return len(d.Buf) - d.Off }

// Uvarint decodes one unsigned varint. Its last byte must carry bits: a
// final zero byte after a continuation is the overlong form of a shorter
// varint.
func (d *Decoder) Uvarint() uint64 {
	if d.Err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.Buf[d.Off:])
	if n <= 0 || (n > 1 && d.Buf[d.Off+n-1] == 0) {
		d.Fail()
		return 0
	}
	d.Off += n
	return v
}

// Varint decodes one signed varint, refusing the overlong form as Uvarint
// does.
func (d *Decoder) Varint() int64 {
	if d.Err != nil {
		return 0
	}
	v, n := binary.Varint(d.Buf[d.Off:])
	if n <= 0 || (n > 1 && d.Buf[d.Off+n-1] == 0) {
		d.Fail()
		return 0
	}
	d.Off += n
	return v
}

// Byte decodes one byte.
func (d *Decoder) Byte() byte {
	if d.Err != nil {
		return 0
	}
	if d.Off >= len(d.Buf) {
		d.Fail()
		return 0
	}
	b := d.Buf[d.Off]
	d.Off++
	return b
}

// Bytes returns the next n bytes. The result aliases Buf.
func (d *Decoder) Bytes(n uint64) []byte {
	if d.Err != nil {
		return nil
	}
	if n > uint64(d.Remaining()) {
		d.Fail()
		return nil
	}
	b := d.Buf[d.Off : d.Off+int(n)]
	d.Off += int(n)
	return b
}

// Fixed64 decodes eight little-endian bytes.
func (d *Decoder) Fixed64() uint64 {
	if b := d.Bytes(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// Count decodes an element count and fails unless that many elements of at
// least minBytes each can still follow — the check that keeps a corrupt
// count from sizing an allocation.
func (d *Decoder) Count(minBytes int) int {
	n := d.Uvarint()
	if d.Err != nil || n > uint64(d.Remaining()/minBytes) {
		d.Fail()
		return 0
	}
	return int(n)
}

// Str decodes one length-prefixed string. It never aliases Buf.
func (d *Decoder) Str() string { return d.str(nil) }

// str is Str, with the string's bytes appended to *strs and the string cut
// from them when strs is not nil.
func (d *Decoder) str(strs *[]byte) string {
	b := d.Bytes(d.Uvarint())
	switch {
	case len(b) == 0:
		return ""
	case strs != nil:
		return cut(strs, b)
	}
	return string(b)
}

// cut appends b to *strs and returns the appended bytes as a string. A byte
// of *strs is written once, before the string over it exists, and never
// again — append writes only past the length — so every string cut from it
// keeps its bytes, even should the array have to grow.
func cut(strs *[]byte, b []byte) string {
	n := len(*strs)
	*strs = append(*strs, b...)
	return unsafe.String(&(*strs)[n], len(b))
}

// Value decodes one value.
func (d *Decoder) Value() Value { return d.value(nil) }

// value is Value, with a string's bytes kept as str keeps them.
func (d *Decoder) value(strs *[]byte) Value {
	switch tag := d.Byte(); tag {
	case byte(KindNull):
		return Null
	case byte(KindBool), byte(KindInt):
		return Value{K: Kind(tag), w: d.Varint()}
	case byte(KindFloat):
		if bits := d.Fixed64(); d.Err == nil {
			return Value{K: KindFloat, w: int64(bits)}
		}
	case byte(KindString):
		return NewString(d.str(strs))
	case byte(KindTime):
		// Floored division: nanoseconds before 1970 still land in [0, 1e9).
		n := d.Varint()
		sec, nsec := n/int64(time.Second), n%int64(time.Second)
		if nsec < 0 {
			sec, nsec = sec-1, nsec+int64(time.Second)
		}
		if wideSeconds(sec) {
			d.Fail()
			return Null
		}
		return Value{K: KindTime, w: sec, nsec: uint32(nsec)}
	case tagTimeWide:
		sec, nsec := d.Varint(), d.Uvarint()
		if nsec >= uint64(time.Second) || !wideSeconds(sec) {
			d.Fail()
			return Null
		}
		return Value{K: KindTime, w: sec, nsec: uint32(nsec)}
	default:
		d.Fail()
	}
	return Null
}

func (d *Decoder) values(dst []Value, strs *[]byte) {
	for i := range dst {
		dst[i] = d.value(strs)
		if d.Err != nil {
			return
		}
	}
}

// width decodes a row header: the row's number of values, checked against
// the bytes left (each costs at least one), and false for an absent row or
// a failure.
func (d *Decoder) width() (int, bool) {
	n := d.Uvarint()
	if n == 0 || d.Err != nil {
		return 0, false
	}
	if n--; n > uint64(d.Remaining()) {
		d.Fail()
		return 0, false
	}
	return int(n), true
}

// Row decodes one row that its caller keeps (nil for an absent row): its
// values in one allocation and all of its string bytes in one string, both
// of its own and sized exactly by a walk over the row's bytes first, so a
// retained row pins nothing but itself.
func (d *Decoder) Row() Row {
	n, ok := d.width()
	if !ok {
		return nil
	}
	probe := Decoder{Buf: d.Buf, Off: d.Off}
	size := probe.SkipValues(n)
	if probe.Err != nil {
		d.Off, d.Err = probe.Off, probe.Err
		return nil
	}
	var strs []byte
	if size > 0 {
		strs = make([]byte, 0, size)
	}
	row := make(Row, n)
	if d.values(row, &strs); d.Err != nil {
		return nil
	}
	return row
}

// ReserveShared sizes the arrays SharedRow cuts rows from: vals values and
// strBytes bytes of strings, what SkipRow counted over the rows to come.
// Those counts come from walking bytes of Buf, so neither exceeds its length.
func (d *Decoder) ReserveShared(vals, strBytes int) {
	d.shared, d.sharedStrs = nil, nil
	if vals > 0 {
		d.shared = make([]Value, vals)
	}
	if strBytes > 0 {
		d.sharedStrs = make([]byte, 0, strBytes)
	}
}

// SharedRow decodes one row that nobody keeps apart from the payload's other
// shared rows (nil for an absent row): its values are cut, capacity-clipped,
// from the value array ReserveShared made and its strings from the one
// string array, so all of a payload's shared rows cost those two
// allocations. A row the value array has no room left for gets its own.
func (d *Decoder) SharedRow() Row {
	n, ok := d.width()
	if !ok {
		return nil
	}
	var row Row
	if n > 0 && n <= len(d.shared) {
		row, d.shared = d.shared[:n:n], d.shared[n:]
	} else {
		row = make(Row, n)
	}
	if d.values(row, &d.sharedStrs); d.Err != nil {
		return nil
	}
	return row
}

// ShareStrings makes strs's array, emptied, the one SharedValues cuts
// strings from, in place of one ReserveShared makes: a caller that recycles
// an earlier payload's string bytes and has room in strs for every string to
// come gets them all cut from it.
func (d *Decoder) ShareStrings(strs []byte) { d.sharedStrs = strs[:0] }

// SharedValues decodes len(dst) values into dst, their strings cut from the
// one string array ReserveShared made, as SharedRow's are.
func (d *Decoder) SharedValues(dst []Value) { d.values(dst, &d.sharedStrs) }

// SharedBytes returns the bytes of the strings cut since ReserveShared: a
// frame that declared its string bytes checks the count against it.
func (d *Decoder) SharedBytes() int { return len(d.sharedStrs) }

// SkipRow steps over one row, allocating nothing, and returns its number of
// values and of string bytes: what ReserveShared takes.
func (d *Decoder) SkipRow() (vals, strBytes int) {
	n, ok := d.width()
	if !ok {
		return 0, 0
	}
	return n, d.SkipValues(n)
}

// SkipValues steps over n values, allocating nothing, and returns the bytes
// of their strings. It checks only that each field is there; decoding them
// checks the rest. It reads the bytes in one loop rather than through Byte,
// Varint and Bytes: a kept row (Row) and a frame's shared rows (SkipRow)
// are walked once before they are decoded, and through those methods the
// walk of a result set, when one was walked, took a quarter of its decode.
func (d *Decoder) SkipValues(n int) (strBytes int) {
	if d.Err != nil {
		return 0
	}
	buf, off := d.Buf, d.Off
	for ; n > 0 && off < len(buf); n-- {
		tag := buf[off]
		off++
		switch tag {
		case byte(KindNull):
		case byte(KindBool), byte(KindInt), byte(KindTime):
			off = skipVarint(buf, off)
		case byte(KindFloat):
			off += 8
		case byte(KindString):
			l, k := binary.Uvarint(buf[off:])
			if k <= 0 || l > uint64(len(buf)-off-k) {
				off = len(buf) + 1
				break
			}
			off += k + int(l)
			strBytes += int(l)
		case tagTimeWide:
			off = skipVarint(buf, skipVarint(buf, off))
		default:
			off = len(buf) + 1
		}
	}
	d.Off = min(off, len(buf))
	if n > 0 || off > len(buf) {
		d.Fail()
		return 0
	}
	return strBytes
}

// skipVarint returns the offset past the varint at buf[off:], or one past
// the end when it does not end inside buf.
func skipVarint(buf []byte, off int) int {
	for ; off < len(buf); off++ {
		if buf[off] < 0x80 {
			return off + 1
		}
	}
	return len(buf) + 1
}
