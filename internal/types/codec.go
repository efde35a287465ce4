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
		return AppendString(buf, v.S)
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

// RowEncSize is an upper estimate of AppendRow's output, for pre-sizing.
func RowEncSize(row Row) int {
	n := 2
	for i := range row {
		n += 10
		if row[i].K == KindString {
			n += len(row[i].S)
		}
	}
	return n
}

// Decoder walks one encoded payload. Any overrun or malformed field sets Err
// and sticks: every later read returns a zero value, so a caller checks Err
// once per record instead of once per field. Every length is checked against
// the bytes remaining before anything is allocated.
type Decoder struct {
	Buf []byte
	Off int
	Err error

	// After SlabStrings, slab is a string copy of Buf[slabBase:] that decoded
	// strings are cut from, made when the first string is decoded.
	slab     string
	slabBase int
	slabMode bool
}

// SlabStrings makes every string decoded from now on a substring of one
// shared copy of the rest of Buf — one allocation however many strings
// follow. They then live and die together, which suits a result set and not
// rows that are retained one by one.
func (d *Decoder) SlabStrings() { d.slabMode, d.slabBase = true, d.Off }

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
func (d *Decoder) Str() string {
	b := d.Bytes(d.Uvarint())
	if len(b) == 0 {
		return ""
	}
	if !d.slabMode {
		return string(b)
	}
	if d.slab == "" {
		d.slab = string(d.Buf[d.slabBase:])
	}
	end := d.Off - d.slabBase
	return d.slab[end-len(b) : end]
}

// Value decodes one value.
func (d *Decoder) Value() Value {
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
		return NewString(d.Str())
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

// Values decodes len(dst) values into dst.
func (d *Decoder) Values(dst []Value) {
	for i := range dst {
		dst[i] = d.Value()
		if d.Err != nil {
			return
		}
	}
}

// Row decodes one row into its own allocation (nil for an absent row), so a
// retained row pins nothing but itself.
func (d *Decoder) Row() Row {
	n := d.Uvarint()
	if n == 0 || d.Err != nil {
		return nil
	}
	n--
	if n > uint64(d.Remaining()) { // each column costs ≥1 byte
		d.Fail()
		return nil
	}
	row := make(Row, n)
	if d.Values(row); d.Err != nil {
		return nil
	}
	return row
}
