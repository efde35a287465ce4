package types

import (
	"encoding/hex"
	"math"
	"testing"
	"time"
)

// sameValue is bit-for-bit equality: a NaN equals itself, and a time is its
// instant, so the zone it was built from does not matter.
func sameValue(a, b Value) bool { return a == b }

var codecValues = []Value{
	Null,
	NewBool(true), NewBool(false),
	NewInt(0), NewInt(-1), NewInt(math.MaxInt64), NewInt(math.MinInt64),
	NewFloat(0), NewFloat(-2.5), NewFloat(math.NaN()), NewFloat(math.Inf(-1)),
	NewString(""), NewString("x"), NewString("it's \x00 binary-safe ✓"),
	NewTime(time.Unix(0, 0)),
	NewTime(time.Date(2003, 6, 9, 12, 30, 0, 123456789, time.FixedZone("PDT", -7*3600))),
	NewTime(time.Unix(0, math.MaxInt64)), NewTime(time.Unix(0, math.MinInt64)),
	// Outside UnixNano's range: the wide form.
	NewTime(time.Time{}),
	NewTime(time.Date(1, 1, 1, 0, 0, 0, 0, time.UTC)),
	NewTime(time.Date(1677, 9, 21, 0, 12, 43, 145224191, time.UTC)),
	NewTime(time.Date(2262, 4, 11, 23, 47, 16, 854775808, time.UTC)),
	NewTime(time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.FixedZone("x", 3600))),
}

// TestValueCodecRoundTrip: every value comes back as the same value — a time
// as the same instant, rendered identically, whatever its zone and however
// far it is from 1970.
func TestValueCodecRoundTrip(t *testing.T) {
	for _, v := range codecValues {
		v := v
		buf := AppendValue(nil, &v)
		d := Decoder{Buf: buf}
		got := d.Value()
		if d.Err != nil || d.Remaining() != 0 {
			t.Fatalf("%v: err=%v, %d bytes left of %x", v, d.Err, d.Remaining(), buf)
		}
		if !sameValue(v, got) || v.String() != got.String() {
			t.Errorf("round trip: in %v (%#v), out %v (%#v)", v, v, got, got)
		}
		if v.K == KindTime && (Compare(v, got) != 0 || got.Time().Location() != time.UTC) {
			t.Errorf("time %v came back as %v", v.Time(), got.Time())
		}
	}
	row := Row(codecValues)
	d := Decoder{Buf: AppendRow(nil, row)}
	got := d.Row()
	if d.Err != nil || d.Remaining() != 0 || len(got) != len(row) {
		t.Fatalf("row: err=%v len=%d", d.Err, len(got))
	}
	for i := range row {
		if !sameValue(row[i], got[i]) {
			t.Errorf("row[%d]: in %v, out %v", i, row[i], got[i])
		}
	}
	if n := len(AppendRow(nil, row)); n > RowEncSize(row) {
		t.Errorf("RowEncSize %d under-estimates %d encoded bytes", RowEncSize(row), n)
	}
}

// TestValueCodecBytes pins the layout: these are the bytes WAL files on disk
// hold, so changing one is a format break, not a refactor. A nil row is a
// single zero byte, an empty one a single 1.
func TestValueCodecBytes(t *testing.T) {
	row := Row{Null, NewBool(true), NewInt(-3), NewFloat(1.5), NewString("ab"),
		NewTime(time.Unix(1, 5)), NewTime(time.Date(1, 1, 1, 0, 0, 0, 7, time.UTC))}
	const want = "08" + "00" + "0102" + "0205" + "03000000000000f83f" + "04026162" +
		"058aa8d6b907" + "85ffdb8ff9ce0307"
	if got := hex.EncodeToString(AppendRow(nil, row)); got != want {
		t.Errorf("row bytes\n got %s\nwant %s", got, want)
	}
	if got := hex.EncodeToString(AppendRow(AppendRow(nil, nil), Row{})); got != "0001" {
		t.Errorf("nil + empty row: %s", got)
	}
	d := Decoder{Buf: []byte{0, 1}}
	if a, b := d.Row(), d.Row(); a != nil || b == nil || len(b) != 0 || d.Err != nil {
		t.Errorf("nil + empty row decoded as %v, %v (%v)", a, b, d.Err)
	}
}

// TestDecoderRejectsMalformed: every truncation of a valid row fails, the
// error sticks, and counts are refused before they size an allocation.
func TestDecoderRejectsMalformed(t *testing.T) {
	buf := AppendRow(nil, Row(codecValues))
	for cut := 0; cut < len(buf); cut++ {
		d := Decoder{Buf: buf[:cut]}
		if row := d.Row(); d.Err == nil || row != nil {
			t.Fatalf("prefix of %d/%d bytes decoded: %v", cut, len(buf), row)
		}
		off := d.Off
		if d.Uvarint() != 0 || d.Varint() != 0 || d.Byte() != 0 || d.Bytes(1) != nil || d.Str() != "" || d.Off != off {
			t.Fatalf("cut %d: reads after an error must return zero values and not move", cut)
		}
	}
	for name, buf := range map[string][]byte{
		"unknown tag":            {2, 9},
		"row wider than payload": {200, 0},
		"string longer":          {2, byte(KindString), 5, 'a'},
		"wide time nanos ≥ 1e9":  {2, tagTimeWide, 0, 0x80, 0x94, 0xeb, 0xdc, 0x03},
		"varint overflow":        {2, byte(KindInt), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
	} {
		d := Decoder{Buf: buf}
		if row := d.Row(); d.Err == nil {
			t.Errorf("%s: decoded %v", name, row)
		}
	}
	d := Decoder{Buf: []byte{100, 1, 2, 3}}
	if n := d.Count(1); n != 0 || d.Err == nil {
		t.Errorf("Count accepted %d elements in 3 bytes", n)
	}
	d = Decoder{Buf: []byte{2, 1, 2, 3}}
	if n := d.Count(2); n != 0 || d.Err == nil {
		t.Errorf("Count accepted %d two-byte elements in 3 bytes", n)
	}
}

// TestSlabStrings: in slab mode every string is cut from one copy of the
// payload — one allocation for all of them — and none aliases the buffer.
func TestSlabStrings(t *testing.T) {
	row := Row{NewString("alpha"), NewInt(1), NewString(""), NewString("beta"), NewString("gamma")}
	buf := AppendString(nil, "skipped header")
	buf = AppendRow(buf, row)
	var got Row
	allocs := testing.AllocsPerRun(100, func() {
		d := Decoder{Buf: buf}
		d.Str()
		d.SlabStrings()
		got = d.Row()
	})
	if allocs != 3 { // the header string, the row, the slab
		t.Errorf("slab decode: %v allocations, want 3", allocs)
	}
	for i := range buf {
		buf[i] = 0xff
	}
	for i := range row {
		if !sameValue(row[i], got[i]) {
			t.Errorf("value %d: %v after the buffer was overwritten, want %v", i, got[i], row[i])
		}
	}
}
