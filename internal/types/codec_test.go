package types

import (
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
	"time"
)

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
		if !Identical(v, got) || v.String() != got.String() {
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
		if !Identical(row[i], got[i]) {
			t.Errorf("row[%d]: in %v, out %v", i, row[i], got[i])
		}
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

// TestSkipValuesStepsAsDecodingDoes: over the values of every kind and form,
// a walk of any n of them ends where decoding them ends and counts their
// string bytes, and a walk that runs past the payload's end or meets an
// unknown tag fails.
func TestSkipValuesStepsAsDecodingDoes(t *testing.T) {
	var buf []byte
	for i := range codecValues {
		buf = AppendValue(buf, &codecValues[i])
	}
	ends, strs := make([]int, len(codecValues)+1), make([]int, len(codecValues)+1)
	d := Decoder{Buf: buf}
	for i := range codecValues {
		if v := d.Value(); v.K == KindString {
			strs[i+1] = len(v.Str())
		}
		ends[i+1], strs[i+1] = d.Off, strs[i]+strs[i+1]
	}
	for n := range ends {
		w := Decoder{Buf: buf}
		if got := w.SkipValues(n); w.Err != nil || w.Off != ends[n] || got != strs[n] {
			t.Errorf("%d values: off %d, %d string bytes, err %v; want off %d, %d bytes", n, w.Off, got, w.Err, ends[n], strs[n])
		}
	}
	for cut := range buf {
		w := Decoder{Buf: buf[:cut]}
		if w.SkipValues(len(codecValues)); w.Err == nil {
			t.Errorf("a walk over %d of %d bytes did not fail", cut, len(buf))
		}
	}
	for _, bad := range [][]byte{{0xff}, {byte(KindInt), 0x80}, {byte(KindString), 5, 'a'}} {
		if w := (Decoder{Buf: bad}); w.SkipValues(1) != 0 || w.Err == nil {
			t.Errorf("%x: the walk did not fail", bad)
		}
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
		// Each value has one encoding; these are the bytes of a valid one
		// written another way.
		"overlong column count":   {0x82, 0x00, byte(KindNull)},
		"overlong INT":            {2, byte(KindInt), 0x86, 0x80, 0x00},
		"overlong string length":  {2, byte(KindString), 0x81, 0x00, 'a'},
		"wide time, narrow range": {2, tagTimeWide, 2, 0},
		"narrow time at MinInt64": append([]byte{2, byte(KindTime)}, binary.AppendVarint(nil, math.MinInt64)...),
		"narrow time at MaxInt64": append([]byte{2, byte(KindTime)}, binary.AppendVarint(nil, math.MaxInt64)...),
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

// TestSharedValuesCutExactStrings: values SharedValues decodes cut their
// strings from the one array ReserveShared made, sized by a SkipValues walk
// over them first — one allocation of exactly their string bytes however
// many strings there are, none when there is no string — and none aliases
// the buffer.
func TestSharedValuesCutExactStrings(t *testing.T) {
	row := Row{NewString("alpha"), NewInt(1), NewString(""), NewString("beta"), NewString("gamma")}
	decode := func(row Row) (got Row, strBytes int, allocs float64) {
		buf := AppendString(nil, "skipped header")
		for i := range row {
			buf = AppendValue(buf, &row[i])
		}
		allocs = testing.AllocsPerRun(100, func() {
			d := Decoder{Buf: buf}
			d.Str()
			probe := Decoder{Buf: buf, Off: d.Off}
			d.ReserveShared(0, probe.SkipValues(len(row)))
			got = make(Row, len(row))
			d.SharedValues(got)
			strBytes = cap(d.sharedStrs)
		})
		for i := range buf {
			buf[i] = 0xff
		}
		return got, strBytes, allocs
	}
	got, strBytes, allocs := decode(row)
	if allocs != 3 { // the header string, the row, the strings
		t.Errorf("shared decode: %v allocations, want 3", allocs)
	}
	if want := len("alphabetagamma"); strBytes != want {
		t.Errorf("the strings were cut from %d bytes, want their %d", strBytes, want)
	}
	for i := range row {
		if !Identical(row[i], got[i]) {
			t.Errorf("value %d: %v after the buffer was overwritten, want %v", i, got[i], row[i])
		}
	}
	if _, _, allocs := decode(Row{NewInt(1), Null, NewString("")}); allocs != 2 { // the header string, the row
		t.Errorf("shared decode of values with no string bytes: %v allocations, want 2", allocs)
	}
}
