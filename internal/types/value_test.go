package types

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestCompareWithinKinds(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewFloat(1.5), NewFloat(2.5), -1},
		{NewString("abc"), NewString("abd"), -1},
		{NewString("abc"), NewString("abc"), 0},
		{NewBool(false), NewBool(true), -1},
		{NewTime(time.Unix(1, 0)), NewTime(time.Unix(2, 0)), -1},
		{Null, Null, 0},
		{Null, NewInt(0), -1},
		{NewInt(0), Null, 1},
	}
	for _, c := range cases {
		got := Compare(c.a, c.b)
		if sign(got) != c.want {
			t.Errorf("Compare(%v,%v)=%d want sign %d", c.a, c.b, got, c.want)
		}
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

func TestCompareCrossNumeric(t *testing.T) {
	if Compare(NewInt(2), NewFloat(2.0)) != 0 {
		t.Error("INT 2 should equal FLOAT 2.0")
	}
	if Compare(NewInt(2), NewFloat(2.5)) != -1 {
		t.Error("INT 2 should be less than FLOAT 2.5")
	}
	if Compare(NewBool(true), NewInt(1)) != 0 {
		t.Error("BOOL true should equal INT 1 numerically")
	}
}

func TestHashEqualValuesHashEqual(t *testing.T) {
	pairs := [][2]Value{
		{NewInt(7), NewFloat(7)},
		{NewBool(true), NewInt(1)},
		{NewString("x"), NewString("x")},
	}
	for _, p := range pairs {
		if Compare(p[0], p[1]) == 0 && p[0].Hash() != p[1].Hash() {
			t.Errorf("equal values %v,%v hash differently", p[0], p[1])
		}
	}
}

func TestCastRoundTrips(t *testing.T) {
	v, err := NewString("42").Cast(KindInt)
	if err != nil || v.Int() != 42 {
		t.Fatalf("cast '42' to int: %v %v", v, err)
	}
	v, err = NewInt(42).Cast(KindString)
	if err != nil || v.Str() != "42" {
		t.Fatalf("cast 42 to string: %v %v", v, err)
	}
	v, err = NewString("3.5").Cast(KindFloat)
	if err != nil || v.Float() != 3.5 {
		t.Fatalf("cast '3.5' to float: %v %v", v, err)
	}
	if _, err = NewString("zebra").Cast(KindInt); err == nil {
		t.Fatal("cast 'zebra' to int should fail")
	}
	v, err = Null.Cast(KindInt)
	if err != nil || !v.IsNull() {
		t.Fatalf("cast NULL should stay NULL: %v %v", v, err)
	}
	v, err = NewString("2003-06-09").Cast(KindTime)
	if err != nil || v.Time().Year() != 2003 {
		t.Fatalf("cast date string: %v %v", v, err)
	}
}

func TestValueStringQuoting(t *testing.T) {
	if got := NewString("O'Brien").String(); got != "'O''Brien'" {
		t.Errorf("string quoting: got %s", got)
	}
	if got := Null.String(); got != "NULL" {
		t.Errorf("null rendering: got %s", got)
	}
}

func TestParseKind(t *testing.T) {
	for name, want := range map[string]Kind{
		"int": KindInt, "VARCHAR": KindString, "Float": KindFloat,
		"datetime": KindTime, "BIT": KindBool, "decimal": KindFloat,
	} {
		got, err := ParseKind(name)
		if err != nil || got != want {
			t.Errorf("ParseKind(%q)=%v,%v want %v", name, got, err, want)
		}
	}
	if _, err := ParseKind("BLOB"); err == nil {
		t.Error("ParseKind(BLOB) should fail")
	}
}

// Property: Compare is antisymmetric and Equal values hash identically.
func TestCompareAntisymmetricProperty(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := NewInt(a), NewInt(b)
		return sign(Compare(va, vb)) == -sign(Compare(vb, va))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Compare over ints agrees with native ordering.
func TestCompareIntAgreesWithNative(t *testing.T) {
	f := func(a, b int64) bool {
		want := 0
		if a < b {
			want = -1
		} else if a > b {
			want = 1
		}
		return sign(Compare(NewInt(a), NewInt(b))) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: string values round-trip through SQL literal rendering length-safely.
func TestStringHashStability(t *testing.T) {
	f := func(s string) bool {
		v := NewString(s)
		return v.Hash() == NewString(s).Hash()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompareRowsLexicographic(t *testing.T) {
	a := Row{NewInt(1), NewString("b")}
	b := Row{NewInt(1), NewString("c")}
	if CompareRows(a, b) >= 0 {
		t.Error("row a should sort before b")
	}
	if CompareRows(a, a) != 0 {
		t.Error("row should equal itself")
	}
	short := Row{NewInt(1)}
	if CompareRows(short, a) >= 0 {
		t.Error("prefix row should sort first")
	}
}

func TestRowClone(t *testing.T) {
	r := Row{NewInt(1), NewString("x")}
	c := r.Clone()
	c[0] = NewInt(9)
	if r[0].Int() != 1 {
		t.Error("clone should not alias original")
	}
	if !RowsEqual(r, Row{NewInt(1), NewString("x")}) {
		t.Error("original mutated")
	}
}

// TestValueLayout pins the size every row copy, arena chunk and byte budget
// depends on: kind + nanoseconds in the first word, one payload word, the
// string header.
func TestValueLayout(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(types.Value{}) = %d, want 32", got)
	}
}

// timeInstants are the instants a DATETIME must carry exactly: zoned, with a
// monotonic reading, sub-second, and at both ends of what time.Time formats.
func timeInstants() []time.Time {
	return []time.Time{
		time.Unix(0, 0),
		time.Date(2003, 6, 9, 12, 30, 0, 123456789, time.FixedZone("PDT", -7*3600)),
		time.Now(), // carries a monotonic reading
		time.Date(2024, 2, 29, 23, 59, 59, 999_000_000, time.UTC),
		time.Date(1969, 12, 31, 23, 59, 59, 999_999_999, time.UTC), // negative unix time, nanoseconds set
		time.Date(1, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(1, 1, 1, 0, 0, 0, 1, time.UTC),
		time.Date(1677, 9, 21, 0, 12, 43, 145224191, time.UTC), // one ns before UnixNano's range
		time.Date(2262, 4, 11, 23, 47, 16, 854775808, time.UTC),
		time.Date(9999, 12, 31, 23, 59, 59, 999_999_999, time.FixedZone("x", 3600)),
	}
}

// TestTimeValueIsItsInstant: a DATETIME value is the instant it was built
// from and nothing else — no zone, no monotonic reading — and it orders,
// hashes and encodes by that instant over time.Time's whole range.
func TestTimeValueIsItsInstant(t *testing.T) {
	ts := timeInstants()
	for _, a := range ts {
		va := NewTime(a)
		if got := va.Time(); !got.Equal(a) || got.Location() != time.UTC {
			t.Errorf("NewTime(%v).Time() = %v", a, got)
		}
		if va != NewTime(a.In(time.FixedZone("other", 5*3600))) || va.Hash() != NewTime(a.UTC().Round(0)).Hash() {
			t.Errorf("%v: the same instant in another zone is another value", a)
		}
		d := Decoder{Buf: AppendValue(nil, &va)}
		back := d.Value()
		if d.Err != nil || d.Remaining() != 0 {
			t.Fatalf("%v: decode: %v", a, d.Err)
		}
		for _, b := range ts {
			vb := NewTime(b)
			if got, want := Compare(va, vb), a.Compare(b); got != want {
				t.Errorf("Compare(%v, %v) = %d, time.Time.Compare says %d", a, b, got, want)
			}
			if got, want := Compare(back, vb), a.Compare(b); got != want {
				t.Errorf("after the codec Compare(%v, %v) = %d, want %d", a, b, got, want)
			}
			if a.Equal(b) != (va.Hash() == vb.Hash()) {
				t.Errorf("%v and %v: equal instants must hash equal, and these distinct ones should not collide", a, b)
			}
		}
		if back.Hash() != va.Hash() || back != va {
			t.Errorf("%v changed through AppendValue/Decoder.Value: %#v -> %#v", a, va, back)
		}
	}
}

// TestValueGobRoundTrip: encoding/gob carries a Value as its codec bytes, not
// by reflection over fields it cannot see — inside a struct and inside
// []Row, bit for bit: NaN payloads, -0.0, sub-second and out-of-range
// DATETIMEs, and the empty string stays distinct from NULL.
func TestValueGobRoundTrip(t *testing.T) {
	vals := Row{
		Null, NewString(""), NewString("x"), NewBool(true), NewBool(false),
		NewInt(0), NewInt(math.MaxInt64), NewInt(math.MinInt64),
		NewFloat(math.Float64frombits(0x7ff8_0000_dead_beef)), // NaN with a payload
		NewFloat(math.Copysign(0, -1)), NewFloat(0), NewFloat(math.Inf(1)), NewFloat(1.5),
	}
	for _, ts := range timeInstants() {
		vals = append(vals, NewTime(ts))
	}
	type carrier struct {
		Name     string
		Min, Max Value // as in catalog.ColumnStats
		Zero     Value // a NULL field: gob omits it, it must come back NULL
		Hi       []Value
		Rows     []Row // as in a checkpoint image
	}
	in := carrier{Name: "c", Min: vals[8], Max: vals[len(vals)-1], Hi: vals, Rows: []Row{vals, {}, {Null}, vals[:3]}}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&in); err != nil {
		t.Fatal(err)
	}
	var out carrier
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Name != in.Name || out.Min != in.Min || out.Max != in.Max || out.Zero != Null {
		t.Errorf("struct fields: %#v", out)
	}
	same := func(what string, a, b Row) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: %d values came back as %d", what, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] { // struct equality: FLOAT by its bits, DATETIME by (seconds, nanoseconds)
				t.Errorf("%s[%d]: %#v came back as %#v", what, i, a[i], b[i])
			}
		}
	}
	same("Hi", in.Hi, out.Hi)
	if len(out.Rows) != len(in.Rows) {
		t.Fatalf("%d rows came back as %d", len(in.Rows), len(out.Rows))
	}
	for i := range in.Rows {
		same("Rows", in.Rows[i], out.Rows[i])
	}
	if out.Hi[1].K != KindString || !out.Hi[0].IsNull() {
		t.Error("'' and NULL must stay distinct")
	}

	// Trailing or malformed bytes are an error, not a silently wrong value.
	var v Value
	if err := v.GobDecode([]byte{byte(KindInt), 2, 0}); err == nil {
		t.Error("trailing byte accepted")
	}
	if err := v.GobDecode([]byte{byte(KindFloat), 1}); err == nil {
		t.Error("truncated FLOAT accepted")
	}
}
