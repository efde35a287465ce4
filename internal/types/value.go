// Package types defines the SQL value model shared by every layer of the
// engine: the storage manager stores rows of Values, the executor evaluates
// expressions over them, the optimizer's statistics summarize them, and the
// wire protocol serializes them.
//
// There is one Value layout (value.go, 32 bytes) and one encoding of it
// (codec.go): the WAL, the wire and — through GobEncode — every gob carrier
// write the same bytes, so changing the struct changes no file and no frame.
package types

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates the SQL data types supported by the engine.
type Kind uint8

const (
	KindNull Kind = iota
	KindBool
	KindInt    // 64-bit signed integer (covers INT, BIGINT, SMALLINT)
	KindFloat  // 64-bit float (covers FLOAT, REAL, NUMERIC in this engine)
	KindString // variable-length string (covers CHAR, VARCHAR, TEXT)
	KindTime   // timestamp (covers DATE, DATETIME)
)

// String returns the SQL name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindBool:
		return "BOOL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "VARCHAR"
	case KindTime:
		return "DATETIME"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// ParseKind maps a SQL type name to a Kind. Unknown names report an error.
func ParseKind(name string) (Kind, error) {
	switch strings.ToUpper(name) {
	case "BOOL", "BOOLEAN", "BIT":
		return KindBool, nil
	case "INT", "INTEGER", "BIGINT", "SMALLINT", "TINYINT":
		return KindInt, nil
	case "FLOAT", "REAL", "DOUBLE", "NUMERIC", "DECIMAL", "MONEY":
		return KindFloat, nil
	case "VARCHAR", "CHAR", "TEXT", "NVARCHAR", "NCHAR", "STRING":
		return KindString, nil
	case "DATE", "DATETIME", "TIMESTAMP", "TIME":
		return KindTime, nil
	}
	return KindNull, fmt.Errorf("unknown type %q", name)
}

// Value is a single SQL value. The zero Value is SQL NULL.
//
// Value is a small tagged struct rather than an interface so that rows can be
// stored as flat []Value slices with no per-value heap allocation. It is 32
// bytes (pinned by TestValueLayout): the kind, one 8-byte payload word, a
// nanosecond field in what would otherwise be padding, and the string. The
// word holds a BOOL or INT as is, a FLOAT as its IEEE bits and a DATETIME as
// unix seconds; it is unexported so that no kind's payload can be read as
// another's, and every reader goes through the accessors below (all of them
// inline).
//
// A DATETIME value is its instant: (unix seconds, nanoseconds), no zone and
// no monotonic reading. Time() returns it in UTC; Compare, Hash and the codec
// read the pair, so every instant time.Time can hold orders, hashes and
// round-trips exactly.
//
// encoding/gob reaches a Value through GobEncode/GobDecode (codec.go), never
// by reflection over these fields.
type Value struct {
	K    Kind
	nsec uint32 // KindTime: nanoseconds within the second
	w    int64  // KindBool (0/1), KindInt, KindFloat (IEEE bits), KindTime (unix seconds)
	S    string // KindString payload
}

// Null is the SQL NULL value.
var Null = Value{}

// NewBool returns a BOOL value.
func NewBool(b bool) Value {
	v := Value{K: KindBool}
	if b {
		v.w = 1
	}
	return v
}

// NewInt returns an INT value.
func NewInt(i int64) Value { return Value{K: KindInt, w: i} }

// NewFloat returns a FLOAT value.
func NewFloat(f float64) Value { return Value{K: KindFloat, w: int64(math.Float64bits(f))} }

// NewString returns a VARCHAR value.
func NewString(s string) Value { return Value{K: KindString, S: s} }

// NewTime returns a DATETIME value: t's instant, without its zone.
func NewTime(t time.Time) Value {
	return Value{K: KindTime, w: t.Unix(), nsec: uint32(t.Nanosecond())}
}

// IsNull reports whether v is SQL NULL.
func (v Value) IsNull() bool { return v.K == KindNull }

// Bool returns the boolean payload. It is only meaningful for KindBool.
func (v Value) Bool() bool { return v.w != 0 }

// Int returns the integer payload, converting from FLOAT and BOOL.
func (v Value) Int() int64 {
	if v.K == KindFloat {
		return int64(v.float())
	}
	return v.w
}

// Float returns the float payload, converting from INT and BOOL.
func (v Value) Float() float64 {
	if v.K == KindFloat {
		return v.float()
	}
	return float64(v.w)
}

// float reads the payload word of a KindFloat value.
func (v Value) float() float64 { return math.Float64frombits(uint64(v.w)) }

// Str returns the string payload. It is only meaningful for KindString.
func (v Value) Str() string { return v.S }

// Time returns the instant of a KindTime value, in UTC.
func (v Value) Time() time.Time { return time.Unix(v.w, int64(v.nsec)).UTC() }

// numericKinds reports whether both kinds are numeric (INT/FLOAT/BOOL).
func numericKinds(a, b Kind) bool {
	n := func(k Kind) bool { return k == KindInt || k == KindFloat || k == KindBool }
	return n(a) && n(b)
}

// Compare orders two values. NULL sorts before every non-NULL value (this
// matters for index ordering; three-valued comparison semantics are handled
// by the expression evaluator, which checks IsNull before comparing).
// Cross-kind numeric comparisons are performed in float64.
// Comparing incomparable kinds (e.g. INT vs VARCHAR) orders by kind, which
// keeps Compare a total order for sorting.
func Compare(a, b Value) int {
	if a.K == KindNull || b.K == KindNull {
		switch {
		case a.K == b.K:
			return 0
		case a.K == KindNull:
			return -1
		default:
			return 1
		}
	}
	if a.K != b.K {
		if numericKinds(a.K, b.K) {
			return cmpFloat(a.Float(), b.Float())
		}
		return int(a.K) - int(b.K)
	}
	switch a.K {
	case KindBool, KindInt:
		return cmpInt(a.w, b.w)
	case KindFloat:
		return cmpFloat(a.float(), b.float())
	case KindString:
		return strings.Compare(a.S, b.S)
	case KindTime:
		if a.w != b.w {
			return cmpInt(a.w, b.w)
		}
		return cmpInt(int64(a.nsec), int64(b.nsec))
	}
	return 0
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// Equal reports whether two values compare equal under Compare.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// FNV-1a, 64 bit.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Hash returns a stable hash of v, used by hash joins and hash aggregation.
// Values that compare equal hash equal (numeric kinds hash via float64). It
// is FNV-1a over a kind tag followed by the payload bytes, little-endian,
// written out as a loop so that hashing allocates nothing.
func (v Value) Hash() uint64 {
	h := uint64(fnvOffset64)
	switch v.K {
	case KindNull:
		h = (h ^ 0) * fnvPrime64
	case KindBool, KindInt, KindFloat:
		h = (h ^ 1) * fnvPrime64
		bits := math.Float64bits(v.Float())
		for i := 0; i < 8; i++ {
			h = (h ^ uint64(byte(bits>>(8*i)))) * fnvPrime64
		}
	case KindString:
		h = (h ^ 2) * fnvPrime64
		for i := 0; i < len(v.S); i++ {
			h = (h ^ uint64(v.S[i])) * fnvPrime64
		}
	case KindTime:
		h = (h ^ 3) * fnvPrime64
		for i := 0; i < 8; i++ {
			h = (h ^ uint64(byte(uint64(v.w)>>(8*i)))) * fnvPrime64
		}
		for i := 0; i < 4; i++ {
			h = (h ^ uint64(byte(v.nsec>>(8*i)))) * fnvPrime64
		}
	}
	return h
}

// String renders the value for display and for shipping literals inside
// remote SQL text (strings are quoted with ” doubling).
func (v Value) String() string {
	switch v.K {
	case KindNull:
		return "NULL"
	case KindBool:
		if v.w != 0 {
			return "TRUE"
		}
		return "FALSE"
	case KindInt:
		return strconv.FormatInt(v.w, 10)
	case KindFloat:
		return strconv.FormatFloat(v.float(), 'g', -1, 64)
	case KindString:
		return "'" + strings.ReplaceAll(v.S, "'", "''") + "'"
	case KindTime:
		return "'" + v.Time().Format("2006-01-02 15:04:05.000") + "'"
	}
	return "?"
}

// Display renders the value for result grids (strings unquoted).
func (v Value) Display() string {
	if v.K == KindString {
		return v.S
	}
	return v.String()
}

// Cast converts v to kind k following SQL-ish coercion rules. Casting NULL
// yields NULL of any kind. Failed string parses report an error.
func (v Value) Cast(k Kind) (Value, error) {
	if v.K == KindNull || v.K == k {
		if v.K == KindNull {
			return Null, nil
		}
		return v, nil
	}
	switch k {
	case KindBool:
		switch v.K {
		case KindInt, KindFloat:
			return NewBool(v.Float() != 0), nil
		}
	case KindInt:
		switch v.K {
		case KindBool:
			return NewInt(v.w), nil
		case KindFloat:
			return NewInt(int64(v.float())), nil
		case KindString:
			i, err := strconv.ParseInt(strings.TrimSpace(v.S), 10, 64)
			if err != nil {
				return Null, fmt.Errorf("cannot cast %q to INT", v.S)
			}
			return NewInt(i), nil
		}
	case KindFloat:
		switch v.K {
		case KindBool, KindInt:
			return NewFloat(v.Float()), nil
		case KindString:
			f, err := strconv.ParseFloat(strings.TrimSpace(v.S), 64)
			if err != nil {
				return Null, fmt.Errorf("cannot cast %q to FLOAT", v.S)
			}
			return NewFloat(f), nil
		}
	case KindString:
		return NewString(v.Display()), nil
	case KindTime:
		if v.K == KindString {
			for _, layout := range []string{
				"2006-01-02 15:04:05.000", "2006-01-02 15:04:05", "2006-01-02",
				time.RFC3339Nano, time.RFC3339,
			} {
				if t, err := time.Parse(layout, v.S); err == nil {
					return NewTime(t), nil
				}
			}
			return Null, fmt.Errorf("cannot cast %q to DATETIME", v.S)
		}
		if v.K == KindInt {
			return NewTime(time.Unix(0, v.w)), nil
		}
	}
	return Null, fmt.Errorf("cannot cast %s to %s", v.K, k)
}

// Row is a tuple of values.
type Row []Value

// Clone returns a deep-enough copy of the row (Values are value types).
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Hash returns a stable hash of the row.
func (r Row) Hash() uint64 {
	h := uint64(fnvOffset64)
	for _, v := range r {
		h ^= v.Hash()
		h *= fnvPrime64
	}
	return h
}

// RowsEqual reports element-wise equality of two rows.
func RowsEqual(a, b Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// CompareRows orders rows lexicographically.
func CompareRows(a, b Row) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	return len(a) - len(b)
}
