package types

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
	"time"
)

// referenceHash is Value.Hash as it was written over hash/fnv before the loop
// was inlined. Hash-join and aggregate bucket assignment and the Exchange's
// hash partitioning depend on these exact bits.
func referenceHash(v Value) uint64 {
	h := fnv.New64a()
	switch v.K {
	case KindNull:
		h.Write([]byte{0})
	case KindBool, KindInt, KindFloat:
		bits := math.Float64bits(v.Float())
		var buf [9]byte
		buf[0] = 1
		for i := 0; i < 8; i++ {
			buf[i+1] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	case KindString:
		h.Write([]byte{2})
		h.Write([]byte(v.S))
	case KindTime:
		var buf [13]byte
		buf[0] = 3
		binary.LittleEndian.PutUint64(buf[1:], uint64(v.w))
		binary.LittleEndian.PutUint32(buf[9:], v.nsec)
		h.Write(buf[:])
	}
	return h.Sum64()
}

func TestHashMatchesReference(t *testing.T) {
	values := []Value{
		Null,
		NewBool(false), NewBool(true),
		NewInt(0), NewInt(1), NewInt(-1), NewInt(42), NewInt(1 << 40), NewInt(math.MaxInt64), NewInt(math.MinInt64),
		NewFloat(0), NewFloat(math.Copysign(0, -1)), NewFloat(1), NewFloat(-2.5), NewFloat(1e300),
		NewFloat(math.Inf(1)), NewFloat(math.NaN()), NewFloat(math.SmallestNonzeroFloat64),
		NewString(""), NewString("a"), NewString("ARTS"), NewString("\x00"), NewString("héllo, wörld"),
		NewString(string(make([]byte, 300))), NewString("the quick brown fox jumps over the lazy dog"),
		NewTime(time.Unix(0, 0)), NewTime(time.Unix(1, 1)), NewTime(time.Unix(-1, 999999999)),
		NewTime(time.Date(1, 1, 1, 0, 0, 0, 0, time.UTC)), NewTime(time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC)),
		NewTime(time.Date(2024, 2, 29, 23, 59, 59, 123000000, time.UTC)),
		{K: Kind(200)}, // no such kind: the bare offset basis
	}
	perKind := map[Kind]int{}
	for _, v := range values {
		perKind[v.K]++
		if got, want := v.Hash(), referenceHash(v); got != want {
			t.Errorf("%v (kind %v): Hash %#x, the reference %#x", v, v.K, got, want)
		}
	}
	if len(values) < 20 {
		t.Fatalf("only %d values", len(values))
	}
	for k := KindNull; k <= KindTime; k++ {
		if perKind[k] == 0 {
			t.Errorf("no value of kind %v", k)
		}
	}
	// Equal numerics of different kinds still share a bucket.
	if NewInt(1).Hash() != NewFloat(1).Hash() || NewBool(true).Hash() != NewInt(1).Hash() {
		t.Error("numeric kinds that compare equal must hash equal")
	}
}

func TestHashAllocatesNothing(t *testing.T) {
	v := NewString("the quick brown fox jumps over the lazy dog")
	row := Row{NewInt(7), v, NewTime(time.Unix(5, 5)), Null}
	var sink uint64
	if allocs := testing.AllocsPerRun(100, func() { sink += v.Hash() + row.Hash() }); allocs != 0 {
		t.Errorf("hashing a string value and a row allocates %v times", allocs)
	}
	_ = sink
}
