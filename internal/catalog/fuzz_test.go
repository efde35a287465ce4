package catalog

import (
	"bytes"
	"math"
	"runtime"
	"testing"
	"time"

	"mtcache/internal/types"
)

// FuzzDecodeSnapshot: a snapshot arrives from the network, so no input may
// panic the decoder or make a corrupt count size an allocation, and whatever
// decodes re-encodes to the bytes it came from.
func FuzzDecodeSnapshot(f *testing.F) {
	c := New()
	tbl := sampleTable()
	tbl.Stats.Store(BuildTableStats([]string{"cid", "cname", "cbalance"}, []types.Row{
		{types.NewInt(1), types.NewString("a"), types.NewFloat(1.5)},
		{types.NewInt(2), types.NewString("b"), types.NewFloat(2.5)},
		{types.NewInt(3), types.Null, types.NewFloat(math.Float64frombits(0x7ff8_0000_dead_beef))},
	}))
	c.AddTable(tbl)
	m := &Table{Name: "m", Columns: []Column{{Name: "id", Type: types.KindInt}, {Name: "ts", Type: types.KindTime}}}
	m.Stats.Store(BuildTableStats([]string{"id", "ts"}, []types.Row{
		{types.NewInt(0), types.NewTime(time.Date(1, 1, 1, 0, 0, 0, 1, time.UTC))},
		{types.NewInt(1), types.NewTime(time.Date(2024, 2, 29, 23, 59, 59, 123_000_000, time.UTC))},
		{types.NewInt(2), types.NewTime(time.Date(9999, 12, 31, 23, 59, 59, 999_999_999, time.UTC))},
	}))
	c.AddTable(m)
	c.AddProcedure(&Procedure{Name: "p1", Text: "CREATE PROCEDURE p1 AS SELECT cid FROM customer"})
	for _, snap := range []*Snapshot{{}, ExportSnapshot(New()), ExportSnapshot(c)} {
		b := snap.Encode()
		f.Add(b)
		f.Add(b[:len(b)/2])
		f.Add(b[:len(b)-1])
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// The largest in-memory element per snapshot byte is a 48-byte bucket
		// behind its 3 bytes, or a map entry behind its key's length byte.
		budget := uint64(64<<10 + 512*len(data))
		before := totalAlloc()
		snap, err := DecodeSnapshot(data)
		if grew := totalAlloc() - before; grew > budget {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		if again := snap.Encode(); !bytes.Equal(again, data) {
			t.Fatalf("decoded snapshot re-encodes to other bytes:\n in %x\nout %x", data, again)
		}
	})
}

// totalAlloc reads the cumulative heap bytes allocated.
func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}
