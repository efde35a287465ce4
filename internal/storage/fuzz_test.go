package storage

import (
	"bytes"
	"runtime"
	"testing"

	"mtcache/internal/types"
)

// FuzzDecodeImage: an image payload from disk never panics the decoder, no
// corrupt count sizes an allocation, and whatever decodes re-encodes to the
// bytes it came from.
func FuzzDecodeImage(f *testing.F) {
	for _, img := range []*Image{
		{},
		{LSN: 42, Sets: []RowSet{{Name: "vals", Rows: exactValueRows()}}},
		{LSN: 7, Script: "CREATE TABLE vals (a INT PRIMARY KEY, b VARCHAR);\nCREATE PROCEDURE p @a INT AS BEGIN DELETE FROM vals WHERE a = @a; END;\n",
			Sets: []RowSet{{Name: "vals", Rows: []types.Row{{types.NewInt(1), types.NewString("x")}}}}},
		{LSN: 1 << 40, Sets: []RowSet{
			{Name: "t", Rows: []types.Row{{types.NewInt(1), types.NewString("pre")}, {types.NewInt(2), types.NewString("post")}}},
			{Name: "empty"},
			{Name: "ev", Rows: []types.Row{{}, {types.Null}}},
		}},
	} {
		b := appendImage(nil, img)
		f.Add(b)
		f.Add(b[:len(b)/2])
		f.Add(b[:len(b)-1])
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// The largest in-memory element per payload byte is a 24-byte Value
		// behind a 1-byte NULL, next to its share of a 24-byte row header.
		budget := uint64(64<<10 + 512*len(data))
		before := totalAlloc()
		img, err := decodeImage(data)
		if grew := totalAlloc() - before; grew > budget {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		if again := appendImage(nil, img); !bytes.Equal(again, data) {
			t.Fatalf("decoded image re-encodes to other bytes:\n in %x\nout %x", data, again)
		}
	})
}

// FuzzDecodeCommitRecord: a WAL frame's payload never panics the decoder, no
// corrupt count sizes an allocation, and whatever decodes, a record of
// changes or of DDL, re-encodes to the bytes it came from.
func FuzzDecodeCommitRecord(f *testing.F) {
	for _, rec := range codecSeeds {
		b := appendCommitRecord(nil, rec)
		f.Add(b)
		f.Add(b[:len(b)/2])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		budget := uint64(64<<10 + 512*len(data))
		before := totalAlloc()
		rec, err := decodeCommitRecord(data)
		if grew := totalAlloc() - before; grew > budget {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		if again := appendCommitRecord(nil, rec); !bytes.Equal(again, data) {
			t.Fatalf("decoded record re-encodes to other bytes:\n in %x\nout %x", data, again)
		}
	})
}

// totalAlloc reads the cumulative heap bytes allocated.
func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}
