package storage

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"mtcache/internal/types"
)

func randomValue(r *rand.Rand) types.Value {
	switch r.Intn(6) {
	case 0:
		return types.Null
	case 1:
		return types.NewBool(r.Intn(2) == 1)
	case 2:
		return types.NewInt(r.Int63() - r.Int63())
	case 3:
		return types.NewFloat(math.Float64frombits(r.Uint64()))
	case 4:
		b := make([]byte, r.Intn(40))
		r.Read(b)
		return types.NewString(string(b))
	default:
		return types.NewTime(time.Unix(0, r.Int63()-r.Int63()).UTC())
	}
}

func randomRow(r *rand.Rand) types.Row {
	if r.Intn(4) == 0 {
		return nil
	}
	row := make(types.Row, r.Intn(8))
	for i := range row {
		row[i] = randomValue(r)
	}
	return row
}

// TestCodecRoundTrip checks that randomized commit records survive
// encode/decode byte-for-byte, including NaN floats, empty strings, nil
// rows, zero-change records, zero-length rows and DDL records.
func TestCodecRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(20030609))
	for i := 0; i < 500; i++ {
		rec := &CommitRecord{
			LSN:        LSN(r.Uint64() >> 1),
			TxnID:      r.Int63() - r.Int63(),
			CommitTime: time.Unix(0, r.Int63()).UTC(),
			Changes:    make([]ChangeRec, r.Intn(5)),
		}
		if r.Intn(4) == 0 { // a DDL record: the statement's text, no changes
			rec.DDL, rec.Changes = ddlTexts[r.Intn(len(ddlTexts))], nil
		}
		for c := range rec.Changes {
			rec.Changes[c] = ChangeRec{
				Table:  string(rune('a' + r.Intn(26))),
				Op:     ChangeOp(r.Intn(3)),
				Before: randomRow(r),
				After:  randomRow(r),
			}
		}
		payload, err := encodeCommitRecord(rec)
		if err != nil {
			t.Fatalf("encode #%d: %v", i, err)
		}
		got, err := decodeCommitRecord(payload)
		if err != nil {
			t.Fatalf("decode #%d: %v", i, err)
		}
		if rec.Changes == nil {
			rec.Changes = []ChangeRec{}
		}
		if !recordsEqual(rec, got) {
			t.Fatalf("round trip #%d:\n in: %+v\nout: %+v", i, rec, got)
		}
		if again, _ := encodeCommitRecord(got); string(again) != string(payload) {
			t.Fatalf("round trip #%d re-encodes to other bytes", i)
		}
	}
}

// ddlTexts are DDL records as the engine logs them: one statement's text.
var ddlTexts = []string{
	"CREATE TABLE note (id INT PRIMARY KEY, v VARCHAR DEFAULT 'x')",
	"CREATE UNIQUE INDEX note_v ON note (v)",
	"CREATE MATERIALIZED VIEW mv AS SELECT id, v FROM note WHERE id > 3",
	"CREATE PROCEDURE bump @id INT AS BEGIN UPDATE note SET v = 'y' WHERE id = @id; END",
	"DROP TABLE note",
	"",
}

// recordsEqual compares records treating NaN floats as equal to themselves.
func recordsEqual(a, b *CommitRecord) bool {
	if a.LSN != b.LSN || a.TxnID != b.TxnID || !a.CommitTime.Equal(b.CommitTime) || a.DDL != b.DDL || len(a.Changes) != len(b.Changes) {
		return false
	}
	for i := range a.Changes {
		ca, cb := &a.Changes[i], &b.Changes[i]
		if ca.Table != cb.Table || ca.Op != cb.Op ||
			!rowsEqualBits(ca.Before, cb.Before) || !rowsEqualBits(ca.After, cb.After) {
			return false
		}
	}
	return true
}

func rowsEqualBits(a, b types.Row) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] { // struct equality: FLOAT by its bits, DATETIME by its instant
			return false
		}
	}
	return true
}

// TestCodecRejectsTruncation checks that every proper prefix of a valid
// payload, a record of changes or of DDL, fails to decode rather than
// yielding a wrong record.
func TestCodecRejectsTruncation(t *testing.T) {
	for _, rec := range codecSeeds {
		payload, err := encodeCommitRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(payload); cut++ {
			if _, err := decodeCommitRecord(payload[:cut]); err == nil {
				t.Fatalf("prefix of %d/%d bytes decoded without error", cut, len(payload))
			}
		}
		if _, err := decodeCommitRecord(append(append([]byte{}, payload...), 0)); err == nil {
			t.Fatal("payload with a trailing byte decoded without error")
		}
	}
}

// codecSeeds are a record of changes and a DDL record.
var codecSeeds = []*CommitRecord{{
	LSN: 42, TxnID: 7, CommitTime: time.Unix(0, 1054166400000000000).UTC(),
	Changes: []ChangeRec{{
		Table: "item", Op: OpUpdate,
		Before: types.Row{types.NewInt(1), types.NewString("before")},
		After:  types.Row{types.NewInt(1), types.NewString("after")},
	}},
}, {
	LSN: 43, TxnID: 8, CommitTime: time.Unix(0, 1054166400000000001).UTC(),
	DDL: "CREATE TABLE note (id INT PRIMARY KEY, v INT)",
}}

func BenchmarkEncodeCommitRecord(b *testing.B) {
	rec := &CommitRecord{
		LSN: 12345, TxnID: 7, CommitTime: time.Unix(0, 1054166400000000000).UTC(),
		Changes: []ChangeRec{{
			Table: "t", Op: OpInsert,
			After: types.Row{types.NewInt(99), types.NewString("payload-for-one-commit-record")},
		}},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := encodeCommitRecord(rec); err != nil {
			b.Fatal(err)
		}
	}
}
