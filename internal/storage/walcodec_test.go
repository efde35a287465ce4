package storage

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"
	"weak"

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
		payload := appendCommitRecord(nil, rec)
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
		if again := appendCommitRecord(nil, got); string(again) != string(payload) {
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
		if !types.Identical(a[i], b[i]) { // FLOAT by its bits, DATETIME by its instant
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
		payload := appendCommitRecord(nil, rec)
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

// BenchmarkEncodeCommitRecord encodes one record into a reused buffer, as the
// commit path encodes into the WAL's batch buffer.
func BenchmarkEncodeCommitRecord(b *testing.B) {
	rec := &CommitRecord{
		LSN: 12345, TxnID: 7, CommitTime: time.Unix(0, 1054166400000000000).UTC(),
		Changes: []ChangeRec{{
			Table: "t", Op: OpInsert,
			After: types.Row{types.NewInt(99), types.NewString("payload-for-one-commit-record")},
		}},
	}
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = appendCommitRecord(buf[:0], rec)
	}
}

// decodedChanges encodes changes and decodes them as a frame of one change
// list is: its Before rows sized by SizeChanges first. It returns the frame
// too, whose bytes the caller may overwrite.
func decodedChanges(t *testing.T, changes []ChangeRec) ([]ChangeRec, []byte) {
	t.Helper()
	frame := AppendChanges(nil, changes)
	d := &types.Decoder{Buf: frame}
	probe := *d
	d.ReserveShared(SizeChanges(&probe))
	got := DecodeChanges(d, func(b []byte) string { return string(b) })
	if d.Err != nil || d.Remaining() != 0 {
		t.Fatalf("decode: %v, %d bytes left", d.Err, d.Remaining())
	}
	return got, frame
}

// itemChanges is a transaction of two updates and an insert with strings of
// every length (none short enough for the allocator to pack two into one
// block), NULLs and an empty row, as a pull carries them.
func itemChanges() []ChangeRec {
	row := func(id int64, title string) types.Row {
		return types.Row{types.NewInt(id), types.NewString(title), types.Null,
			types.NewString("a publisher of some length"), types.NewFloat(2.5), types.NewString("")}
	}
	return []ChangeRec{
		{Table: "cv_item", Op: OpUpdate, Before: row(1, "the first title, before the update"), After: row(1, "the first title, after the update")},
		{Table: "cv_item", Op: OpUpdate, Before: row(2, "the second title, before the update"), After: row(2, "the second title, after the update")},
		{Table: "cv_order_line", Op: OpInsert, After: types.Row{types.NewInt(7), types.NewInt(1)}},
		{Table: "empty", Op: OpInsert, After: types.Row{}},
	}
}

// TestDecodedChangesOutliveTheirFrame: nothing DecodeChanges returns aliases
// the frame, so overwriting every byte of it changes no row.
func TestDecodedChangesOutliveTheirFrame(t *testing.T) {
	want := itemChanges()
	got, frame := decodedChanges(t, want)
	for i := range frame {
		frame[i] = 0xff
	}
	for i := range want {
		if got[i].Table != want[i].Table || got[i].Op != want[i].Op ||
			!rowsEqualBits(got[i].Before, want[i].Before) || !rowsEqualBits(got[i].After, want[i].After) {
			t.Fatalf("change %d after the frame was overwritten: %+v, want %+v", i, got[i], want[i])
		}
	}
	if got[3].After == nil {
		t.Fatal("an empty After row decoded as an absent one")
	}
}

// TestDecodedAfterRowsPinOnlyThemselves: an After row, which the store keeps,
// shares no array with another row: appending to one leaves the others as
// they were, and a kept After row keeps neither the other rows' values and
// strings nor the frame's shared Before arrays reachable.
func TestDecodedAfterRowsPinOnlyThemselves(t *testing.T) {
	got, _ := decodedChanges(t, itemChanges())
	a, b := got[0].After, got[1].After
	want := slices.Clone(b)
	a = append(a, types.NewString("appended"))
	a[0] = types.NewInt(99)
	if !rowsEqualBits(b, want) {
		t.Fatalf("appending to one After row changed another: %v", b)
	}

	kept, others := keepOneAfterRow(t)
	runtime.GC()
	runtime.GC()
	for name, w := range others {
		if w.Value() != nil {
			t.Errorf("a kept After row keeps %s reachable", name)
		}
	}
	if kept[1].Str() != "the first title, after the update" {
		t.Fatalf("the kept row changed: %v", kept)
	}
	runtime.KeepAlive(kept)
}

// keepOneAfterRow decodes itemChanges and returns the first After row, and
// weak pointers to the arrays of everything else: the second After row's
// values and string, and the Before rows' shared value array and string.
func keepOneAfterRow(t *testing.T) (types.Row, map[string]weak.Pointer[byte]) {
	got, _ := decodedChanges(t, itemChanges())
	others := map[string]weak.Pointer[byte]{
		"another After row's values": weakBytes(unsafe.Pointer(&got[1].After[0])),
		"another After row's string": weakBytes(unsafe.Pointer(unsafe.StringData(got[1].After[1].Str()))),
		"the Before rows' values":    weakBytes(unsafe.Pointer(&got[0].Before[0])),
		"the Before rows' string":    weakBytes(unsafe.Pointer(unsafe.StringData(got[0].Before[1].Str()))),
	}
	return got[0].After, others
}

func weakBytes(p unsafe.Pointer) weak.Pointer[byte] { return weak.Make((*byte)(p)) }
