package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"mtcache/internal/exec"
	"mtcache/internal/repl"
	"mtcache/internal/resilience"
	"mtcache/internal/storage"
	"mtcache/internal/trace"
	"mtcache/internal/types"
)

// pdt is a non-UTC zone: times travel as instants and come back in UTC.
var pdt = time.FixedZone("PDT", -7*3600)

// sampleRow holds every value kind, NULL, an empty string, a zoned time and
// a time outside UnixNano's range (a DATETIME column holding '0001-01-01').
var sampleRow = types.Row{
	types.Null, types.NewBool(true), types.NewInt(-42), types.NewFloat(math.NaN()),
	types.NewString(""), types.NewString("O'Reilly ✓"),
	types.NewTime(time.Date(2003, 6, 9, 12, 30, 0, 123456789, pdt)),
	types.NewTime(time.Date(1, 1, 1, 0, 0, 0, 0, time.UTC)),
}

// sampleRequests is one request of every kind, plus the shapes that collapse.
func sampleRequests() map[string]*request {
	return map[string]*request{
		"query": {Kind: reqQuery, ID: 7, SQL: "SELECT name FROM part WHERE id = @id AND d < @d",
			Params: map[string]types.Value{"id": types.NewInt(7), "d": sampleRow[6], "n": types.Null, "s": types.NewString("")}},
		"query bare":       {Kind: reqQuery, ID: 1, SQL: "SELECT COUNT(*) FROM part"},
		"query empty map":  {Kind: reqQuery, ID: 2, SQL: "SELECT 1", Params: map[string]types.Value{}},
		"query session":    {Kind: reqQuery, ID: 1 << 40, SQL: "SELECT 1", MinLSN: 99, WaitMs: 250, TraceID: 0x0123456789ab0001},
		"query write":      {Kind: reqQuery, ID: 3, SQL: "UPDATE part SET qty = 0 WHERE id = 7", TraceID: 1<<63 | 2, WaitMs: -1},
		"snapshot":         {Kind: reqSnapshot, ID: 4},
		"provision":        {Kind: reqProvision, ID: 6, Table: "part", Columns: []string{"id", "", "name"}, Filter: "(part.qty > 10)", SubName: "cache1.cv_part"},
		"provision no col": {Kind: reqProvision, ID: 8, Table: "part", Columns: []string{}, SubName: "s"},
		"provision from":   {Kind: reqProvision, ID: 9, Table: "part", Columns: []string{"id"}, SubName: "s", Target: "v", FromLSN: 1234567},
		"provision log":    {Kind: reqProvision, ID: 21, Table: "part", SubName: "s", Target: "v", AppliedID: 0xfedcba9876543210, FromLSN: 72},
		"pull":             {Kind: reqPull, ID: 10, SubID: 3, Max: 100, AckLSN: 42},
		"pull negative":    {Kind: reqPull, ID: 11, SubID: -1, Max: -5},
	}
}

// sampleResponses is one response of every kind, plus the shapes that
// collapse and the header-only ones (stale, error).
func sampleResponses() map[string]*response {
	cols := []exec.ColInfo{{Table: "part", Name: "id", Kind: types.KindInt}, {Name: "expr", Kind: types.KindString}}
	return map[string]*response{
		"query": {Kind: reqQuery, ID: 7, Cols: cols,
			Rows: []types.Row{sampleRow, {}, sampleRow[:2]}},
		"query no rows":  {Kind: reqQuery, ID: 9, Cols: cols, Rows: []types.Row{}},
		"query no cols":  {Kind: reqQuery, ID: 10, Cols: []exec.ColInfo{}, Rows: []types.Row{{types.NewString("bare")}}},
		"query 0-column": {Kind: reqQuery, ID: 11, Rows: []types.Row{{}, {}}},
		"stale":          {Kind: reqQuery, ID: 12, Stale: true},
		"error":          {Kind: reqQuery, ID: 13, Err: "engine: table missing does not exist"},
		"query write":    {Kind: reqQuery, ID: 14, N: 3, LSN: 1 << 50},
		"snapshot":       {Kind: reqSnapshot, ID: 15, Snapshot: []byte{0, 1, 2, 0xff}},
		"snapshot empty": {Kind: reqSnapshot, ID: 16, Snapshot: []byte{}},
		"provision":      {Kind: reqProvision, ID: 17, SubID: 2, StartLSN: 77, Rows: []types.Row{sampleRow, nil, {}}},
		"resumed":        {Kind: reqProvision, ID: 18, SubID: 3, StartLSN: 1234567, Resumed: true},
		"provision history": {Kind: reqProvision, ID: 21, SubID: 4, StartLSN: 72, Rows: []types.Row{sampleRow},
			History: storage.History{{First: 0, ID: 0xfedcba9876543210}, {First: 40, ID: 1}, {First: 1 << 40, ID: 1 << 63}}},
		"resumed history": {Kind: reqProvision, ID: 22, SubID: 4, StartLSN: 72, Resumed: true, History: storage.History{{First: 71, ID: 1}}},
		"pull": {Kind: reqPull, ID: 19, ThroughLSN: 90, Batches: []repl.TxnBatch{
			{LSN: 80, CommitTime: time.Date(2003, 6, 9, 0, 0, 0, 0, pdt), Changes: []storage.ChangeRec{
				{Table: "part", Op: storage.OpInsert, After: sampleRow},
				{Table: "part", Op: storage.OpDelete, Before: sampleRow},
				{Table: "other", Op: storage.OpUpdate, Before: types.Row{types.NewInt(1)}, After: types.Row{types.NewInt(2)}},
			}},
			{LSN: 81, CommitTime: time.Unix(0, 0)},
		}},
		"pull empty": {Kind: reqPull, ID: 20, ThroughLSN: 91, Batches: []repl.TxnBatch{}},
		// Since v13 an update that keeps its row's key carries no Before
		// row; a delete and an update that changes the key carry it whole.
		"pull Before-less update": {Kind: reqPull, ID: 23, ThroughLSN: 96, Batches: []repl.TxnBatch{
			{LSN: 94, CommitTime: time.Date(2003, 6, 9, 0, 0, 1, 0, pdt), Changes: []storage.ChangeRec{
				{Table: "part", Op: storage.OpDelete, Before: types.Row{types.NewInt(4), types.NewString("k4")}},
				{Table: "part", Op: storage.OpUpdate, After: sampleRow},
				{Table: "line", Op: storage.OpUpdate, Before: types.Row{types.NewInt(7), types.NewString("k7"), types.NewFloat(2.5)},
					After: types.Row{types.NewInt(8), types.NewString("k8"), types.NewFloat(2.5)}},
			}},
			{LSN: 96, CommitTime: time.Unix(0, 1), Changes: []storage.ChangeRec{
				{Table: "part", Op: storage.OpUpdate, After: types.Row{types.NewInt(5), types.Null}},
			}},
		}},
	}
}

func sameRow(a, b types.Row) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if !types.Identical(a[i], b[i]) {
			return false
		}
	}
	return true
}

func sameRows(a, b []types.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameRow(a[i], b[i]) {
			return false
		}
	}
	return true
}

// sameRequest compares field by field, an empty slice or map equal to an
// absent one (the codec collapses them; TestFrameRoundTrip pins to which).
func sameRequest(a, b *request) bool {
	if len(a.Params) != len(b.Params) || len(a.Columns) != len(b.Columns) {
		return false
	}
	for k, v := range a.Params {
		if w, ok := b.Params[k]; !ok || !types.Identical(v, w) {
			return false
		}
	}
	for i := range a.Columns {
		if a.Columns[i] != b.Columns[i] {
			return false
		}
	}
	x, y := *a, *b
	x.Params, y.Params, x.Columns, y.Columns = nil, nil, nil, nil
	return reflect.DeepEqual(x, y)
}

func sameResponse(a, b *response) bool {
	if !sameRows(a.Rows, b.Rows) || !bytes.Equal(a.Snapshot, b.Snapshot) ||
		len(a.Cols) != len(b.Cols) || len(a.Batches) != len(b.Batches) {
		return false
	}
	for i := range a.Cols {
		if a.Cols[i] != b.Cols[i] {
			return false
		}
	}
	for i := range a.Batches {
		x, y := &a.Batches[i], &b.Batches[i]
		if x.LSN != y.LSN || !x.CommitTime.Equal(y.CommitTime) || len(x.Changes) != len(y.Changes) {
			return false
		}
		for j := range x.Changes {
			cx, cy := &x.Changes[j], &y.Changes[j]
			if cx.Table != cy.Table || cx.Op != cy.Op || !sameRow(cx.Before, cy.Before) || !sameRow(cx.After, cy.After) {
				return false
			}
		}
	}
	x, y := *a, *b
	for _, r := range []*response{&x, &y} {
		r.Rows, r.Snapshot, r.Cols, r.Batches = nil, nil, nil, nil
		r.store = exec.Answer{} // the storage a result set was decoded into, not part of the frame
	}
	return reflect.DeepEqual(x, y)
}

// queryFrame hand-builds a Query request that sends the values under the
// names, in order; an encoder, which writes a map, never names one twice.
func queryFrame(names []string, vals []types.Value) []byte {
	buf := []byte{byte(reqQuery)}
	buf = binary.AppendUvarint(buf, 1)             // ID
	buf = binary.AppendUvarint(buf, 0)             // MinLSN
	buf = binary.AppendVarint(buf, 0)              // WaitMs
	buf = binary.LittleEndian.AppendUint64(buf, 0) // TraceID
	buf = types.AppendString(buf, "SELECT name FROM part WHERE id = @a")
	buf = binary.AppendUvarint(buf, uint64(len(names)))
	for i, name := range names {
		buf = types.AppendString(buf, name)
		buf = types.AppendValue(buf, &vals[i])
	}
	return buf
}

// TestRequestNamingAParameterTwiceIsRefused: a request frame that names a
// parameter twice does not decode, into a fresh request or a recycled one. It
// has no one meaning, and it would not survive a second trip: re-encoding the
// map it decoded to gives a shorter frame. The same frame with two names
// decodes.
func TestRequestNamingAParameterTwiceIsRefused(t *testing.T) {
	vals := []types.Value{types.NewInt(1), types.NewInt(2)}
	var ok request
	if err := decodeRequest(queryFrame([]string{"a", "b"}, vals), &ok, interner{}); err != nil || len(ok.Params) != 2 {
		t.Fatalf("two names: %+v, %v", ok, err)
	}
	for _, names := range [][]string{{"a", "a"}, {"", ""}} {
		frame := queryFrame(names, vals)
		for _, into := range []request{{}, recycledRequest()} {
			err := decodeRequest(frame, &into, interner{})
			if want := "@" + names[0] + " is given more than once"; err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("parameter %q named twice: %v, want an error saying %q", names[0], err, want)
			}
		}
	}
}

// TestInternedFrameDecodesAsCold: a server connection decodes query texts
// and parameter names through its intern table. Every sample frame decodes to
// the same request through a cold table and through one every sample warmed,
// into a recycled request, with nothing left aliasing the frame; a repeated
// parameter name is refused with a warm table as with a cold one; and the
// table keeps to its bounds.
func TestInternedFrameDecodesAsCold(t *testing.T) {
	warm := interner{}
	for range 2 {
		for name, req := range sampleRequests() {
			if err := decodeRequest(appendRequest(nil, req), &request{}, warm); err != nil {
				t.Fatalf("request %s: %v", name, err)
			}
		}
	}
	if len(warm) == 0 {
		t.Fatal("the sample queries interned nothing")
	}
	for name, req := range sampleRequests() {
		frame := appendRequest(nil, req)
		var cold request
		if err := decodeRequest(frame, &cold, interner{}); err != nil {
			t.Fatalf("request %s, cold table: %v", name, err)
		}
		got := recycledRequest()
		if err := decodeRequest(frame, &got, warm); err != nil {
			t.Fatalf("request %s, warm table: %v", name, err)
		}
		for i := range frame {
			frame[i] = 0xAA
		}
		if !sameRequest(&cold, &got) || !sameRequest(req, &got) {
			t.Errorf("request %s through a warm table:\n got %+v\nwant %+v", name, got, cold)
		}
	}
	vals := []types.Value{types.NewInt(1), types.NewInt(2)}
	for _, names := range [][]string{{"a", "a"}, {"", ""}} {
		frame := queryFrame(names, vals)
		coldErr := decodeRequest(frame, &request{}, interner{})
		warmErr := decodeRequest(frame, &request{}, warm)
		if coldErr == nil || warmErr == nil || coldErr.Error() != warmErr.Error() {
			t.Errorf("parameter %q named twice: cold %v, warm %v", names[0], coldErr, warmErr)
		}
	}
	long := "SELECT '" + strings.Repeat("x", internLen) + "'"
	for i := 0; i < internEntries+10; i++ {
		text := fmt.Sprintf("SELECT %d", i)
		if i == internEntries/2 {
			text = long
		}
		var got request
		if err := decodeRequest(appendRequest(nil, &request{Kind: reqQuery, SQL: text}), &got, warm); err != nil || got.SQL != text {
			t.Fatalf("%.20q: %q, %v", text, got.SQL, err)
		}
		if len(warm) > internEntries {
			t.Fatalf("%d strings interned, bound %d", len(warm), internEntries)
		}
	}
	if _, ok := warm[long]; ok {
		t.Errorf("a %d-byte text was interned, bound %d", len(long), internLen)
	}
}

// TestFrameRoundTrip: every request and response kind survives
// encode → decode. What collapses, by design and as gob did before: an empty
// slice, map or byte string decodes as nil. What does not: a nil row among
// replication rows stays nil and an empty one stays empty (the WAL's row
// layout tells them apart); a result-set row is never nil.
func TestFrameRoundTrip(t *testing.T) {
	for name, req := range sampleRequests() {
		got := &request{}
		if err := decodeRequest(appendRequest(nil, req), got, interner{}); err != nil {
			t.Errorf("request %s: %v", name, err)
			continue
		}
		if !sameRequest(req, got) {
			t.Errorf("request %s:\n in %+v\nout %+v", name, req, got)
		}
		if (len(req.Params) == 0 && got.Params != nil) || (len(req.Columns) == 0 && got.Columns != nil) {
			t.Errorf("request %s: empty Params/Columns must decode as nil: %+v", name, got)
		}
	}
	for name, resp := range sampleResponses() {
		got := &response{}
		if err := decodeResponse(appendResponse(nil, resp), got, headers{}, interner{}); err != nil {
			t.Errorf("response %s: %v", name, err)
			continue
		}
		if !sameResponse(resp, got) {
			t.Errorf("response %s:\n in %+v\nout %+v", name, resp, got)
		}
		if (len(resp.Rows) == 0 && got.Rows != nil) || (len(resp.Cols) == 0 && got.Cols != nil) ||
			(len(resp.Snapshot) == 0 && got.Snapshot != nil) || (len(resp.Batches) == 0 && got.Batches != nil) {
			t.Errorf("response %s: empty Rows/Cols/Snapshot/Batches must decode as nil: %+v", name, got)
		}
		if resp.Kind == reqQuery {
			for i, row := range got.Rows {
				if row == nil {
					t.Errorf("response %s: result-set row %d decoded as nil", name, i)
				}
			}
		}
	}

	// A time comes back as the same instant in UTC, equal under Compare and
	// rendered identically — in range or not.
	var got response
	if err := decodeResponse(appendResponse(nil, sampleResponses()["query"]), &got, headers{}, interner{}); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{6, 7} {
		in, out := sampleRow[i], got.Rows[0][i]
		if types.Compare(in, out) != 0 || in.String() != out.String() || out.Time().Location() != time.UTC {
			t.Errorf("time %v came back as %v", in.Time(), out.Time())
		}
	}

	// A response that is all header: the error and the stale flag suppress
	// nothing in the header and everything in the body.
	errResp := &response{Kind: reqQuery, ID: 1, Err: "boom", Rows: []types.Row{sampleRow}, Cols: []exec.ColInfo{{Name: "c"}}}
	if err := decodeResponse(appendResponse(nil, errResp), &got, headers{}, interner{}); err != nil || got.Err != "boom" || got.Rows != nil || got.Cols != nil {
		t.Errorf("error response carried a body: %+v, %v", got, err)
	}

	// A flag this version does not define — v7's span flag among them — is
	// refused, not skipped.
	if err := decodeResponse(spanFlagged(), &got, headers{}, interner{}); err == nil {
		t.Error("a response with v7's span flag decoded")
	}

	// Resumed is one byte, 0 or 1, and a resumed answer carries no rows.
	for _, rows := range [][]types.Row{nil, {sampleRow}} {
		for _, resumed := range []byte{1, 2} {
			frame := appendResponse(nil, &response{Kind: reqProvision, ID: 1, Rows: rows})
			frame[5] = resumed // ID, kind, flags, N and LSN take a byte each
			err := decodeResponse(frame, &got, headers{}, interner{})
			if valid := resumed == 1 && rows == nil; (err == nil) != valid {
				t.Errorf("provision answer with Resumed byte %d and %d rows: %v", resumed, len(rows), err)
			}
		}
	}
}

// TestProvisionHistoryCountIsBounded: a Provision answer's history count comes
// from the peer, so it is checked against the bytes left in the frame before
// anything is sized — an entry takes at least nine — and a count the frame
// cannot fill is refused.
func TestProvisionHistoryCountIsBounded(t *testing.T) {
	one := storage.History{{First: 71, ID: 0xfedcba9876543210}}
	frame := appendResponse(nil, &response{Kind: reqProvision, ID: 1, SubID: 2, History: one, StartLSN: 72})
	const at = 7 // ID, kind, flags, N, LSN, Resumed and SubID take a byte each
	var got response
	if err := decodeResponse(frame, &got, headers{}, interner{}); err != nil || frame[at] != 1 || !reflect.DeepEqual(got.History, one) {
		t.Fatalf("count byte %d, decoded history %v (%v); want 1 and %v", frame[at], got.History, err, one)
	}
	for _, n := range []uint64{2, 1 << 40} {
		bad := append(binary.AppendUvarint(slices.Clone(frame[:at]), n), frame[at+1:]...)
		if err := decodeResponse(bad, &got, headers{}, interner{}); err == nil {
			t.Errorf("a history count of %d in a frame that holds one entry decoded: %v", n, got.History)
		}
	}
}

// v8Frames are a v8 Resume request and a v8 Applied answer, kinds 4 and 5,
// which v9 took out. A Resume's body was a v9 Provision's, and a v8 answer's
// header carried the answering server's applied LSN after the commit LSN.
func v8Frames() [][]byte {
	resume := appendRequest(nil, sampleRequests()["provision from"])
	resume[0] = 4
	applied := binary.AppendUvarint(appendResponse(nil, &response{Kind: 5, ID: 21}), 1234)
	return [][]byte{resume, applied}
}

// TestRetiredKindsAreRefused: a frame of kind 4 (Resume) or 5 (Applied) does
// not decode, as a request or as a response — v8's frames and every v9 sample
// retagged with either kind alike.
func TestRetiredKindsAreRefused(t *testing.T) {
	frames := v8Frames()
	for _, req := range sampleRequests() {
		frames = append(frames, appendRequest(nil, req))
	}
	for _, resp := range sampleResponses() {
		frames = append(frames, appendResponse(nil, resp))
	}
	for _, frame := range frames {
		for _, kind := range []byte{4, 5} {
			asRequest := append([]byte{kind}, frame[1:]...)
			if err := decodeRequest(asRequest, &request{}, interner{}); err == nil {
				t.Errorf("request of kind %d decoded: %x", kind, asRequest)
			}
			asResponse := append([]byte{frame[0], kind}, frame[2:]...) // a one-byte ID, then the kind
			if err := decodeResponse(asResponse, &response{}, headers{}, interner{}); err == nil {
				t.Errorf("response of kind %d decoded: %x", kind, asResponse)
			}
		}
	}
}

// spanFlagged is the sample query response with v7's span flag (4) set
// over a result set that carries no span tree ahead of it.
func spanFlagged() []byte {
	resp := sampleResponses()["query"]
	frame := appendResponse(nil, resp)
	frame[len(binary.AppendUvarint(nil, resp.ID))+1] |= 4 // the flags byte follows the ID and the kind
	return frame
}

// resultSetResponse is an n × 3 response (INT, VARCHAR, FLOAT) shaped like
// the bench's front-hop answers (wire.front.rows_per_call is 13–18).
func resultSetResponse(n int) *response {
	resp := &response{Kind: reqQuery, ID: 9, Cols: []exec.ColInfo{
		{Table: "item", Name: "i_id", Kind: types.KindInt},
		{Table: "item", Name: "i_title", Kind: types.KindString},
		{Table: "item", Name: "i_cost", Kind: types.KindFloat},
	}}
	for i := 0; i < n; i++ {
		resp.Rows = append(resp.Rows, types.Row{
			types.NewInt(int64(i)), types.NewString(fmt.Sprintf("a title of some length %d", i)), types.NewFloat(float64(i) / 3),
		})
	}
	return resp
}

// TestCodecAllocBudget holds the allocation ceilings the protocol was built
// to: a result set decodes into a constant number of allocations whatever
// its size, and encoding into a warm buffer allocates nothing. Decodes go
// into a reused destination, as the client's call slots and the server's
// exchanges are, through a warm table, as a connection's are. A result set
// decodes cold — into a destination with no storage, as QuerySession's and a
// forfeited round trip's are — and warm, into the destination's storage, as
// a routed Result's and a pooled ResultSet's. The warm decode made one
// allocation, its string array, while only the row headers and the values
// were recycled.
func TestCodecAllocBudget(t *testing.T) {
	resp := resultSetResponse(16)
	respFrame := appendResponse(nil, resp)
	req := &request{Kind: reqQuery, ID: 12345, MinLSN: 77, WaitMs: 50,
		SQL: "SELECT i_id, i_title, i_cost FROM item WHERE i_subject = 'ARTS' ORDER BY i_title"}
	reqFrame := appendRequest(nil, req)
	buf := make([]byte, 0, len(respFrame)+len(reqFrame))
	var (
		gotResp response
		gotReq  request
		strs    = interner{}
		hdrs    = headers{}
		names   = interner{}
	)

	for _, tc := range []struct {
		name string
		max  float64
		fn   func()
	}{
		// Rows, the values behind every row, the string slab: the header
		// is the table's after the first
		{"decode 16x3 result set cold", 3, func() { decodeCold(respFrame, &gotResp, hdrs, names) }},
		// nothing: the rows, their values and their string bytes are the
		// destination's storage's
		{"decode 16x3 result set warm", 0, func() { decodeResponse(respFrame, &gotResp, hdrs, names) }}, //nolint:errcheck
		// nothing: the SQL text is the connection's table's after the first
		{"decode parameterless query", 0, func() { decodeRequest(reqFrame, &gotReq, strs) }}, //nolint:errcheck
		{"encode result set", 0, func() { buf = appendResponse(buf[:0], resp) }},
		{"encode query", 0, func() { buf = appendRequest(buf[:0], req) }},
	} {
		if got := testing.AllocsPerRun(200, tc.fn); got > tc.max {
			t.Errorf("%s: %v allocations, ceiling %v", tc.name, got, tc.max)
		}
	}
	bigFrame := appendResponse(nil, resultSetResponse(1600))
	for _, tc := range []struct {
		name   string
		decode func([]byte, *response, headers, interner)
	}{
		{"cold", decodeCold},
		{"warm", func(frame []byte, resp *response, hdrs headers, names interner) {
			decodeResponse(frame, resp, hdrs, names) //nolint:errcheck
		}},
	} {
		small := testing.AllocsPerRun(50, func() { tc.decode(respFrame, &gotResp, hdrs, names) })
		big := testing.AllocsPerRun(50, func() { tc.decode(bigFrame, &gotResp, hdrs, names) })
		if big != small {
			t.Errorf("%s: a 1600-row result set decodes in %v allocations, a 16-row one in %v", tc.name, big, small)
		}
	}
}

// decodeCold decodes frame into resp with no storage to reuse, as a
// destination nothing lent any has none.
func decodeCold(frame []byte, resp *response, hdrs headers, names interner) {
	resp.store = exec.Answer{}
	decodeResponse(frame, resp, hdrs, names) //nolint:errcheck
}

// TestRoundTripAllocBudget: what a warm round trip allocates, counting both
// ends — a Client.QuerySession of a one-row SELECT against Serve, the
// server's decode, execution and encode and the client's decode included —
// untraced, and traced as a cache's remote subquery is: under the caller's
// trace ID, which the server keeps its record under, its ResultSet recycled
// as the Slab that adopts a Remote's answer recycles it. Each ceiling is the
// measured count: 3 and 0. The traced one was 4 while every traced answer
// was decoded into a new ResultSet, row slice, value array and string (the
// untraced one still is, into QuerySession's own Result); the ceilings were
// then 5 and 6, an earlier version's counts plus one. The traced one was 29
// while the server
// built its record's span tree and the response carried it back (wire v7),
// the traced one paying for the tree's spans, their encoding and their
// decoding into new objects. They were 3 and 20 while the backend
// answered a repeated SELECT from a result cache of its own: a backend has
// none, so every call now runs its plan, which allocates the row, and the
// traced tree carries the optimize and execute spans where it carried one
// imcache_hit span. They were 4 and 21 while the client
// decoded every answer's column header into new objects (its connection
// keeps the headers it has seen now), 6 and 23 while the server's
// connection decoded each frame's SQL text into a new string (it interns it
// now) and each execution's read transaction and Result were new objects, 8
// and 25 while the server decoded the trace ID as text and each statement's
// record was a new object, and the untraced one was 9 while the server
// started each frame's handler as a new closure.
func TestRoundTripAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	_, srv := newWiredBackend(t)
	c := dial(t, srv)
	const q = "SELECT name FROM part WHERE id = 7"
	id := trace.FormatID(0x0123456789ab0001)
	for _, r := range []struct {
		name    string
		call    func() (rows int, err error)
		ceiling float64
	}{
		{"untraced", func() (int, error) {
			res, err := c.QuerySession(q, nil, 0, 0)
			return len(res.Rows), err
		}, 3},
		{"traced", func() (int, error) {
			rs, span, err := c.QueryTraced(q, nil, id)
			if err == nil && span != nil {
				err = fmt.Errorf("a span tree came back with a traced query")
			}
			if rs == nil {
				return 0, err
			}
			n := len(rs.Rows)
			rs.Recycle() // as the Slab that adopts a Remote's answer does
			return n, err
		}, 0},
	} {
		call := func() {
			if n, err := r.call(); err != nil || n != 1 {
				t.Fatalf("%s %s: %d rows, %v", r.name, q, n, err)
			}
		}
		call() // warm the plan, the connection and the pools
		avg := testing.AllocsPerRun(300, call)
		t.Logf("%s round trip: %.0f allocs", r.name, avg)
		if avg > r.ceiling {
			t.Errorf("%s round trip: %.0f allocs, ceiling %.0f", r.name, avg, r.ceiling)
		}
	}
}

// recycledRequest and recycledResponse are what a reused exchange or call
// slot may still hold when the next frame is decoded into it: a field of
// every body, and — lent by a routed Result — storage longer than any sample
// result set needs, full of old values and old string bytes.
func recycledRequest() request {
	return request{Kind: reqPull, ID: 99, MinLSN: 9, WaitMs: 9, TraceID: 9, SQL: "old",
		Params: map[string]types.Value{"old": types.NewInt(9)}, Table: "old", Columns: []string{"old"},
		Filter: "old", SubName: "old", Target: "old", FromLSN: 9, SubID: 9, Max: 9, AckLSN: 9}
}

func recycledResponse() response {
	return response{ID: 99, Kind: reqPull, Stale: true, Err: "old", N: 9, LSN: 9,
		Cols: []exec.ColInfo{{Name: "old"}}, Rows: []types.Row{{types.NewInt(9)}},
		Snapshot: []byte("old"), SubID: 9, StartLSN: 9, Resumed: true, Batches: []repl.TxnBatch{{LSN: 9}}, ThroughLSN: 9,
		store: oldStore(16, 64, 256)}
}

// oldStore is storage an earlier answer of rows rows, vals values and
// strBytes string bytes was decoded into, every one of them still there.
func oldStore(rows, vals, strBytes int) exec.Answer {
	var a exec.Answer
	rs, vs, strs := a.Reserve(rows, vals, strBytes)
	strs = append(strs, strings.Repeat("o", strBytes)...) // within its room: the array's bytes
	for i := range vs {
		vs[i] = types.NewString(string(strs[:min(3, strBytes)]))
	}
	for i := range rs {
		rs[i] = vs[i%vals : i%vals+1]
	}
	return a
}

// shortSpares is recycledResponse with storage too short for the sample
// result sets but for the one-value ones.
func shortSpares() response {
	resp := recycledResponse()
	resp.store = oldStore(1, 1, 1)
	return resp
}

// TestDecodedValuesDoNotAliasFrame: the read side reuses its frame buffer and
// decodes into recycled call slots and exchanges, so nothing a decode leaves
// in its destination may point into the frame, and nothing the destination
// held before may survive the decode — a result set decoded into spare
// slices that are too short or too long, full of old values, shows none of
// them, and a row with no values is still empty and not nil. Headers and
// pulled changes' table names go through tables every sample warmed.
func TestDecodedValuesDoNotAliasFrame(t *testing.T) {
	overwrite := func(frame []byte) {
		for i := range frame {
			frame[i] = 0xAA
		}
	}
	for name, req := range sampleRequests() {
		frame := appendRequest(nil, req)
		var want request
		if err := decodeRequest(bytes.Clone(frame), &want, interner{}); err != nil {
			t.Fatalf("request %s: %v", name, err)
		}
		got := recycledRequest()
		if err := decodeRequest(frame, &got, interner{}); err != nil {
			t.Fatalf("request %s into a recycled exchange: %v", name, err)
		}
		overwrite(frame)
		if !sameRequest(&want, &got) {
			t.Errorf("request %s decoded into a recycled exchange, frame then overwritten:\n got %+v\nwant %+v", name, got, want)
		}
	}
	warm, warmNames := headers{}, interner{}
	for _, resp := range sampleResponses() {
		if err := decodeResponse(appendResponse(nil, resp), &response{}, warm, warmNames); err != nil {
			t.Fatal(err)
		}
	}
	for name, resp := range sampleResponses() {
		for spares, got := range map[string]response{"long": recycledResponse(), "short": shortSpares()} {
			frame := appendResponse(nil, resp)
			var want response
			if err := decodeResponse(bytes.Clone(frame), &want, headers{}, interner{}); err != nil {
				t.Fatalf("response %s: %v", name, err)
			}
			if err := decodeResponse(frame, &got, warm, warmNames); err != nil {
				t.Fatalf("response %s into a recycled slot, %s spares: %v", name, spares, err)
			}
			overwrite(frame)
			if !sameResponse(&want, &got) {
				t.Errorf("response %s decoded into a recycled slot with %s spares, frame then overwritten:\n got %+v\nwant %+v", name, spares, got, want)
			}
			for i, row := range got.Rows {
				if resp.Kind == reqQuery && row == nil || cap(row) != len(row) {
					t.Errorf("response %s, %s spares: row %d is nil or reaches past its values (len %d, cap %d)", name, spares, i, len(row), cap(row))
				}
			}
		}
	}
}

// queryStrBytes is the bytes of the sample query answer's strings.
func queryStrBytes() (n uint64) {
	for _, row := range sampleResponses()["query"].Rows {
		for _, v := range row {
			n += uint64(len(v.Str()))
		}
	}
	return n
}

// miscounted is the sample query answer with the string-byte count in its
// result-set header changed to strBytes.
func miscounted(strBytes uint64) []byte {
	resp := sampleResponses()["query"]
	full := appendResponse(nil, resp)
	// Without rows the result set ends in three zero counts: rows, values and
	// string bytes.
	head := appendResponse(nil, &response{Kind: resp.Kind, ID: resp.ID, Cols: resp.Cols})
	head = head[:len(head)-3]
	d := types.Decoder{Buf: full, Off: len(head)}
	frame := binary.AppendUvarint(bytes.Clone(head), d.Uvarint())
	frame = binary.AppendUvarint(frame, d.Uvarint())
	d.Uvarint()
	frame = binary.AppendUvarint(frame, strBytes)
	return append(frame, full[d.Off:]...)
}

// TestResultSetDeclaresItsStringBytes: a result set's header carries its
// strings' total bytes, and a frame whose strings do not sum to it is
// refused — one byte over or under alike. A count the frame cannot hold is
// refused before the array it would size is allocated.
func TestResultSetDeclaresItsStringBytes(t *testing.T) {
	want := queryStrBytes()
	var got response
	if err := decodeResponse(miscounted(want), &got, headers{}, interner{}); err != nil {
		t.Fatalf("the sample answer with its own count: %v", err)
	}
	if !bytes.Equal(miscounted(want), appendResponse(nil, sampleResponses()["query"])) {
		t.Fatal("miscounted(the count) is not the encoder's frame")
	}
	for _, n := range []uint64{want - 1, want + 1, 0} {
		if err := decodeResponse(miscounted(n), &got, headers{}, interner{}); err == nil {
			t.Errorf("a result set declaring %d string bytes, holding %d, decoded", n, want)
		}
	}
	huge := miscounted(16 << 20)
	before := totalAlloc()
	err := decodeResponse(huge, &got, headers{}, interner{})
	if grew := totalAlloc() - before; err == nil || grew > 64<<10 {
		t.Fatalf("a %d-byte frame declaring 16 MiB of strings: %v, %d bytes allocated", len(huge), err, grew)
	}
}

// totalAlloc returns the bytes allocated by the process so far. ReadMemStats
// stops the world and flushes every P's allocation counts, so the difference
// of two readings is exact (runtime/metrics' counter is cheaper but lags).
func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// gobFrame is what a v2 peer opens a connection with.
func gobFrame(t *testing.T) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(struct{ SQL string }{"SELECT 1"}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPrefaceRefusesOtherProtocols: a peer whose first four bytes are not this
// build's preface — a v2 gob frame, another version, garbage — is dropped by the
// server without an answer, and a client that dialed such a server fails its
// requests with a classified transport error instead of waiting on a frame
// that will never parse.
func TestPrefaceRefusesOtherProtocols(t *testing.T) {
	openers := map[string][]byte{
		"gob frame":     gobFrame(t),
		"wrong version": {'M', 'T', 'W', 2, 0, 0, 0, 0},
		"v4":            {'M', 'T', 'W', 4, 0, 0, 0, 0},  // a snapshot payload was gob until v5
		"v5":            {'M', 'T', 'W', 5, 0, 0, 0, 0},  // request kind 1 was Exec until v6
		"v8":            {'M', 'T', 'W', 8, 0, 0, 0, 0},  // kinds 4 Resume and 5 Applied, and the Applied header, until v9
		"v9":            {'M', 'T', 'W', 9, 0, 0, 0, 0},  // no log ID in Provision, no string-byte count in a result set, until v10
		"v10":           {'M', 'T', 'W', 10, 0, 0, 0, 0}, // a grant list in the snapshot, until v11
		"v11":           {'M', 'T', 'W', 11, 0, 0, 0, 0}, // one log ID in a Provision answer, not a history, until v12
		"v12":           {'M', 'T', 'W', 12, 0, 0, 0, 0}, // every pulled update carrying its Before row, until v13
		"http":          []byte("GET / HTTP/1.1\r\n\r\n"),
	}

	for name, opener := range openers {
		if err := newFrameReader(bytes.NewReader(opener)).readPreface(); err != errBadPreface {
			t.Errorf("%s: readPreface = %v, want errBadPreface", name, err)
		}
	}

	_, srv := newWiredBackend(t)
	for name, opener := range openers {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Write(opener); err != nil {
			t.Fatal(err)
		}
		// At most the server's own preface arrives (it does not wait for
		// ours), then the connection ends: no frame is ever served.
		got, err := io.ReadAll(conn)
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			t.Errorf("%s → server: still connected after 5s", name)
		}
		if !bytes.HasPrefix(preface[:], got) {
			t.Errorf("%s → server: it answered %x", name, got)
		}
		conn.Close()
	}

	for name, opener := range openers {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conn.Write(opener)        //nolint:errcheck
			io.Copy(io.Discard, conn) //nolint:errcheck — hold the connection open
			conn.Close()
		}()
		c, err := Dial(ln.Addr().String(), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		_, err = c.Query("SELECT 1", nil)
		if !errors.Is(err, resilience.ErrBackendDown) {
			t.Errorf("client → %s server: want ErrBackendDown, got %v", name, err)
		}
		if !c.Broken() {
			t.Errorf("client → %s server: connection still considered live", name)
		}
		if time.Since(start) > 2*time.Second {
			t.Errorf("client → %s server: failed only after %v (the request timeout, not the preface)", name, time.Since(start))
		}
		c.Close()
		ln.Close()
	}
}

// TestFrameReaderRejectsTruncation: every proper prefix of a valid stream
// (preface + frame), read from a connection that then closes, is an error —
// never a short frame handed to the decoder.
func TestFrameReaderRejectsTruncation(t *testing.T) {
	var fw frameWriter
	var stream bytes.Buffer
	fw.w = &stream
	stream.Write(preface[:])
	if err := fw.send(appendResponse(fw.begin(), resultSetResponse(3))); err != nil {
		t.Fatal(err)
	}
	whole := stream.Bytes()

	read := func(b []byte) ([]byte, error) {
		client, server := net.Pipe()
		go func() {
			server.Write(b) //nolint:errcheck
			server.Close()
		}()
		defer client.Close()
		fr := newFrameReader(client)
		if err := fr.readPreface(); err != nil {
			return nil, err
		}
		return fr.next()
	}
	for cut := 0; cut < len(whole); cut++ {
		if payload, err := read(whole[:cut]); err == nil {
			t.Fatalf("stream cut at %d/%d yielded a %d-byte frame", cut, len(whole), len(payload))
		} else if cut > len(preface)+4 && err != io.ErrUnexpectedEOF {
			t.Fatalf("stream cut at %d inside the payload: %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
	payload, err := read(whole)
	if err != nil {
		t.Fatal(err)
	}
	var resp response
	if err := decodeResponse(payload, &resp, headers{}, interner{}); err != nil {
		t.Fatal(err)
	}
	// And every truncation of the payload itself fails to decode.
	for cut := 0; cut < len(payload); cut++ {
		if err := decodeResponse(payload[:cut], &resp, headers{}, interner{}); err == nil {
			t.Fatalf("payload cut at %d/%d decoded", cut, len(payload))
		}
	}
	if err := decodeResponse(append(bytes.Clone(payload), 0), &resp, headers{}, interner{}); err == nil {
		t.Fatal("payload with a trailing byte decoded")
	}
}

// TestFrameReaderBoundsAllocation: a length prefix above the maximum is
// refused before anything is allocated; one below it that lies about the
// bytes to come grows the buffer only as far as bytes arrive; and a buffer
// that did grow for a large frame is not kept.
func TestFrameReaderBoundsAllocation(t *testing.T) {
	hdr := func(n uint32) []byte { return binary.LittleEndian.AppendUint32(nil, n) }

	fr := newFrameReader(bytes.NewReader(hdr(maxFrame + 1)))
	if _, err := fr.next(); err != errFrameTooLarge || fr.buf != nil {
		t.Fatalf("oversized length prefix: err=%v, buffer cap %d", err, cap(fr.buf))
	}

	// Claims 1 GiB, delivers 1 KiB.
	lie := append(hdr(maxFrame), make([]byte, 1024)...)
	before := totalAlloc()
	_, err := newFrameReader(bytes.NewReader(lie)).next()
	grew := totalAlloc() - before
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("short 1 GiB frame: %v", err)
	}
	if grew > 4*growStep {
		t.Errorf("a 1 KiB stream claiming 1 GiB allocated %d bytes", grew)
	}

	// A large frame is read whole, then its buffer is dropped.
	big := make([]byte, 3*growStep+17)
	for i := range big {
		big[i] = byte(i)
	}
	stream := append(append(hdr(uint32(len(big))), big...), hdr(2)...)
	stream = append(stream, 7, 8)
	fr3 := newFrameReader(bytes.NewReader(stream))
	if got, err := fr3.next(); err != nil || !bytes.Equal(got, big) {
		t.Fatalf("large frame: %v, %d bytes", err, len(got))
	}
	if got, err := fr3.next(); err != nil || !bytes.Equal(got, []byte{7, 8}) {
		t.Fatalf("frame after the large one: %v %v", got, err)
	}
	if cap(fr3.buf) > keepFrame {
		t.Errorf("reader kept a %d-byte buffer after a large frame", cap(fr3.buf))
	}

	var fw frameWriter
	fw.w = io.Discard
	if err := fw.send(append(fw.begin(), big...)); err != nil {
		t.Fatal(err)
	}
	if fw.begin(); cap(fw.buf) > keepFrame {
		t.Errorf("writer kept a %d-byte buffer after a large frame", cap(fw.buf))
	}
}
