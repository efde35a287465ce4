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
		"query session":    {Kind: reqQuery, ID: 1 << 40, SQL: "SELECT 1", MinLSN: 99, WaitMs: 250, TraceID: "t-1"},
		"query write":      {Kind: reqQuery, ID: 3, SQL: "UPDATE part SET qty = 0 WHERE id = 7", TraceID: "t-2", WaitMs: -1},
		"snapshot":         {Kind: reqSnapshot, ID: 4},
		"applied":          {Kind: reqApplied, ID: 5},
		"provision":        {Kind: reqProvision, ID: 6, Table: "part", Columns: []string{"id", "", "name"}, Filter: "(part.qty > 10)", SubName: "cache1.cv_part"},
		"provision no col": {Kind: reqProvision, ID: 8, Table: "part", Columns: []string{}, SubName: "s"},
		"resume":           {Kind: reqResume, ID: 9, Table: "part", Columns: []string{"id"}, SubName: "s", FromLSN: 1234567},
		"pull":             {Kind: reqPull, ID: 10, SubID: 3, Max: 100, AckLSN: 42},
		"pull negative":    {Kind: reqPull, ID: 11, SubID: -1, Max: -5},
	}
}

// sampleResponses is one response of every kind, plus the shapes that
// collapse and the header-only ones (stale, error).
func sampleResponses() map[string]*response {
	span := &trace.WireSpan{Name: "backend.exec", StartUTC: 1054166400000000000, DurNanos: 1500,
		Attrs: []trace.Attr{{K: "sql", V: "SELECT 1"}, {K: "", V: ""}},
		Children: []*trace.WireSpan{
			{Name: "optimize", DurNanos: 10},
			{Name: "execute", StartUTC: -5, Children: []*trace.WireSpan{
				{Name: "scan", Attrs: []trace.Attr{{K: "rows", V: "3"}}},
			}},
		}}
	cols := []exec.ColInfo{{Table: "part", Name: "id", Kind: types.KindInt}, {Name: "expr", Kind: types.KindString}}
	return map[string]*response{
		"query": {Kind: reqQuery, ID: 7, Applied: 12, Cols: cols,
			Rows: []types.Row{sampleRow, {}, sampleRow[:2]}},
		"query traced":   {Kind: reqQuery, ID: 8, Cols: cols, Rows: []types.Row{{types.NewInt(1), types.NewString("x")}}, Span: span},
		"query no rows":  {Kind: reqQuery, ID: 9, Cols: cols, Rows: []types.Row{}},
		"query no cols":  {Kind: reqQuery, ID: 10, Cols: []exec.ColInfo{}, Rows: []types.Row{{types.NewString("bare")}}},
		"query 0-column": {Kind: reqQuery, ID: 11, Rows: []types.Row{{}, {}}},
		"stale":          {Kind: reqQuery, ID: 12, Stale: true, Applied: 40},
		"error":          {Kind: reqQuery, ID: 13, Err: "engine: table missing does not exist", Applied: 3},
		"query write":    {Kind: reqQuery, ID: 14, N: 3, LSN: 1 << 50, Applied: 1 << 50},
		"snapshot":       {Kind: reqSnapshot, ID: 15, Snapshot: []byte{0, 1, 2, 0xff}},
		"snapshot empty": {Kind: reqSnapshot, ID: 16, Snapshot: []byte{}},
		"provision":      {Kind: reqProvision, ID: 17, SubID: 2, StartLSN: 77, Rows: []types.Row{sampleRow, nil, {}}},
		"resume":         {Kind: reqResume, ID: 18, SubID: -1, StartLSN: 5},
		"pull": {Kind: reqPull, ID: 19, ThroughLSN: 90, Batches: []repl.TxnBatch{
			{LSN: 80, CommitTime: time.Date(2003, 6, 9, 0, 0, 0, 0, pdt), Changes: []storage.ChangeRec{
				{Table: "part", Op: storage.OpInsert, After: sampleRow},
				{Table: "part", Op: storage.OpDelete, Before: sampleRow},
				{Table: "other", Op: storage.OpUpdate, Before: types.Row{types.NewInt(1)}, After: types.Row{types.NewInt(2)}},
			}},
			{LSN: 81, CommitTime: time.Unix(0, 0)},
		}},
		"pull empty": {Kind: reqPull, ID: 20, ThroughLSN: 91, Batches: []repl.TxnBatch{}},
		"applied":    {Kind: reqApplied, ID: 21, Applied: 1234},
	}
}

// sameValue is bit-for-bit equality (a NaN equals itself; a time is its
// instant).
func sameValue(a, b types.Value) bool { return a == b }

func sameRow(a, b types.Row) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameValue(a[i], b[i]) {
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
		if w, ok := b.Params[k]; !ok || !sameValue(v, w) {
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

func sameSpan(a, b *trace.WireSpan) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Name != b.Name || a.StartUTC != b.StartUTC || a.DurNanos != b.DurNanos ||
		len(a.Attrs) != len(b.Attrs) || len(a.Children) != len(b.Children) {
		return false
	}
	for i := range a.Attrs {
		if a.Attrs[i] != b.Attrs[i] {
			return false
		}
	}
	for i := range a.Children {
		if !sameSpan(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

func sameResponse(a, b *response) bool {
	if !sameRows(a.Rows, b.Rows) || !sameSpan(a.Span, b.Span) || !bytes.Equal(a.Snapshot, b.Snapshot) ||
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
		r.Rows, r.Span, r.Snapshot, r.Cols, r.Batches = nil, nil, nil, nil, nil
	}
	return reflect.DeepEqual(x, y)
}

// TestFrameRoundTrip: every request and response kind survives
// encode → decode. What collapses, by design and as gob did before: an empty
// slice, map or byte string decodes as nil. What does not: a nil row among
// replication rows stays nil and an empty one stays empty (the WAL's row
// layout tells them apart); a result-set row is never nil.
func TestFrameRoundTrip(t *testing.T) {
	for name, req := range sampleRequests() {
		got := &request{}
		if err := decodeRequest(appendRequest(nil, req), got); err != nil {
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
		if err := decodeResponse(appendResponse(nil, resp), got); err != nil {
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
	if err := decodeResponse(appendResponse(nil, sampleResponses()["query"]), &got); err != nil {
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
	if err := decodeResponse(appendResponse(nil, errResp), &got); err != nil || got.Err != "boom" || got.Rows != nil || got.Cols != nil {
		t.Errorf("error response carried a body: %+v, %v", got, err)
	}
}

// TestSpanDepthBounded: the span tree is cut at maxSpanDepth on encode and a
// deeper one is refused on decode, so a peer cannot recurse the decoder off
// its stack.
func TestSpanDepthBounded(t *testing.T) {
	chain := func(n int) *trace.WireSpan {
		root := &trace.WireSpan{Name: "0"}
		for s, i := root, 1; i < n; i++ {
			c := &trace.WireSpan{Name: fmt.Sprint(i)}
			s.Children, s = []*trace.WireSpan{c}, c
		}
		return root
	}
	depth := func(s *trace.WireSpan) int {
		n := 0
		for ; s != nil; n++ {
			if len(s.Children) == 0 {
				s = nil
			} else {
				s = s.Children[0]
			}
		}
		return n
	}
	var got response
	if err := decodeResponse(appendResponse(nil, &response{Kind: reqQuery, Span: chain(maxSpanDepth + 10)}), &got); err != nil {
		t.Fatal(err)
	}
	if d := depth(got.Span); d != maxSpanDepth+1 {
		t.Errorf("decoded span depth %d, want the %d levels the encoder keeps", d, maxSpanDepth+1)
	}

	// Hand-build a frame nested past the bound: header, then 10 000 spans
	// each claiming one child.
	frame := appendResponse(nil, &response{Kind: reqQuery, Span: &trace.WireSpan{}})
	frame = frame[:len(frame)-3-5] // strip the empty result set and the empty span
	for i := 0; i < 10000; i++ {
		frame = append(frame, 0, 0, 0, 0, 1)
	}
	if err := decodeResponse(frame, &got); err == nil {
		t.Error("a span tree 10 000 levels deep decoded")
	}
}

// resultSetResponse is an n × 3 response (INT, VARCHAR, FLOAT) shaped like
// the bench's front-hop answers (wire.front.rows_per_call is 13–18).
func resultSetResponse(n int) *response {
	resp := &response{Kind: reqQuery, ID: 9, Applied: 1000, Cols: []exec.ColInfo{
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
// exchanges are.
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
	)

	for _, tc := range []struct {
		name string
		max  float64
		fn   func()
	}{
		// Cols, Rows, the values behind every row, the string slab
		{"decode 16x3 result set", 5, func() { decodeResponse(respFrame, &gotResp) }}, //nolint:errcheck
		// SQL text
		{"decode parameterless query", 1, func() { decodeRequest(reqFrame, &gotReq) }}, //nolint:errcheck
		{"encode result set", 0, func() { buf = appendResponse(buf[:0], resp) }},
		{"encode query", 0, func() { buf = appendRequest(buf[:0], req) }},
	} {
		if got := testing.AllocsPerRun(200, tc.fn); got > tc.max {
			t.Errorf("%s: %v allocations, ceiling %v", tc.name, got, tc.max)
		}
	}
	bigFrame := appendResponse(nil, resultSetResponse(1600))
	small := testing.AllocsPerRun(50, func() { decodeResponse(respFrame, &gotResp) }) //nolint:errcheck
	big := testing.AllocsPerRun(50, func() { decodeResponse(bigFrame, &gotResp) })    //nolint:errcheck
	if big != small {
		t.Errorf("a 1600-row result set decodes in %v allocations, a 16-row one in %v", big, small)
	}
}

// TestRoundTripAllocBudget: what a warm round trip allocates, counting both
// ends — a Client.QuerySession of a one-row SELECT against Serve, the
// server's decode, execution and encode and the client's decode included.
// The ceiling is the measured count, 9, plus one.
func TestRoundTripAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	_, srv := newWiredBackend(t)
	c := dial(t, srv)
	const q = "SELECT name FROM part WHERE id = 7"
	call := func() {
		res, err := c.QuerySession(q, nil, 0, 0)
		if err != nil || len(res.Rows) != 1 {
			t.Fatalf("%s: %+v, %v", q, res, err)
		}
	}
	call() // warm the plan, the connection and the pools
	const ceiling = 10
	avg := testing.AllocsPerRun(300, call)
	t.Logf("round trip: %.0f allocs", avg)
	if avg > ceiling {
		t.Errorf("round trip: %.0f allocs, ceiling %d", avg, ceiling)
	}
}

// recycledRequest and recycledResponse are what a reused exchange or call
// slot may still hold when the next frame is decoded into it: a field of
// every body.
func recycledRequest() request {
	return request{Kind: reqPull, ID: 99, MinLSN: 9, WaitMs: 9, TraceID: "old", SQL: "old",
		Params: map[string]types.Value{"old": types.NewInt(9)}, Table: "old", Columns: []string{"old"},
		Filter: "old", SubName: "old", Target: "old", FromLSN: 9, SubID: 9, Max: 9, AckLSN: 9}
}

func recycledResponse() response {
	return response{ID: 99, Kind: reqPull, Stale: true, Err: "old", N: 9, LSN: 9, Applied: 9,
		Cols: []exec.ColInfo{{Name: "old"}}, Rows: []types.Row{{types.NewInt(9)}}, Span: &trace.WireSpan{Name: "old"},
		Snapshot: []byte("old"), SubID: 9, StartLSN: 9, Batches: []repl.TxnBatch{{LSN: 9}}, ThroughLSN: 9}
}

// TestDecodedValuesDoNotAliasFrame: the read side reuses its frame buffer and
// decodes into recycled call slots and exchanges, so nothing a decode leaves
// in its destination may point into the frame, and nothing the destination
// held before may survive the decode.
func TestDecodedValuesDoNotAliasFrame(t *testing.T) {
	overwrite := func(frame []byte) {
		for i := range frame {
			frame[i] = 0xAA
		}
	}
	for name, req := range sampleRequests() {
		frame := appendRequest(nil, req)
		var want request
		if err := decodeRequest(bytes.Clone(frame), &want); err != nil {
			t.Fatalf("request %s: %v", name, err)
		}
		got := recycledRequest()
		if err := decodeRequest(frame, &got); err != nil {
			t.Fatalf("request %s into a recycled exchange: %v", name, err)
		}
		overwrite(frame)
		if !sameRequest(&want, &got) {
			t.Errorf("request %s decoded into a recycled exchange, frame then overwritten:\n got %+v\nwant %+v", name, got, want)
		}
	}
	for name, resp := range sampleResponses() {
		frame := appendResponse(nil, resp)
		var want response
		if err := decodeResponse(bytes.Clone(frame), &want); err != nil {
			t.Fatalf("response %s: %v", name, err)
		}
		got := recycledResponse()
		if err := decodeResponse(frame, &got); err != nil {
			t.Fatalf("response %s into a recycled slot: %v", name, err)
		}
		overwrite(frame)
		if !sameResponse(&want, &got) {
			t.Errorf("response %s decoded into a recycled slot, frame then overwritten:\n got %+v\nwant %+v", name, got, want)
		}
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
		"v4":            {'M', 'T', 'W', 4, 0, 0, 0, 0}, // a snapshot payload was gob until v5
		"v5":            {'M', 'T', 'W', 5, 0, 0, 0, 0}, // request kind 1 was Exec until v6
		"http":          []byte("GET / HTTP/1.1\r\n\r\n"),
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
	if err := decodeResponse(payload, &resp); err != nil {
		t.Fatal(err)
	}
	// And every truncation of the payload itself fails to decode.
	for cut := 0; cut < len(payload); cut++ {
		if err := decodeResponse(payload[:cut], &resp); err == nil {
			t.Fatalf("payload cut at %d/%d decoded", cut, len(payload))
		}
	}
	if err := decodeResponse(append(bytes.Clone(payload), 0), &resp); err == nil {
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
