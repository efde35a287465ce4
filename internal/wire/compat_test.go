package wire

import (
	"encoding/gob"
	"net"
	"testing"

	"mtcache/internal/exec"
	"mtcache/internal/storage"
	"mtcache/internal/trace"
	"mtcache/internal/types"
)

// requestV1 and responseV1 are the pre-multiplexing frame layouts: every
// field the v1 protocol had, and no correlation ID. Gob matches struct
// fields by name, so round-tripping between these and the current layouts
// pins the append-only field contract. Live interop with such peers is not
// supported: responses are matched by ID only.
type requestV1 struct {
	Kind   reqKind
	SQL    string
	Params map[string]types.Value

	Table   string
	Columns []string
	Filter  string
	SubName string

	SubID  int
	Max    int
	AckLSN storage.LSN

	TraceID string
}

type responseV1 struct {
	Err  string
	Cols []exec.ColInfo
	Rows []types.Row
	N    int64

	Snapshot []byte

	SubID    int
	StartLSN storage.LSN

	Span *trace.WireSpan
}

// TestCompatFrameRoundTrip pins the append-only frame contract at the gob
// level, both directions: a v2 frame decodes into the v1 layout (the new
// trailing fields are simply dropped) and a v1 frame decodes into the v2
// layout with the new fields zero — no error, no data loss on the shared
// fields.
func TestCompatFrameRoundTrip(t *testing.T) {
	encdec := func(in, out any) {
		t.Helper()
		r, w := net.Pipe()
		defer r.Close()
		defer w.Close()
		done := make(chan error, 1)
		go func() { done <- gob.NewEncoder(w).Encode(in) }()
		if err := gob.NewDecoder(r).Decode(out); err != nil {
			t.Fatalf("decode %T into %T: %v", in, out, err)
		}
		if err := <-done; err != nil {
			t.Fatalf("encode %T: %v", in, err)
		}
	}

	// v2 request -> v1 decoder: ID dropped, the rest intact.
	v2req := &request{Kind: reqQuery, SQL: "SELECT 1", TraceID: "t-1", ID: 42,
		Params: map[string]types.Value{"x": types.NewInt(7)}}
	var v1req requestV1
	encdec(v2req, &v1req)
	if v1req.SQL != v2req.SQL || v1req.TraceID != "t-1" || v1req.Params["x"].Int() != 7 {
		t.Fatalf("v1 view of v2 request lost fields: %+v", v1req)
	}

	// v1 request -> v2 decoder: ID zero-valued, marking a v1 peer.
	var v2back request
	encdec(&requestV1{Kind: reqExec, SQL: "UPDATE t SET x = 1"}, &v2back)
	if v2back.ID != 0 || v2back.SQL != "UPDATE t SET x = 1" || v2back.Kind != reqExec {
		t.Fatalf("v2 view of v1 request wrong: %+v", v2back)
	}

	// v2 response -> v1 decoder and back.
	v2resp := &response{N: 3, ID: 42, Rows: []types.Row{{types.NewString("a")}}}
	var v1resp responseV1
	encdec(v2resp, &v1resp)
	if v1resp.N != 3 || len(v1resp.Rows) != 1 {
		t.Fatalf("v1 view of v2 response lost fields: %+v", v1resp)
	}
	var v2respBack response
	encdec(&responseV1{Err: "boom", SubID: 5}, &v2respBack)
	if v2respBack.ID != 0 || v2respBack.Err != "boom" || v2respBack.SubID != 5 {
		t.Fatalf("v2 view of v1 response wrong: %+v", v2respBack)
	}
}
