package wire

// codec.go is the v6 frame codec: what a request and a response hold, the
// preface, the length-prefixed framing and the payload bytes. wire.go's
// package comment has the layout; the value, row and string bytes are
// types/codec.go's, a pulled transaction's changes are
// storage.AppendChanges's, the same bytes the WAL holds, and a snapshot is
// catalog.Snapshot.Encode's, built from the same pieces.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"time"

	"mtcache/internal/exec"
	"mtcache/internal/repl"
	"mtcache/internal/storage"
	"mtcache/internal/trace"
	"mtcache/internal/types"
)

// reqKind enumerates request types.
type reqKind uint8

const (
	reqQuery reqKind = iota
	reqSnapshot
	reqProvision
	reqPull
	// reqResume re-creates a pull subscription for a cache that restarted
	// with durable state: like reqProvision but starting the stream at the
	// cache's checkpointed LSN instead of taking a fresh snapshot. The server
	// answers SubID = -1 (no error) when the backend can no longer serve that
	// position and the cache must fall back to a full reseed.
	reqResume
	// reqApplied asks the server how far its data is applied: a cache answers
	// the LSN its pull subscriptions have all reached, the backend answers its
	// last committed LSN. Session routers use it to probe read-your-writes
	// eligibility without issuing a query.
	reqApplied
)

// request is one client->server frame: the header fields every request
// carries, then the fields of the one body its Kind selects.
type request struct {
	Kind reqKind

	// ID correlates the response with this request on a multiplexed
	// connection. Client IDs start at 1.
	ID uint64

	// MinLSN gates reqQuery on session freshness: a cache must have
	// applied at least this LSN before answering, or report Stale instead of
	// serving data the session's own writes have not reached. Zero disables
	// the gate.
	MinLSN storage.LSN

	// WaitMs bounds how long the server may block waiting for MinLSN to be
	// applied before giving up with Stale.
	WaitMs int64

	// TraceID joins the server-side execution to the caller's trace (""
	// disables tracing).
	TraceID string

	// Query.
	SQL    string
	Params map[string]types.Value

	// Provision / Resume: the article (Table, Columns, Filter), the cache's
	// subscription and the cached view the article feeds. FromLSN is the
	// resume position: the first LSN the restarted subscriber has not applied.
	Table   string
	Columns []string
	Filter  string // deparsed predicate, "" = none
	SubName string
	Target  string
	FromLSN storage.LSN

	// Pull. AckLSN acknowledges every batch at or below it from the previous
	// pull; the server deletes acknowledged batches and re-delivers
	// unacknowledged ones, making Pull safe to retry (at-least-once delivery,
	// deduplicated by LSN on the subscriber).
	SubID  int
	Max    int
	AckLSN storage.LSN
}

// response is one server->client frame: the header fields every response
// carries, then the fields of the one body its Kind selects.
type response struct {
	// ID and Kind echo the request's.
	ID   uint64
	Kind reqKind

	// Stale reports that a MinLSN-gated request was refused because the
	// server could not reach the session watermark within WaitMs. The
	// response carries no rows; the client should retry against the backend.
	Stale bool

	// Err, when set, is all the response carries besides the header.
	Err string

	// N is the number of rows the request's statement wrote.
	N int64

	// LSN is the commit LSN of any write the request performed on the
	// backend (0 for pure reads) — the session's read-your-writes watermark.
	LSN storage.LSN

	// Applied is the LSN the answering server has applied through (for a
	// cache, the floor across its pull subscriptions; for the backend, its
	// last committed LSN).
	Applied storage.LSN

	// Query: the result set (Provision: the initial population), and
	// the server-side span tree when the request carried a TraceID.
	Cols []exec.ColInfo
	Rows []types.Row
	Span *trace.WireSpan

	Snapshot []byte

	// Provision / Resume.
	SubID    int
	StartLSN storage.LSN

	// Pull. ThroughLSN is the position the subscription's change stream is
	// complete through: every relevant change at or below it has been
	// delivered in or before this response. It can run ahead of the last
	// batch's LSN when the pull passed over intervening transactions that
	// did not touch the article.
	Batches    []repl.TxnBatch
	ThroughLSN storage.LSN
}

// preface opens every connection, in both directions: magic plus protocol
// version. A peer that opens with anything else is disconnected.
var preface = [4]byte{'M', 'T', 'W', 6}

const (
	// maxFrame bounds a frame's payload; a larger length prefix is refused
	// before any of the payload is read.
	maxFrame = 1 << 30
	// keepFrame is the largest frame buffer a connection keeps between frames.
	// A bigger one (a Provision or Snapshot frame) is dropped after use.
	keepFrame = 64 << 10
	// growStep bounds how far a frame buffer grows ahead of the bytes that
	// have actually arrived, so a corrupt length cannot size an allocation.
	growStep = 256 << 10
	// maxSpanDepth bounds the span tree: deeper levels are cut on encode and
	// refused on decode.
	maxSpanDepth = 32
)

// Response flags.
const (
	flagStale = 1 << iota
	flagError
	flagSpan
)

var (
	errBadPreface    = fmt.Errorf("wire: peer does not speak protocol v%d", preface[3])
	errFrameTooLarge = fmt.Errorf("wire: frame exceeds %d bytes", maxFrame)
)

// frameReader reads frames off one connection into one reused buffer.
type frameReader struct {
	r   *bufio.Reader
	hdr [4]byte
	buf []byte
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{r: bufio.NewReaderSize(r, 8<<10)}
}

// readPreface consumes and checks the peer's preface.
func (fr *frameReader) readPreface() error {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return err
	}
	if fr.hdr != preface {
		return errBadPreface
	}
	return nil
}

// next returns the next frame's payload, valid until the following call.
// io.EOF means the peer closed between frames; a frame cut short is
// io.ErrUnexpectedEOF.
func (fr *frameReader) next() ([]byte, error) {
	if cap(fr.buf) > keepFrame {
		fr.buf = nil
	}
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(fr.hdr[:]))
	if n > maxFrame {
		return nil, errFrameTooLarge
	}
	buf := fr.buf[:0]
	for len(buf) < n {
		step := min(n-len(buf), growStep)
		buf = slices.Grow(buf, step)[:len(buf)+step]
		if _, err := io.ReadFull(fr.r, buf[len(buf)-step:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	fr.buf = buf
	return buf, nil
}

// frameWriter builds each outgoing frame in one reused buffer and hands it to
// the connection in a single Write. Callers serialize access.
type frameWriter struct {
	w   io.Writer
	buf []byte
}

// begin returns the buffer holding an empty frame to append the payload to.
func (fw *frameWriter) begin() []byte {
	if cap(fw.buf) > keepFrame {
		fw.buf = nil
	}
	return append(fw.buf[:0], 0, 0, 0, 0)
}

// send patches the length prefix in and writes the frame. An oversized frame
// is refused with nothing written.
func (fw *frameWriter) send(frame []byte) error {
	fw.buf = frame
	if len(frame)-4 > maxFrame {
		return errFrameTooLarge
	}
	binary.LittleEndian.PutUint32(frame, uint32(len(frame)-4))
	_, err := fw.w.Write(frame)
	return err
}

// appendRequest appends req's payload.
func appendRequest(buf []byte, req *request) []byte {
	buf = append(buf, byte(req.Kind))
	buf = binary.AppendUvarint(buf, req.ID)
	buf = binary.AppendUvarint(buf, uint64(req.MinLSN))
	buf = binary.AppendVarint(buf, req.WaitMs)
	buf = types.AppendString(buf, req.TraceID)
	switch req.Kind {
	case reqQuery:
		buf = types.AppendString(buf, req.SQL)
		buf = binary.AppendUvarint(buf, uint64(len(req.Params)))
		for name, v := range req.Params {
			buf = types.AppendString(buf, name)
			buf = types.AppendValue(buf, &v)
		}
	case reqProvision, reqResume:
		buf = types.AppendString(buf, req.Table)
		buf = binary.AppendUvarint(buf, uint64(len(req.Columns)))
		for _, c := range req.Columns {
			buf = types.AppendString(buf, c)
		}
		buf = types.AppendString(buf, req.Filter)
		buf = types.AppendString(buf, req.SubName)
		buf = types.AppendString(buf, req.Target)
		if req.Kind == reqResume {
			buf = binary.AppendUvarint(buf, uint64(req.FromLSN))
		}
	case reqPull:
		buf = binary.AppendVarint(buf, int64(req.SubID))
		buf = binary.AppendVarint(buf, int64(req.Max))
		buf = binary.AppendUvarint(buf, uint64(req.AckLSN))
	}
	return buf
}

// decodeRequest parses one request payload into req, overwriting every field
// of it. Nothing in req then aliases payload, and each string is its own
// allocation: SQL text and parameter values outlive the request (plan-cache
// keys, stored rows).
func decodeRequest(payload []byte, req *request) error {
	d := types.Decoder{Buf: payload}
	*req = request{
		Kind:    reqKind(d.Byte()),
		ID:      d.Uvarint(),
		MinLSN:  storage.LSN(d.Uvarint()),
		WaitMs:  d.Varint(),
		TraceID: d.Str(),
	}
	switch req.Kind {
	case reqQuery:
		req.SQL = d.Str()
		if n := d.Count(2); n > 0 {
			req.Params = make(map[string]types.Value, n)
			for i := 0; i < n && d.Err == nil; i++ {
				name := d.Str()
				req.Params[name] = d.Value()
			}
		}
	case reqProvision, reqResume:
		req.Table = d.Str()
		if n := d.Count(1); n > 0 {
			req.Columns = make([]string, n)
			for i := range req.Columns {
				req.Columns[i] = d.Str()
			}
		}
		req.Filter = d.Str()
		req.SubName = d.Str()
		req.Target = d.Str()
		if req.Kind == reqResume {
			req.FromLSN = storage.LSN(d.Uvarint())
		}
	case reqPull:
		req.SubID = int(d.Varint())
		req.Max = int(d.Varint())
		req.AckLSN = storage.LSN(d.Uvarint())
	case reqSnapshot, reqApplied:
	default:
		d.Fail()
	}
	return finish(&d, "request")
}

// finish reports a decode failure, or bytes left over after a clean decode.
func finish(d *types.Decoder, what string) error {
	if d.Err == nil && d.Remaining() != 0 {
		d.Fail()
	}
	if d.Err != nil {
		return fmt.Errorf("wire: %s frame: %w", what, d.Err)
	}
	return nil
}

// appendResponse appends resp's payload. An error response carries only its
// message; otherwise the body is the one resp.Kind calls for.
func appendResponse(buf []byte, resp *response) []byte {
	var flags byte
	if resp.Stale {
		flags |= flagStale
	}
	if resp.Err != "" {
		flags |= flagError
	}
	if resp.Span != nil {
		flags |= flagSpan
	}
	buf = binary.AppendUvarint(buf, resp.ID)
	buf = append(buf, byte(resp.Kind), flags)
	buf = binary.AppendVarint(buf, resp.N)
	buf = binary.AppendUvarint(buf, uint64(resp.LSN))
	buf = binary.AppendUvarint(buf, uint64(resp.Applied))
	if resp.Err != "" {
		return types.AppendString(buf, resp.Err)
	}
	switch resp.Kind {
	case reqQuery:
		if resp.Span != nil {
			buf = appendSpan(buf, resp.Span, 0)
		}
		buf = appendResultSet(buf, resp.Cols, resp.Rows)
	case reqSnapshot:
		buf = binary.AppendUvarint(buf, uint64(len(resp.Snapshot)))
		buf = append(buf, resp.Snapshot...)
	case reqProvision:
		buf = binary.AppendVarint(buf, int64(resp.SubID))
		buf = binary.AppendUvarint(buf, uint64(resp.StartLSN))
		buf = binary.AppendUvarint(buf, uint64(len(resp.Rows)))
		for _, row := range resp.Rows {
			buf = types.AppendRow(buf, row)
		}
	case reqResume:
		buf = binary.AppendVarint(buf, int64(resp.SubID))
		buf = binary.AppendUvarint(buf, uint64(resp.StartLSN))
	case reqPull:
		buf = binary.AppendUvarint(buf, uint64(resp.ThroughLSN))
		buf = binary.AppendUvarint(buf, uint64(len(resp.Batches)))
		for i := range resp.Batches {
			b := &resp.Batches[i]
			buf = binary.AppendUvarint(buf, uint64(b.LSN))
			buf = binary.AppendVarint(buf, b.CommitTime.UnixNano())
			buf = storage.AppendChanges(buf, b.Changes)
		}
	}
	return buf
}

// decodeResponse parses one response payload into resp, overwriting every
// field of it. Nothing in resp then aliases payload. A result set decodes
// into one []types.Row, one []types.Value behind all of them and one string
// behind every string in it; replication rows, which the store retains one by
// one, each get their own allocation.
func decodeResponse(payload []byte, resp *response) error {
	d := types.Decoder{Buf: payload}
	*resp = response{ID: d.Uvarint(), Kind: reqKind(d.Byte())}
	flags := d.Byte()
	resp.Stale = flags&flagStale != 0
	resp.N = d.Varint()
	resp.LSN = storage.LSN(d.Uvarint())
	resp.Applied = storage.LSN(d.Uvarint())
	if flags&flagError != 0 {
		if resp.Err = d.Str(); resp.Err == "" {
			d.Fail()
		}
		return finish(&d, "response")
	}
	switch resp.Kind {
	case reqQuery:
		if flags&flagSpan != 0 {
			resp.Span = decodeSpan(&d, 0)
		}
		resp.Cols, resp.Rows = decodeResultSet(&d)
	case reqSnapshot:
		if b := d.Bytes(d.Uvarint()); len(b) > 0 {
			resp.Snapshot = slices.Clone(b)
		}
	case reqProvision:
		resp.SubID = int(d.Varint())
		resp.StartLSN = storage.LSN(d.Uvarint())
		if n := d.Count(1); n > 0 {
			resp.Rows = make([]types.Row, n)
			for i := range resp.Rows {
				resp.Rows[i] = d.Row()
			}
		}
	case reqResume:
		resp.SubID = int(d.Varint())
		resp.StartLSN = storage.LSN(d.Uvarint())
	case reqPull:
		resp.ThroughLSN = storage.LSN(d.Uvarint())
		if n := d.Count(3); n > 0 {
			resp.Batches = make([]repl.TxnBatch, n)
			for i := range resp.Batches {
				b := &resp.Batches[i]
				b.LSN = storage.LSN(d.Uvarint())
				b.CommitTime = time.Unix(0, d.Varint()).UTC()
				b.Changes = storage.DecodeChanges(&d)
			}
		}
	case reqApplied:
	default:
		d.Fail()
	}
	return finish(&d, "response")
}

// appendResultSet appends a Query result. The total value count goes
// ahead of the rows so the decoder can size one backing array for all of them.
func appendResultSet(buf []byte, cols []exec.ColInfo, rows []types.Row) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(cols)))
	for i := range cols {
		buf = types.AppendString(buf, cols[i].Table)
		buf = types.AppendString(buf, cols[i].Name)
		buf = append(buf, byte(cols[i].Kind))
	}
	values := 0
	for _, row := range rows {
		values += len(row)
	}
	buf = binary.AppendUvarint(buf, uint64(len(rows)))
	buf = binary.AppendUvarint(buf, uint64(values))
	for _, row := range rows {
		buf = binary.AppendUvarint(buf, uint64(len(row)))
		for i := range row {
			buf = types.AppendValue(buf, &row[i])
		}
	}
	return buf
}

func decodeResultSet(d *types.Decoder) ([]exec.ColInfo, []types.Row) {
	d.SlabStrings()
	var cols []exec.ColInfo
	if n := d.Count(3); n > 0 {
		cols = make([]exec.ColInfo, n)
		for i := range cols {
			cols[i] = exec.ColInfo{Table: d.Str(), Name: d.Str(), Kind: types.Kind(d.Byte())}
		}
	}
	nrows, nvals := d.Count(1), d.Count(1)
	if nrows == 0 {
		if nvals != 0 {
			d.Fail()
		}
		return cols, nil
	}
	rows, vals := make([]types.Row, nrows), make([]types.Value, nvals)
	for i := range rows {
		width := d.Uvarint()
		if width > uint64(len(vals)) {
			d.Fail()
			return nil, nil
		}
		rows[i], vals = vals[:width:width], vals[width:]
		if d.Values(rows[i]); d.Err != nil {
			return nil, nil
		}
	}
	if len(vals) != 0 {
		d.Fail()
	}
	return cols, rows
}

func appendSpan(buf []byte, s *trace.WireSpan, depth int) []byte {
	buf = types.AppendString(buf, s.Name)
	buf = binary.AppendVarint(buf, s.StartUTC)
	buf = binary.AppendVarint(buf, s.DurNanos)
	buf = binary.AppendUvarint(buf, uint64(len(s.Attrs)))
	for _, a := range s.Attrs {
		buf = types.AppendString(buf, a.K)
		buf = types.AppendString(buf, a.V)
	}
	children := s.Children
	if depth == maxSpanDepth {
		children = nil
	}
	buf = binary.AppendUvarint(buf, uint64(len(children)))
	for _, c := range children {
		if c == nil {
			c = &trace.WireSpan{}
		}
		buf = appendSpan(buf, c, depth+1)
	}
	return buf
}

func decodeSpan(d *types.Decoder, depth int) *trace.WireSpan {
	if depth > maxSpanDepth {
		d.Fail()
		return nil
	}
	s := &trace.WireSpan{Name: d.Str(), StartUTC: d.Varint(), DurNanos: d.Varint()}
	if n := d.Count(2); n > 0 {
		s.Attrs = make([]trace.Attr, n)
		for i := range s.Attrs {
			s.Attrs[i] = trace.Attr{K: d.Str(), V: d.Str()}
		}
	}
	if n := d.Count(5); n > 0 {
		s.Children = make([]*trace.WireSpan, n)
		for i := range s.Children {
			if s.Children[i] = decodeSpan(d, depth+1); d.Err != nil {
				return nil
			}
		}
	}
	return s
}
