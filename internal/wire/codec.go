package wire

// codec.go is the v11 frame codec: what a request and a response hold, the
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
	"mtcache/internal/types"
)

// reqKind enumerates request types.
type reqKind uint8

const (
	reqQuery reqKind = iota
	reqSnapshot
	reqProvision
	reqPull
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

	// TraceID joins the server-side execution to the caller's trace (0
	// disables tracing).
	TraceID uint64

	// Query.
	SQL    string
	Params map[string]types.Value

	// Provision: the article (Table, Columns, Filter), the cache's
	// subscription and the cached view the article feeds. (AppliedID,
	// FromLSN) is the resume position: the first LSN a restarted subscriber
	// has not applied, 0 to seed, and the ID of the LSN before it.
	Table     string
	Columns   []string
	Filter    string // deparsed predicate, "" = none
	SubName   string
	Target    string
	AppliedID uint64
	FromLSN   storage.LSN

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

	// Query: the result set (Provision: the initial population).
	Cols []exec.ColInfo
	Rows []types.Row

	// store is the storage a query's result set is decoded into: the row
	// headers Rows is cut from, the values behind its rows and the bytes
	// behind their strings, reused where long enough (exec.Answer.Reserve).
	// A decode of any other body passes it through, so whoever lent it gets
	// it back (Client.roundTrip).
	store exec.Answer

	Snapshot []byte

	// Provision. Resumed says the view was attached at the request's FromLSN
	// with no rows; otherwise Rows is its initial population. History is the
	// backend's from StartLSN-1 on.
	SubID    int
	History  storage.History
	StartLSN storage.LSN
	Resumed  bool

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
var preface = [4]byte{'M', 'T', 'W', 13}

const (
	// maxFrame bounds a frame's payload; a larger length prefix is refused
	// before any of the payload is read.
	maxFrame = 1 << 30
	// keepFrame is the largest frame buffer a connection keeps between frames.
	// A bigger one (a Provision or Snapshot frame) is dropped after use.
	keepFrame = 64 << 10
	// keepParams is the most parameters a request map keeps room for between
	// frames. A bigger one is dropped at the next decode.
	keepParams = 32
	// internEntries bounds a server connection's intern table and a client
	// connection's header table: a string or header that would be one more
	// is kept in a table cleared first. internLen is the longest string
	// interned and the longest encoded header kept; a longer one is decoded
	// every time. Every TPC-W and ad hoc header fits, the longest (getBook's)
	// in 126 bytes.
	internEntries = 128
	internLen     = 256
	// growStep bounds how far a frame buffer grows ahead of the bytes that
	// have actually arrived, so a corrupt length cannot size an allocation.
	growStep = 256 << 10
)

// Response flags.
const (
	flagStale = 1 << iota
	flagError
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
	buf = binary.LittleEndian.AppendUint64(buf, req.TraceID)
	switch req.Kind {
	case reqQuery:
		buf = types.AppendString(buf, req.SQL)
		buf = binary.AppendUvarint(buf, uint64(len(req.Params)))
		for name, v := range req.Params {
			buf = types.AppendString(buf, name)
			buf = types.AppendValue(buf, &v)
		}
	case reqProvision:
		buf = types.AppendString(buf, req.Table)
		buf = binary.AppendUvarint(buf, uint64(len(req.Columns)))
		for _, c := range req.Columns {
			buf = types.AppendString(buf, c)
		}
		buf = types.AppendString(buf, req.Filter)
		buf = types.AppendString(buf, req.SubName)
		buf = types.AppendString(buf, req.Target)
		buf = binary.LittleEndian.AppendUint64(buf, req.AppliedID)
		buf = binary.AppendUvarint(buf, uint64(req.FromLSN))
	case reqPull:
		buf = binary.AppendVarint(buf, int64(req.SubID))
		buf = binary.AppendVarint(buf, int64(req.Max))
		buf = binary.AppendUvarint(buf, uint64(req.AckLSN))
	}
	return buf
}

// interner is one connection's table of the strings its frames repeat: on a
// server connection the query texts and parameter names (a call shape, or a
// statement an application repeats, is one of a few strings), on a client
// connection the table names of pulled changes. Each is decoded into a new
// string only the first time. It is bounded (internEntries, internLen) and
// used by the connection's read loop alone.
type interner map[string]string

// str decodes one length-prefixed string as Decoder.Str does, returning the
// table's copy of it when there is one.
func (in interner) str(d *types.Decoder) string {
	return in.of(d.Bytes(d.Uvarint()))
}

// of returns the table's copy of the string b holds. The lookup by b does
// not allocate; a miss makes the string, and keeps it unless it is longer
// than internLen.
func (in interner) of(b []byte) string {
	if s, ok := in[string(b)]; ok || len(b) == 0 {
		return s
	}
	s := string(b)
	if len(s) <= internLen {
		if len(in) >= internEntries {
			clear(in)
		}
		in[s] = s
	}
	return s
}

// decodeRequest parses one request payload into req, overwriting every field
// of it. Nothing in req then aliases payload: a query's text and parameter
// names come from in, the connection's intern table, and every other string
// is its own allocation — parameter values outlive the request (stored rows,
// result-cache keys). The Params map req holds is cleared and refilled, not
// replaced, so a server exchange decodes every frame into the map it made
// for its first; one that held more than keepParams entries is dropped
// instead, as frameReader drops a grown buffer. A frame that names a
// parameter twice is refused: a request has one encoding, and which value
// was meant is not known.
func decodeRequest(payload []byte, req *request, in interner) error {
	params := req.Params
	if len(params) > keepParams {
		params = nil
	}
	clear(params)
	d := types.Decoder{Buf: payload}
	*req = request{
		Kind:    reqKind(d.Byte()),
		ID:      d.Uvarint(),
		MinLSN:  storage.LSN(d.Uvarint()),
		WaitMs:  d.Varint(),
		TraceID: d.Fixed64(),
		Params:  params,
	}
	switch req.Kind {
	case reqQuery:
		req.SQL = in.str(&d)
		if n := d.Count(2); n > 0 {
			if req.Params == nil {
				req.Params = make(map[string]types.Value, n)
			}
			for i := 0; i < n && d.Err == nil; i++ {
				name := in.str(&d)
				if _, dup := req.Params[name]; dup && d.Err == nil {
					d.Err = fmt.Errorf("parameter @%s is given more than once", name)
				}
				req.Params[name] = d.Value()
			}
		}
	case reqProvision:
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
		req.AppliedID = d.Fixed64()
		req.FromLSN = storage.LSN(d.Uvarint())
	case reqPull:
		req.SubID = int(d.Varint())
		req.Max = int(d.Varint())
		req.AckLSN = storage.LSN(d.Uvarint())
	case reqSnapshot:
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
	buf = binary.AppendUvarint(buf, resp.ID)
	buf = append(buf, byte(resp.Kind), flags)
	buf = binary.AppendVarint(buf, resp.N)
	buf = binary.AppendUvarint(buf, uint64(resp.LSN))
	if resp.Err != "" {
		return types.AppendString(buf, resp.Err)
	}
	switch resp.Kind {
	case reqQuery:
		buf = appendResultSet(buf, resp.Cols, resp.Rows)
	case reqSnapshot:
		buf = binary.AppendUvarint(buf, uint64(len(resp.Snapshot)))
		buf = append(buf, resp.Snapshot...)
	case reqProvision:
		var resumed byte
		if resp.Resumed {
			resumed = 1
		}
		buf = append(buf, resumed)
		buf = binary.AppendVarint(buf, int64(resp.SubID))
		buf = binary.AppendUvarint(buf, uint64(len(resp.History)))
		for _, inc := range resp.History {
			buf = binary.AppendUvarint(buf, uint64(inc.First))
			buf = binary.LittleEndian.AppendUint64(buf, inc.ID)
		}
		buf = binary.AppendUvarint(buf, uint64(resp.StartLSN))
		buf = binary.AppendUvarint(buf, uint64(len(resp.Rows)))
		for _, row := range resp.Rows {
			buf = types.AppendRow(buf, row)
		}
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
// field of it but its storage, store. A kind this version does not define is
// refused, an error answer's too. Nothing in resp then aliases payload. A
// result set's column header comes from hdrs, the connection's header table,
// and a pulled change's table name from names, its intern table; a result
// set's rows decode into resp.store: one []types.Row, one []types.Value
// behind all of them and one byte array behind every string in them. A
// replication row the store keeps — a
// Provision row, a pulled change's After row — gets its values and its
// strings in allocations of its own (types.Decoder.Row); a pulled change's
// Before row, which the subscriber only reads, is cut from one value array
// and one string that every Before row of the frame shares. A frame with no
// Before row — every change an insert, or an update that keeps its row's key
// — makes neither.
func decodeResponse(payload []byte, resp *response, hdrs headers, names interner) error {
	d := types.Decoder{Buf: payload}
	*resp = response{ID: d.Uvarint(), Kind: reqKind(d.Byte()), store: resp.store}
	flags := d.Byte()
	if resp.Kind > reqPull || flags&^(flagStale|flagError) != 0 {
		d.Fail()
	}
	resp.Stale = flags&flagStale != 0
	resp.N = d.Varint()
	resp.LSN = storage.LSN(d.Uvarint())
	if flags&flagError != 0 {
		if resp.Err = d.Str(); resp.Err == "" {
			d.Fail()
		}
		return finish(&d, "response")
	}
	switch resp.Kind {
	case reqQuery:
		decodeResultSet(&d, resp, hdrs)
	case reqSnapshot:
		if b := d.Bytes(d.Uvarint()); len(b) > 0 {
			resp.Snapshot = slices.Clone(b)
		}
	case reqProvision:
		resumed := d.Byte()
		resp.Resumed = resumed == 1
		resp.SubID = int(d.Varint())
		for n := d.Count(9); len(resp.History) < n; { // an entry takes nine bytes or more
			resp.History = append(resp.History, storage.Incarnation{First: storage.LSN(d.Uvarint()), ID: d.Fixed64()})
		}
		resp.StartLSN = storage.LSN(d.Uvarint())
		if n := d.Count(1); n > 0 {
			resp.Rows = make([]types.Row, n)
			for i := range resp.Rows {
				resp.Rows[i] = d.Row()
			}
		}
		if resumed > 1 || resp.Resumed && resp.Rows != nil {
			d.Fail()
		}
	case reqPull:
		resp.ThroughLSN = storage.LSN(d.Uvarint())
		if n := d.Count(3); n > 0 {
			// A walk over the batches first sizes the one value array and
			// the one string behind every Before row of the frame.
			probe, vals, size := d, 0, 0
			for i := 0; i < n && probe.Err == nil; i++ {
				probe.Uvarint()
				probe.Varint()
				v, s := storage.SizeChanges(&probe)
				vals, size = vals+v, size+s
			}
			d.ReserveShared(vals, size)
			resp.Batches = make([]repl.TxnBatch, n)
			for i := range resp.Batches {
				b := &resp.Batches[i]
				b.LSN = storage.LSN(d.Uvarint())
				b.CommitTime = time.Unix(0, d.Varint()).UTC()
				b.Changes = storage.DecodeChanges(&d, names.of)
			}
		}
	}
	return finish(&d, "response")
}

// appendResultSet appends a Query result. The total value count and the
// total bytes of the strings go ahead of the rows, so the decoder can size
// one backing array for all of the values and one for all of the strings.
func appendResultSet(buf []byte, cols []exec.ColInfo, rows []types.Row) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(cols)))
	for i := range cols {
		buf = types.AppendString(buf, cols[i].Table)
		buf = types.AppendString(buf, cols[i].Name)
		buf = append(buf, byte(cols[i].Kind))
	}
	values, strBytes := 0, 0
	for _, row := range rows {
		values += len(row)
		for i := range row {
			strBytes += len(row[i].Str())
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(rows)))
	buf = binary.AppendUvarint(buf, uint64(values))
	buf = binary.AppendUvarint(buf, uint64(strBytes))
	for _, row := range rows {
		buf = binary.AppendUvarint(buf, uint64(len(row)))
		for i := range row {
			buf = types.AppendValue(buf, &row[i])
		}
	}
	return buf
}

// decodeResultSet decodes a Query result into resp.Cols and resp.Rows,
// through resp.store (see decodeResponse). A row is never nil, even one with
// no values. Every string is cut from one array of the string bytes the
// header declares: the store's when it has room, else a new one of exactly
// that size; none is made when no value is a string. A declared count the
// frame cannot hold is refused before anything is allocated, and one the
// strings do not sum to after the rows.
func decodeResultSet(d *types.Decoder, resp *response, hdrs headers) {
	resp.Cols = hdrs.cols(d)
	nrows, nvals := d.Count(1), d.Count(1)
	strBytes := d.Uvarint()
	if nrows == 0 {
		if nvals != 0 || strBytes != 0 {
			d.Fail()
		}
		return
	}
	if strBytes > uint64(d.Remaining()) {
		d.Fail()
		return
	}
	rows, vals, strs := resp.store.Reserve(nrows, nvals, int(strBytes))
	d.ShareStrings(strs)
	for i := range rows {
		width := d.Uvarint()
		if width > uint64(len(vals)) {
			d.Fail()
			return
		}
		rows[i], vals = vals[:width:width], vals[width:]
		if d.SharedValues(rows[i]); d.Err != nil {
			return
		}
	}
	if len(vals) != 0 || d.SharedBytes() != int(strBytes) {
		d.Fail()
		return
	}
	resp.Rows = rows
}

// headers is one client connection's table of the result-set column headers
// its responses carried, keyed by their encoded bytes: a statement's shape
// answers with the same header every time, decoded only the first time and
// shared by every answer after it. It is bounded (internEntries, internLen)
// and used by the connection's read loop alone.
type headers map[string][]exec.ColInfo

// cols decodes a result set's column header, or returns the table's copy of
// it: the lookup by the frame's bytes does not allocate. A miss decodes the
// header into a []exec.ColInfo whose strings are cut from one copy of the
// header's bytes, the key it is kept under unless it is longer than
// internLen. No columns decode as nil.
func (h headers) cols(d *types.Decoder) []exec.ColInfo {
	start := d.Off
	n := d.Count(3)
	for i := 0; i < n; i++ {
		d.Bytes(d.Uvarint())
		d.Bytes(d.Uvarint())
		d.Byte()
	}
	if n == 0 || d.Err != nil {
		return nil
	}
	b := d.Buf[start:d.Off]
	if cols, ok := h[string(b)]; ok {
		return cols
	}
	key := string(b)
	hd := types.Decoder{Buf: b}
	cut := func() string {
		n := int(hd.Uvarint())
		hd.Bytes(uint64(n))
		return key[hd.Off-n : hd.Off]
	}
	cols := make([]exec.ColInfo, hd.Uvarint())
	for i := range cols {
		cols[i] = exec.ColInfo{Table: cut(), Name: cut(), Kind: types.Kind(hd.Byte())}
	}
	if len(key) <= internLen {
		if len(h) >= internEntries {
			clear(h)
		}
		h[key] = cols
	}
	return cols
}
