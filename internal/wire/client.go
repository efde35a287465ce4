package wire

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"time"

	"mtcache/internal/exec"
	"mtcache/internal/metrics"
	"mtcache/internal/repl"
	"mtcache/internal/resilience"
	"mtcache/internal/storage"
	"mtcache/internal/trace"
	"mtcache/internal/types"
)

// Client is a multiplexed TCP connection to a backend server: any number of
// requests may be in flight concurrently on the one connection, matched to
// their responses by correlation ID. A single reader goroutine demultiplexes
// the response stream; senders interleave whole frames under a write lock.
// Client implements exec.RemoteClient, so an engine.Database can use it
// directly as its backend link.
//
// Client itself fails hard on the first transport error — the error fails
// every request in flight on the connection, and the Client is then dead
// (Broken reports true). Wrap it in a ResilientClient (DialResilient) for
// pooling, retry, backoff and re-dial.
type Client struct {
	conn     net.Conn
	timeout  time.Duration
	inflight *metrics.Gauge // wire.inflight

	wmu sync.Mutex // serializes frame writes; guards fw
	fw  frameWriter

	mu      sync.Mutex
	pending map[uint64]*call
	nextID  uint64
	err     error // terminal transport error; non-nil = dead client

	readerWG sync.WaitGroup
}

// Dial connects to a wire server. timeout bounds the connection attempt and
// every subsequent round trip (send deadline plus a response timer per
// request); zero disables deadlines.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, resilience.Classify(err)
	}
	if timeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(timeout))
	}
	if _, err := conn.Write(preface[:]); err != nil {
		conn.Close()
		return nil, resilience.Classify(fmt.Errorf("wire: send preface: %w", err))
	}
	c := &Client{
		conn:     conn,
		timeout:  timeout,
		inflight: metrics.Default.Gauge("wire.inflight"),
		fw:       frameWriter{w: conn},
		pending:  make(map[uint64]*call),
	}
	c.readerWG.Add(1)
	go c.readLoop()
	return c, nil
}

// Close closes the connection, failing any requests still in flight, and
// waits for the reader goroutine to exit.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.err == nil {
		c.err = resilience.Classify(fmt.Errorf("wire: client closed: %w", net.ErrClosed))
	}
	c.mu.Unlock()
	err := c.conn.Close()
	c.readerWG.Wait()
	return err
}

// Broken reports whether the connection has hit a terminal transport error
// (or was closed). A broken client fails every request immediately; the
// pool uses this to decide when a slot needs a re-dial.
func (c *Client) Broken() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err != nil
}

// readLoop is the demultiplexer: the single goroutine that checks the
// server's preface, then reads response frames and routes each to the round
// trip waiting on it. A read or decode error is terminal for the whole
// connection — every in-flight request fails with the classified error.
func (c *Client) readLoop() {
	defer c.readerWG.Done()
	fr := newFrameReader(c.conn)
	err := fr.readPreface()
	for err == nil {
		var payload []byte
		if payload, err = fr.next(); err == nil {
			err = c.deliver(payload)
		}
	}
	c.failAll(resilience.Classify(fmt.Errorf("wire: recv: %w", err)))
}

// deliver decodes one response into the slot of the round trip waiting on it,
// found by the frame's leading correlation ID (responses may arrive out of
// order). A response that matches nothing — its request was abandoned after
// a timeout, or it carries no ID — is decoded and dropped. A frame that does
// not decode goes back to pending with its slot, for failAll to fail with the
// rest.
func (c *Client) deliver(payload []byte) error {
	id, _ := binary.Uvarint(payload)
	c.mu.Lock()
	cl := c.pending[id]
	delete(c.pending, id)
	c.mu.Unlock()
	if cl == nil {
		var dropped response
		return decodeResponse(payload, &dropped)
	}
	if err := decodeResponse(payload, &cl.resp); err != nil {
		c.mu.Lock()
		c.pending[id] = cl
		c.mu.Unlock()
		return err
	}
	cl.done <- struct{}{}
	return nil
}

// failAll marks the client dead and fails every pending request.
func (c *Client) failAll(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	pend := c.pending
	c.pending = make(map[uint64]*call)
	c.mu.Unlock()
	for _, cl := range pend {
		cl.failed = true // the waiter looks up the terminal error
		cl.done <- struct{}{}
	}
}

// abandon gives up on a request whose response timer expired. The
// connection stays usable: the late response is dropped on arrival.
func (c *Client) abandon(id uint64) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// roundTrip sends one request and waits for its response, with any number
// of other round trips in flight on the same connection. The client's
// timeout bounds the send (write deadline) and the wait (timer): a stalled
// backend fails the request with ErrTimeout instead of hanging the caller,
// without disturbing other in-flight requests. Transport errors are
// classified (ErrTimeout / ErrBackendDown); server-reported errors come
// back as *ServerError and are never retryable. The response is copied into
// out; the round trip's slot goes back to calls when the reuse rule allows.
func (c *Client) roundTrip(req *request, out *response) error {
	c.wmu.Lock()
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		c.wmu.Unlock()
		return err
	}
	cl := calls.Get().(*call)
	c.nextID++
	id := c.nextID
	req.ID = id
	c.pending[id] = cl
	c.mu.Unlock()
	c.inflight.Add(1)
	defer c.inflight.Add(-1)

	if c.timeout > 0 {
		c.conn.SetWriteDeadline(time.Now().Add(c.timeout))
	}
	err := c.fw.send(appendRequest(c.fw.begin(), req))
	c.wmu.Unlock()
	if err != nil {
		// After a failed or short write the server can no longer find the
		// next frame boundary; every request multiplexed on this connection
		// is lost with it.
		cerr := resilience.Classify(fmt.Errorf("wire: send: %w", err))
		c.failAll(cerr)
		c.conn.Close()
		return cerr
	}

	var timeoutC <-chan time.Time
	if c.timeout > 0 {
		cl.timer.Reset(c.timeout) // stopped before it fired: nothing in C
		timeoutC = cl.timer.C
	}
	select {
	case <-cl.done:
	case <-timeoutC:
		c.abandon(id)
		return fmt.Errorf("wire: no response within %v: %w", c.timeout, resilience.ErrTimeout)
	}
	reuse := timeoutC == nil || cl.timer.Stop()
	switch {
	case cl.failed:
		c.mu.Lock()
		err = c.err
		c.mu.Unlock()
	case cl.resp.Err != "":
		err = &ServerError{Msg: cl.resp.Err}
	default:
		*out = cl.resp
	}
	if reuse {
		cl.resp, cl.failed = response{}, false
		calls.Put(cl)
	}
	return err
}

// Query implements exec.RemoteClient: one statement, whatever it does, and
// one result with its rows, row count and commit LSN.
func (c *Client) Query(sqlText string, params exec.Params) (*exec.ResultSet, error) {
	rs, _, err := c.QueryTraced(sqlText, params, "")
	return rs, err
}

// SessionResult is the answer to a session-gated request: rows or row count,
// plus the freshness bookkeeping a session router needs — the commit LSN of
// any write performed, how far the answering server had applied, and whether
// the server refused because it could not reach the session's watermark.
type SessionResult struct {
	Cols      []exec.ColInfo
	Rows      []types.Row
	N         int64
	CommitLSN storage.LSN
	Applied   storage.LSN
	Stale     bool
}

// QuerySession executes one statement gated on session freshness: a cache
// that has not applied minLSN may block up to wait for replication to catch
// up, and answers Stale (no rows, no error) if it still cannot. minLSN 0
// disables the gate. Used by the session router for read-your-writes.
func (c *Client) QuerySession(sqlText string, params exec.Params, minLSN storage.LSN, wait time.Duration) (SessionResult, error) {
	var resp response
	err := c.roundTrip(&request{
		Kind: reqQuery, SQL: sqlText, Params: params,
		MinLSN: minLSN, WaitMs: wait.Milliseconds(),
	}, &resp)
	if err != nil {
		return SessionResult{}, err
	}
	return SessionResult{
		Cols: resp.Cols, Rows: resp.Rows, N: resp.N,
		CommitLSN: resp.LSN, Applied: resp.Applied, Stale: resp.Stale,
	}, nil
}

// AppliedLSN asks the server how far its data is applied (a cache answers
// the floor across its pull subscriptions, the backend its last committed
// LSN).
func (c *Client) AppliedLSN() (storage.LSN, error) {
	var resp response
	err := c.roundTrip(&request{Kind: reqApplied}, &resp)
	if err != nil {
		return 0, err
	}
	return resp.Applied, nil
}

// QueryTraced is Query under the caller's trace ID on the backend ("" for
// none); the backend-side span tree comes back with the result.
func (c *Client) QueryTraced(sqlText string, params exec.Params, traceID string) (*exec.ResultSet, *trace.WireSpan, error) {
	var resp response
	err := c.roundTrip(&request{Kind: reqQuery, SQL: sqlText, Params: params, TraceID: traceID}, &resp)
	if err != nil {
		return nil, nil, err
	}
	return &exec.ResultSet{Cols: resp.Cols, Rows: resp.Rows, RowsAffected: resp.N, CommitLSN: resp.LSN}, resp.Span, nil
}

// Snapshot fetches the backend catalog snapshot.
func (c *Client) Snapshot() ([]byte, error) {
	var resp response
	err := c.roundTrip(&request{Kind: reqSnapshot}, &resp)
	if err != nil {
		return nil, err
	}
	return resp.Snapshot, nil
}

// Provision attaches an article to the subscription subName on the backend
// (created on first use) as the feed of the cached view target, and returns
// the subscription id, the LSN the article's changes start from, and the
// initial population. It is idempotent by (subName, target), so a retried
// provision leaves neither an orphan subscription nor a second feed.
func (c *Client) Provision(table string, columns []string, filter, subName, target string) (int, storage.LSN, []types.Row, error) {
	var resp response
	err := c.roundTrip(&request{
		Kind: reqProvision, Table: table, Columns: columns, Filter: filter, SubName: subName, Target: target,
	}, &resp)
	if err != nil {
		return 0, 0, nil, err
	}
	return resp.SubID, resp.StartLSN, resp.Rows, nil
}

// Resume reattaches an article for a subscriber restarting with durable
// state: the subscription's stream carries target's changes from fromLSN (the
// first LSN the subscriber has not applied) with no initial population. ok is
// false — with no error — when the backend cannot serve that position anymore
// (its WAL was truncated past it, or it lost the subscription state and the
// log); the caller must then fall back to Provision for a full reseed. Resume
// is idempotent: repeating it reattaches to the same feed.
func (c *Client) Resume(table string, columns []string, filter, subName, target string, fromLSN storage.LSN) (subID int, ok bool, err error) {
	var resp response
	err = c.roundTrip(&request{
		Kind: reqResume, Table: table, Columns: columns, Filter: filter, SubName: subName, Target: target, FromLSN: fromLSN,
	}, &resp)
	if err != nil {
		return 0, false, err
	}
	if resp.SubID < 0 {
		return 0, false, nil
	}
	return resp.SubID, true, nil
}

// Pull returns up to max pending transactions for a subscription, read from
// the backend's log past ack after acknowledging everything at or below it.
// A returned batch is read again by every Pull until a later one acknowledges
// it, so a response lost in transit is simply re-delivered. The second return
// value is the LSN the change stream is complete through (repl.Server.Pull).
func (c *Client) Pull(subID, max int, ack storage.LSN) ([]repl.TxnBatch, storage.LSN, error) {
	var resp response
	err := c.roundTrip(&request{Kind: reqPull, SubID: subID, Max: max, AckLSN: ack}, &resp)
	if err != nil {
		return nil, 0, err
	}
	return resp.Batches, resp.ThroughLSN, nil
}
