// Package wire implements the network transport between cache servers and
// the backend: hand-rolled binary frames over TCP (protocol v13) carrying
//
//   - Query — the linked-server path (paper §2.1): remote subexpressions,
//     forwarded writes and forwarded procedure calls travel as SQL text (or a
//     call shape) plus parameters; one result comes back with the rows, the
//     row count and the commit LSN. A text that may write is delivered at
//     most once (sql.ReadOnly decides). A traced request carries its trace
//     ID and nothing of the trace comes back: the server keeps its record
//     under that ID, and a reader joins the records by ID on read
//     (engine.Database.Stitch);
//   - Snapshot — the shadow-database setup payload (§4);
//   - Provision / Pull — the pull subscription (§2.2): a cache has one,
//     provisions an article of it for each cached view — resumed at the
//     position a restarted cache asks for when the backend's log holds it
//     under the ID the request names (the ID of the incarnation that wrote
//     it), seeded with the view's initial population otherwise — and then
//     periodically pulls committed transactions, each carrying every view's
//     share. The server answers them with core.BackendServer's publisher
//     methods.
//
// One connection is multiplexed: every request carries a correlation ID
// that the server echoes on the response, so many requests can be in flight
// concurrently and responses may return out of order. The server handles
// each request in its own goroutine, bounded by a server-wide semaphore;
// responses are serialized onto the connection under a per-connection write
// lock. Matching is by ID only: a response whose ID matches no waiting
// request is dropped.
//
// Connection and frame layout (integers varint/uvarint unless sized; string,
// value and row as types/codec.go lays them out, changes as
// storage.AppendChanges does — the bytes the WAL holds):
//
//	preface, once, each direction: 'M' 'T' 'W' 0x0d
//	frame:    uint32 LE payload length (≤ 1 GiB), payload
//
//	request payload:
//	  byte    kind: 0 Query, 1 Snapshot, 2 Provision, 3 Pull (through v8
//	          also 4 Resume and 5 Applied; through v5 kind 1 was Exec,
//	          answered as Query)
//	  uvarint ID
//	  uvarint MinLSN
//	  varint  WaitMs
//	  uint64  TraceID, 8 bytes LE (0: untraced; through v6 a string)
//	  body, by kind:
//	    Query             string SQL, uvarint #params, per param: string name, value
//	                      (no name twice)
//	    Snapshot          —
//	    Provision         string Table, uvarint #columns, per column: string,
//	                      string Filter, string SubName, string Target,
//	                      uint64 AppliedID, 8 bytes LE (the ID of position
//	                      FromLSN-1; since v10, through v11 the log's ID),
//	                      uvarint FromLSN (0: seed; since v9)
//	    Pull              varint SubID, varint Max, uvarint AckLSN
//
//	response payload:
//	  uvarint ID
//	  byte    kind (the request's)
//	  byte    flags: 1 stale, 2 error (through v7, 4: a span tree ahead of
//	          the result set; any other bit is refused)
//	  varint  N (rows written)
//	  uvarint LSN (commit LSN of a write; through v8 followed by
//	          uvarint Applied)
//	  body: string Err if the error flag is set, otherwise by kind:
//	    Query        uvarint #cols, per col: string Table, string Name, byte Kind
//	                 uvarint #rows, uvarint #values in all rows,
//	                 uvarint #bytes of all string values (since v10),
//	                 per row: uvarint #values, values
//	    Snapshot     uvarint len, bytes (catalog.Snapshot.Encode: script,
//	                   stats, procs; through v10 a grant list between
//	                   stats and procs; since v5, gob before it)
//	    Provision    byte Resumed (0 or 1; since v9), varint SubID,
//	                 uvarint #history, per entry: uvarint First, uint64 ID,
//	                 8 bytes LE (the backend's history from StartLSN-1 on;
//	                 since v12, in v10 and v11 one uint64 log ID),
//	                 uvarint StartLSN, uvarint #rows (0 when resumed), rows
//	    Pull         uvarint ThroughLSN, uvarint #batches, per batch:
//	                   uvarint LSN, varint CommitTime (unix nanoseconds), changes
//	                   addressed to the subscriber's tables, each image the
//	                   whole projected row; since v13 an update of a table
//	                   that keeps its source's primary key and leaves the key
//	                   as it was carries no Before row, and the subscriber
//	                   finds the row by the After row's key (opt.ChangeMap,
//	                   storage.Txn.Apply)
//
// An empty slice, map or string and an absent one are the same bytes and
// decode as nil / "" (a server's exchange keeps its emptied parameter map).
// Every count and length is checked against the bytes left in the frame
// before anything is allocated, a frame must be consumed exactly — a result
// set's strings must sum to exactly the bytes its header declares — and a
// peer that sends a malformed one is disconnected.
//
// There is no field-by-name tolerance and no negotiation: a field is added
// by changing the layout above and bumping the preface version, and a peer
// of any other version (or protocol) is refused at the preface.
//
// The cache server itself lives in internal/core. Its in-process link and
// this package's TCP clients implement the same core.BackendClient interface;
// a cache cannot tell them apart.
package wire

import (
	"errors"
	"net"
	"sync"
	"time"

	"mtcache/internal/core"
	"mtcache/internal/engine"
	"mtcache/internal/metrics"
	"mtcache/internal/repl"
)

// DefaultMaxInFlight bounds concurrent request handling per server when
// ServerOptions leaves MaxInFlight unset.
const DefaultMaxInFlight = 64

// ServerOptions tunes a wire server.
type ServerOptions struct {
	// MaxInFlight bounds the number of requests being handled concurrently
	// across all connections. When every slot is busy, a connection's read
	// loop blocks before spawning the next handler — natural backpressure
	// instead of unbounded goroutine growth. <= 0 selects
	// DefaultMaxInFlight.
	MaxInFlight int
}

// Server exposes a backend — or a cache (ServeCache) — over TCP. Exactly one
// of backend/cache is non-nil; replication requests (Snapshot, Provision,
// Pull) are answered only by a backend.
type Server struct {
	backend *core.BackendServer
	cache   *core.CacheServer
	ln      net.Listener
	sem     chan struct{} // server-wide handler slots

	mu      sync.Mutex
	conns   map[net.Conn]bool
	stopped bool
	wg      sync.WaitGroup
}

// Serve starts a server on addr (e.g. "127.0.0.1:0") with default options
// and returns it. The chosen address is available via Addr.
func Serve(backend *core.BackendServer, addr string) (*Server, error) {
	return ServeOpts(backend, addr, ServerOptions{})
}

// ServeOpts starts a server with explicit options.
func ServeOpts(backend *core.BackendServer, addr string, opts ServerOptions) (*Server, error) {
	s := &Server{backend: backend}
	return startServer(s, addr, opts)
}

// ServeCache exposes a cache server over TCP with the same protocol a
// backend speaks: clients Query the cache exactly as they would
// against the backend (the cache forwards what it cannot answer), and
// MinLSN-gated requests are answered Stale when the cache has not applied the
// session's watermark yet. Replication requests are rejected — a cache is a
// subscriber, not a publisher.
func ServeCache(cache *core.CacheServer, addr string, opts ServerOptions) (*Server, error) {
	s := &Server{cache: cache}
	return startServer(s, addr, opts)
}

func startServer(s *Server, addr string, opts ServerOptions) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	if opts.MaxInFlight <= 0 {
		opts.MaxInFlight = DefaultMaxInFlight
	}
	s.ln = ln
	s.sem = make(chan struct{}, opts.MaxInFlight)
	s.conns = map[net.Conn]bool{}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// execDB returns the database requests execute against.
func (s *Server) execDB() *engine.Database {
	if s.cache != nil {
		return s.cache.DB
	}
	return s.backend.DB
}

// Addr returns the listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting, closes every active connection and waits for the
// connection handlers to exit.
func (s *Server) Close() {
	s.mu.Lock()
	s.stopped = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.ln.Close()
	s.wg.Wait()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.stopped {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// A round trip's bookkeeping is pooled at both ends, so it allocates only
// what it returns: a Client's call slot and a server's exchange.

// call is one round trip's slot on a Client: the reader decodes the response
// straight into resp and signals done. Exactly one party signals a slot —
// whoever takes it out of the client's pending map — and failAll sets failed
// before it does. A slot goes back to calls only when its waiter received the
// signal and stopped its timer before it fired; one that timed out, failed to
// send or saw its timer fire is dropped, so a late response or a stale tick
// never reaches a later call, whether timer channels are synchronous or not.
type call struct {
	done   chan struct{} // cap 1: the signal never blocks the reader
	resp   response
	failed bool
	timer  *time.Timer // stopped whenever the slot is in calls
}

var calls = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &call{done: make(chan struct{}, 1), timer: t}
}}

// serverConn is what the handlers of one server connection share, and what
// its read loop keeps between frames: the intern table its requests' texts
// and parameter names decode through (only the read loop touches it).
type serverConn struct {
	s        *Server
	conn     net.Conn
	wmu      sync.Mutex // serializes frame writes; guards fw
	fw       frameWriter
	handlers sync.WaitGroup
	inflight *metrics.Gauge
	strs     interner
}

// exchange is one request frame on a server connection and the response it
// gets. It keeps its request's parameter map from frame to frame (see
// decodeRequest) and its handler, x.serve bound once when it is made, so a
// frame's handler starts without allocating. res is the statement's Result,
// whose rows the response carries; it is released once the response is
// written. slabs are the arrays a Pull answer is built in, taken from
// pullSlabs for the pull and put back, cleared, once its frame is written.
type exchange struct {
	c     *serverConn
	req   request
	resp  response
	res   *engine.Result
	slabs *repl.Slabs
	run   func()
}

var exchanges sync.Pool

// pullSlabs holds the arrays of answered pulls for the next ones, as a
// routed Result keeps its spare slices: it holds about as many as pulls run
// at once, where arrays kept on the exchanges would pin one set for every
// exchange that ever served a pull.
var pullSlabs = sync.Pool{New: func() any { return new(repl.Slabs) }}

// getExchange takes an exchange from the pool, or makes one.
func getExchange() *exchange {
	if x, ok := exchanges.Get().(*exchange); ok {
		return x
	}
	x := new(exchange)
	x.run = x.serve
	return x
}

// serveConn demultiplexes one connection: each decoded request is handled
// in its own goroutine (bounded by the server semaphore) and its response —
// tagged with the request's correlation ID — is written back under a
// per-connection write lock, in completion order rather than arrival order.
// The read loop exits on the first transport error or malformed frame;
// in-flight handlers finish (their writes fail harmlessly on the dead
// connection) before the connection is released. Each frame's request and
// response live in one pooled exchange, put back once the response is
// written.
func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	c := &serverConn{s: s, conn: conn, fw: frameWriter{w: conn},
		inflight: metrics.Default.Gauge("wire.server_inflight"), strs: interner{}}
	defer c.handlers.Wait()
	if _, err := conn.Write(preface[:]); err != nil {
		return
	}
	fr := newFrameReader(conn)
	if fr.readPreface() != nil {
		return
	}
	for {
		payload, err := fr.next()
		if err != nil {
			return
		}
		x := getExchange()
		if decodeRequest(payload, &x.req, c.strs) != nil {
			return
		}
		x.c = c
		s.sem <- struct{}{}
		c.inflight.Add(1)
		c.handlers.Add(1)
		go x.run()
	}
}

// serve handles x's request, writes its response and puts x back.
func (x *exchange) serve() {
	c := x.c
	defer c.handlers.Done()
	defer func() {
		c.inflight.Add(-1)
		<-c.s.sem
	}()
	req, resp := &x.req, &x.resp
	x.res = c.s.handle(x)
	resp.ID, resp.Kind = req.ID, req.Kind
	c.wmu.Lock()
	err := c.fw.send(appendResponse(c.fw.begin(), resp))
	if err == errFrameTooLarge {
		*resp = response{ID: req.ID, Kind: req.Kind, Err: err.Error()}
		err = c.fw.send(appendResponse(c.fw.begin(), resp))
	}
	c.wmu.Unlock()
	x.res.Release()
	if x.slabs != nil {
		x.slabs.Clear()
		pullSlabs.Put(x.slabs)
	}
	x.c, x.req, x.resp, x.res, x.slabs = nil, request{Params: x.req.Params}, response{}, nil, nil
	exchanges.Put(x)
	if err != nil {
		// After a failed or short write the peer can no longer find the next
		// frame boundary; sever the connection so the client fails fast and
		// re-dials.
		c.conn.Close()
	}
}

// handle answers x's request into its response, which starts zeroed, and
// returns the statement's Result when the response holds its rows: the
// caller's to release once the response is written, as x.slabs are to put
// back.
func (s *Server) handle(x *exchange) *engine.Result {
	req, resp := &x.req, &x.resp
	switch req.Kind {
	case reqQuery:
		res, rec, err := s.execDB().ExecSessionTraced(req.SQL, req.Params,
			req.MinLSN, time.Duration(req.WaitMs)*time.Millisecond, req.TraceID)
		switch {
		case errors.Is(err, engine.ErrSessionStale):
			// Not an error on the wire: the cache is simply behind the
			// session's watermark. The client reroutes to the backend.
			resp.Stale = true
		case err != nil:
			resp.Err = err.Error()
		default:
			resp.Cols = res.Cols
			resp.Rows = res.Rows
			resp.N = res.RowsAffected
			resp.LSN = res.CommitLSN
		}
		rec.Release()
		return res
	case reqSnapshot, reqProvision, reqPull:
		if s.backend == nil {
			resp.Err = "wire: not a backend server"
		} else if err := s.publish(x); err != nil {
			resp.Err = err.Error()
		}
	}
	return nil
}

// publish answers x's replication request, which only a backend serves: each
// is one call on the backend's publisher half. A Pull's answer is only
// encoded, so it is built in pooled slabs (repl.Server.PullInto).
func (s *Server) publish(x *exchange) (err error) {
	req, resp := &x.req, &x.resp
	switch req.Kind {
	case reqSnapshot:
		resp.Snapshot = s.backend.Snapshot().Encode()
	case reqProvision:
		var a repl.Attachment
		a, err = s.backend.Provision(req.Table, req.Columns, req.Filter, req.SubName, req.Target, req.AppliedID, req.FromLSN)
		resp.SubID, resp.History, resp.StartLSN, resp.Resumed, resp.Rows = a.SubID, a.History, a.StartLSN, a.Resumed, a.Rows
	case reqPull:
		x.slabs = pullSlabs.Get().(*repl.Slabs)
		resp.Batches, resp.ThroughLSN, err = s.backend.Repl.PullInto(x.slabs, req.SubID, req.Max, req.AckLSN)
	}
	return err
}

// ServerError is an application-level error reported by the backend (bad
// SQL, missing table, constraint violation). It is terminal: the request was
// delivered and executed, so retrying cannot change the answer.
type ServerError struct{ Msg string }

func (e *ServerError) Error() string { return "wire: server: " + e.Msg }
