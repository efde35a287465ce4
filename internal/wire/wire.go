// Package wire implements the network transport between cache servers and
// the backend: a length-free gob-framed TCP protocol carrying
//
//   - Query / Exec — the linked-server path (paper §2.1): remote
//     subexpressions and forwarded updates travel as SQL text plus
//     parameters, results come back as rows;
//   - Snapshot — the shadow-database setup payload (§4);
//   - Provision / Resume / Pull — pull subscriptions (§2.2): a cache
//     provisions an article+subscription for a cached view, receives the
//     initial population, and then periodically pulls committed transactions.
//     The server answers them with core.BackendServer's publisher methods.
//
// One connection is multiplexed: every request carries a correlation ID
// that the server echoes on the response, so many requests can be in flight
// concurrently and responses may return out of order. The server handles
// each request in its own goroutine, bounded by a server-wide semaphore;
// responses are serialized onto the connection under a per-connection write
// lock. Matching is by ID only: the pre-multiplexing (v1) protocol, whose
// servers echoed no ID and were matched in send order, is not supported —
// the client drops an ID-less response like any other unmatched one.
//
// The cache server itself lives in internal/core. Its in-process link and
// this package's TCP clients implement the same core.BackendClient interface;
// a cache cannot tell them apart.
package wire

import (
	"encoding/gob"
	"errors"
	"net"
	"sync"
	"time"

	"mtcache/internal/core"
	"mtcache/internal/engine"
	"mtcache/internal/exec"
	"mtcache/internal/metrics"
	"mtcache/internal/repl"
	"mtcache/internal/storage"
	"mtcache/internal/trace"
	"mtcache/internal/types"
)

// reqKind enumerates request types.
type reqKind uint8

const (
	reqQuery reqKind = iota
	reqExec
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

// request is one client->server frame.
type request struct {
	Kind   reqKind
	SQL    string
	Params map[string]types.Value

	// Provision fields.
	Table   string
	Columns []string
	Filter  string // deparsed predicate, "" = none
	SubName string

	// Pull fields. AckLSN acknowledges every batch at or below it from the
	// previous pull; the server deletes acknowledged batches and re-delivers
	// unacknowledged ones, making Pull safe to retry (at-least-once delivery,
	// deduplicated by LSN on the subscriber).
	SubID  int
	Max    int
	AckLSN storage.LSN

	// TraceID joins the server-side execution to the caller's trace (""
	// disables tracing). Appended after the original fields: gob zero-values
	// it when absent from an older client's stream and older servers skip it,
	// so both directions stay compatible.
	TraceID string

	// ID correlates the response with this request on a multiplexed
	// connection. Client IDs start at 1. Same append-only compatibility
	// rules as TraceID.
	ID uint64

	// FromLSN is the resume position for reqResume: the first LSN the
	// restarted subscriber has not applied. Same append-only compatibility
	// rules as TraceID.
	FromLSN storage.LSN

	// MinLSN gates reqQuery/reqExec on session freshness: a cache must have
	// applied at least this LSN before answering, or report Stale instead of
	// serving data the session's own writes have not reached. Zero disables
	// the gate. Same append-only compatibility rules as
	// TraceID.
	MinLSN storage.LSN

	// WaitMs bounds how long the server may block waiting for MinLSN to be
	// applied before giving up with Stale. Same append-only compatibility
	// rules as TraceID.
	WaitMs int64
}

// response is one server->client frame.
type response struct {
	Err  string
	Cols []exec.ColInfo
	Rows []types.Row
	N    int64

	Snapshot []byte

	SubID    int
	StartLSN storage.LSN
	Batches  []repl.TxnBatch

	// Span carries the server-side span tree for traced Query/Exec requests
	// (nil otherwise). Same append-only compatibility rules as
	// request.TraceID.
	Span *trace.WireSpan

	// ID echoes request.ID. Same append-only compatibility rules as
	// request.TraceID.
	ID uint64

	// LSN is the commit LSN of any write the request performed on the
	// backend (0 for pure reads) — the session's read-your-writes watermark.
	// Same append-only compatibility rules as request.TraceID.
	LSN storage.LSN

	// Applied is the LSN the answering server has applied through (for a
	// cache, the floor across its pull subscriptions; for the backend, its
	// last committed LSN). Same append-only compatibility rules as
	// request.TraceID.
	Applied storage.LSN

	// Stale reports that a MinLSN-gated request was refused because the
	// server could not reach the session watermark within WaitMs. The
	// response carries no rows; the client should retry against the backend.
	// Same append-only compatibility rules as request.TraceID.
	Stale bool

	// ThroughLSN on a pull response is the position the subscription's change
	// stream is complete through: every relevant change at or below it has
	// been delivered in or before this response. It can run ahead of the last
	// batch's LSN when the log reader filtered intervening transactions that
	// did not touch the article. Same append-only compatibility rules as
	// request.TraceID.
	ThroughLSN storage.LSN
}

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
// Resume, Pull) are answered only by a backend.
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
// backend speaks: clients Query/Exec against the cache exactly as they would
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

// appliedLSN reports how far this server's data is applied: a cache answers
// the floor across its pull subscriptions, the backend its last committed
// LSN (WAL().End() is the LSN the next commit will receive).
func (s *Server) appliedLSN() storage.LSN {
	if s.cache != nil {
		return s.cache.AppliedLSN()
	}
	return s.backend.DB.Store().WAL().End() - 1
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

// serveConn demultiplexes one connection: each decoded request is handled
// in its own goroutine (bounded by the server semaphore) and its response —
// tagged with the request's correlation ID — is written back under a
// per-connection write lock, in completion order rather than arrival order.
// The decode loop exits on the first transport error; in-flight handlers
// finish (their writes fail harmlessly on the dead connection) before the
// connection is released.
func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	dec := gob.NewDecoder(conn)
	enc := gob.NewEncoder(conn)
	var wmu sync.Mutex
	var handlers sync.WaitGroup
	defer handlers.Wait()
	inflight := metrics.Default.Gauge("wire.server_inflight")
	for {
		req := new(request)
		if err := dec.Decode(req); err != nil {
			return
		}
		s.sem <- struct{}{}
		inflight.Add(1)
		handlers.Add(1)
		go func() {
			defer handlers.Done()
			defer func() {
				inflight.Add(-1)
				<-s.sem
			}()
			resp := s.handle(req)
			resp.ID = req.ID
			wmu.Lock()
			err := enc.Encode(resp)
			wmu.Unlock()
			if err != nil {
				// A failed or partial write corrupts the gob stream for
				// every multiplexed response after it; sever the connection
				// so the client fails fast and re-dials.
				conn.Close()
			}
		}()
	}
}

func (s *Server) handle(req *request) *response {
	resp := &response{}
	switch req.Kind {
	case reqQuery, reqExec:
		db := s.execDB()
		if req.TraceID != "" {
			res, tr, err := db.ExecTraced(req.SQL, req.Params, req.TraceID)
			if err != nil {
				resp.Err = err.Error()
				return resp
			}
			resp.Cols = res.Cols
			resp.Rows = res.Rows
			resp.N = res.RowsAffected
			resp.LSN = res.CommitLSN
			resp.Span = trace.Export(tr.Root)
			return resp
		}
		var res *engine.Result
		var err error
		if req.MinLSN > 0 {
			res, err = db.ExecSession(req.SQL, req.Params, req.MinLSN, time.Duration(req.WaitMs)*time.Millisecond)
			if errors.Is(err, engine.ErrSessionStale) {
				// Not an error on the wire: the cache is simply behind the
				// session's watermark. The client reroutes to the backend.
				resp.Stale = true
				resp.Applied = s.appliedLSN()
				return resp
			}
		} else {
			res, err = db.Exec(req.SQL, req.Params)
		}
		if err != nil {
			resp.Err = err.Error()
			return resp
		}
		resp.Cols = res.Cols
		resp.Rows = res.Rows
		resp.N = res.RowsAffected
		resp.LSN = res.CommitLSN
		resp.Applied = s.appliedLSN()
	case reqApplied:
		resp.Applied = s.appliedLSN()
	case reqSnapshot, reqProvision, reqResume, reqPull:
		if s.backend == nil {
			resp.Err = "wire: not a backend server"
		} else if err := s.publish(req, resp); err != nil {
			resp.Err = err.Error()
		}
	default:
		resp.Err = "wire: unknown request kind"
	}
	return resp
}

// publish answers the replication requests, which only a backend serves:
// each is one call on the backend's publisher half.
func (s *Server) publish(req *request, resp *response) (err error) {
	switch req.Kind {
	case reqSnapshot:
		resp.Snapshot, err = s.backend.Snapshot().Encode()
	case reqProvision:
		resp.SubID, resp.StartLSN, resp.Rows, err = s.backend.Provision(req.Table, req.Columns, req.Filter, req.SubName)
	case reqResume:
		var ok bool
		resp.StartLSN = req.FromLSN
		if resp.SubID, ok, err = s.backend.Resume(req.Table, req.Columns, req.Filter, req.SubName, req.FromLSN); !ok {
			resp.SubID = -1 // no error: the cache must reseed via Provision
		}
	case reqPull:
		resp.Batches, resp.ThroughLSN, err = s.backend.Pull(req.SubID, req.Max, req.AckLSN)
	}
	return err
}

// ServerError is an application-level error reported by the backend (bad
// SQL, missing table, constraint violation). It is terminal: the request was
// delivered and executed, so retrying cannot change the answer.
type ServerError struct{ Msg string }

func (e *ServerError) Error() string { return "wire: server: " + e.Msg }
