// Package wire implements the network transport between cache servers and
// the backend: hand-rolled binary frames over TCP (protocol v4) carrying
//
//   - Query / Exec — the linked-server path (paper §2.1): remote
//     subexpressions and forwarded updates travel as SQL text plus
//     parameters, results come back as rows;
//   - Snapshot — the shadow-database setup payload (§4);
//   - Provision / Resume / Pull — the pull subscription (§2.2): a cache has
//     one, provisions an article of it for each cached view, receives the
//     view's initial population, and then periodically pulls committed
//     transactions, each carrying every view's share. The server answers them
//     with core.BackendServer's publisher methods;
//   - Applied — how far the answering server's data is applied.
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
//	preface, once, each direction: 'M' 'T' 'W' 0x04
//	frame:    uint32 LE payload length (≤ 1 GiB), payload
//
//	request payload:
//	  byte    kind
//	  uvarint ID
//	  uvarint MinLSN
//	  varint  WaitMs
//	  string  TraceID
//	  body, by kind:
//	    Query, Exec       string SQL, uvarint #params, per param: string name, value
//	    Snapshot, Applied —
//	    Provision         string Table, uvarint #columns, per column: string,
//	                      string Filter, string SubName, string Target
//	    Resume            as Provision, then uvarint FromLSN
//	    Pull              varint SubID, varint Max, uvarint AckLSN
//
//	response payload:
//	  uvarint ID
//	  byte    kind (the request's)
//	  byte    flags: 1 stale, 2 error, 4 span
//	  varint  N
//	  uvarint LSN
//	  uvarint Applied
//	  body: string Err if the error flag is set, otherwise by kind:
//	    Query, Exec  span if flagged: string Name, varint StartUTC, varint DurNanos,
//	                   uvarint #attrs, per attr: string K, string V,
//	                   uvarint #children (nesting ≤ 32), children
//	                 uvarint #cols, per col: string Table, string Name, byte Kind
//	                 uvarint #rows, uvarint #values in all rows,
//	                 per row: uvarint #values, values
//	    Snapshot     uvarint len, bytes
//	    Provision    varint SubID, uvarint StartLSN, uvarint #rows, rows
//	    Resume       varint SubID, uvarint StartLSN
//	    Pull         uvarint ThroughLSN, uvarint #batches, per batch:
//	                   uvarint LSN, varint CommitTime (unix nanoseconds), changes
//	    Applied      —
//
// An empty slice, map or string and an absent one are the same bytes and
// decode as nil / "". Every count and length is checked against the bytes
// left in the frame before anything is allocated, a frame must be consumed
// exactly, and a peer that sends a malformed one is disconnected.
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
	"mtcache/internal/storage"
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
// its subscription's applied position, the backend its last committed
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
// The read loop exits on the first transport error or malformed frame;
// in-flight handlers finish (their writes fail harmlessly on the dead
// connection) before the connection is released.
func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	var handlers sync.WaitGroup
	defer handlers.Wait()
	if _, err := conn.Write(preface[:]); err != nil {
		return
	}
	fr := newFrameReader(conn)
	if fr.readPreface() != nil {
		return
	}
	var wmu sync.Mutex // serializes frame writes; guards fw
	fw := frameWriter{w: conn}
	inflight := metrics.Default.Gauge("wire.server_inflight")
	for {
		payload, err := fr.next()
		if err != nil {
			return
		}
		req, err := decodeRequest(payload)
		if err != nil {
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
			resp.ID, resp.Kind = req.ID, req.Kind
			wmu.Lock()
			err := fw.send(appendResponse(fw.begin(), resp))
			if err == errFrameTooLarge {
				resp = &response{ID: req.ID, Kind: req.Kind, Err: err.Error()}
				err = fw.send(appendResponse(fw.begin(), resp))
			}
			wmu.Unlock()
			if err != nil {
				// After a failed or short write the peer can no longer find
				// the next frame boundary; sever the connection so the
				// client fails fast and re-dials.
				conn.Close()
			}
		}()
	}
}

func (s *Server) handle(req *request) *response {
	resp := &response{}
	switch req.Kind {
	case reqQuery, reqExec:
		res, rec, err := s.execDB().ExecSessionTraced(req.SQL, req.Params,
			req.MinLSN, time.Duration(req.WaitMs)*time.Millisecond, req.TraceID)
		resp.Applied = s.appliedLSN()
		if errors.Is(err, engine.ErrSessionStale) {
			// Not an error on the wire: the cache is simply behind the
			// session's watermark. The client reroutes to the backend.
			resp.Stale = true
			return resp
		}
		if err != nil {
			resp.Err = err.Error()
			return resp
		}
		resp.Cols = res.Cols
		resp.Rows = res.Rows
		resp.N = res.RowsAffected
		resp.LSN = res.CommitLSN
		if req.TraceID != "" {
			resp.Span = rec.Tree()
		}
	case reqApplied:
		resp.Applied = s.appliedLSN()
	case reqSnapshot, reqProvision, reqResume, reqPull:
		if s.backend == nil {
			resp.Err = "wire: not a backend server"
		} else if err := s.publish(req, resp); err != nil {
			resp.Err = err.Error()
		}
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
		resp.SubID, resp.StartLSN, resp.Rows, err = s.backend.Provision(req.Table, req.Columns, req.Filter, req.SubName, req.Target)
	case reqResume:
		var ok bool
		resp.StartLSN = req.FromLSN
		if resp.SubID, ok, err = s.backend.Resume(req.Table, req.Columns, req.Filter, req.SubName, req.Target, req.FromLSN); !ok {
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
