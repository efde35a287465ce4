// Package router is the client-side session router for a cache fleet: one
// backend, N mid-tier caches, each application session hash-pinned to a
// cache. It is the missing piece between "a cache server" and "a cache
// tier" — the paper's setup assumes the application connects to *its* MTCache
// instance (§4, ODBC redirection); the router automates that assignment,
// spills to the next live cache when the pinned one is unreachable, and
// enforces read-your-writes across the fleet.
//
// Read-your-writes works by LSN watermarks. Every forwarded update's wire
// response carries the backend commit LSN; the session remembers the highest
// one as its watermark. Reads are sent to the pinned cache gated on that
// watermark (request.MinLSN): the cache waits — kicking pull rounds — until
// its replicated state covers the watermark, or answers Stale, in which case
// the router transparently re-runs the read on the backend, which is always
// current. A session that never writes has watermark 0 and reads its pinned
// cache unconditionally — the common case, which stays as cheap as before.
//
// Failover keeps sessions safe, not just live: a statement is re-routed to
// another cache only while it is provably undelivered (no connection could
// be produced) or it is a read (idempotent). A write that may have reached
// a server is never replayed elsewhere. The session watermark lives in the
// router, not the cache, so failover preserves read-your-writes: the next
// cache must catch up to the same watermark before serving the session's
// reads.
package router

import (
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"mtcache/internal/core"
	"mtcache/internal/engine"
	"mtcache/internal/exec"
	"mtcache/internal/metrics"
	"mtcache/internal/sql"
	"mtcache/internal/storage"
	"mtcache/internal/wire"
)

// Config describes the fleet a Router fronts.
type Config struct {
	// Backend is the backend server's wire address (required): the fallback
	// for stale reads, the direct target when no cache is reachable, and the
	// only target when Caches is empty.
	Backend string
	// Caches are the cache servers' wire addresses, in fleet order. Sessions
	// hash-pin over this slice; its order must be the same on every router
	// instance for pins to agree.
	Caches []string
	// PoolSize is the per-target connection pool size (default 2).
	PoolSize int
	// Timeout bounds each round trip (default 2s). It must exceed Watermark,
	// or gated reads would time out while the cache is still allowed to wait.
	Timeout time.Duration
	// Watermark bounds how long a cache may block a gated read waiting for
	// replication to reach the session watermark before answering Stale
	// (default 150ms). Longer favors cache locality; shorter favors latency
	// via backend bypass.
	Watermark time.Duration
	// Reg receives the router metrics (nil = metrics.Default).
	Reg *metrics.Registry
}

// target is one routable server: an address plus its connection pool.
type target struct {
	addr string
	pool *wire.Pool
}

// Router routes sessions over a cache fleet. It is cheap to share: all
// state is per-session or per-target.
type Router struct {
	cfg     Config
	backend *target
	caches  []*target
	reg     *metrics.Registry
	nextID  atomic.Uint64
}

// New builds a router over the fleet. No connection is dialed until the
// first statement (pools fill lazily), so a router can be built before its
// caches finish booting.
func New(cfg Config) (*Router, error) {
	if cfg.Backend == "" {
		return nil, fmt.Errorf("router: no backend address")
	}
	if cfg.PoolSize < 1 {
		cfg.PoolSize = 2
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Second
	}
	if cfg.Watermark <= 0 {
		cfg.Watermark = 150 * time.Millisecond
	}
	if cfg.Reg == nil {
		cfg.Reg = metrics.Default
	}
	r := &Router{cfg: cfg, reg: cfg.Reg}
	r.backend = &target{addr: cfg.Backend, pool: wire.NewPool(cfg.Backend, cfg.PoolSize, cfg.Timeout, cfg.Reg)}
	for _, addr := range cfg.Caches {
		r.caches = append(r.caches, &target{addr: addr, pool: wire.NewPool(addr, cfg.PoolSize, cfg.Timeout, cfg.Reg)})
	}
	return r, nil
}

// Close closes every pooled connection.
func (r *Router) Close() {
	r.backend.pool.Close()
	for _, t := range r.caches {
		t.pool.Close()
	}
}

// Session opens a new session, hash-pinned to a cache. Sessions are not
// goroutine-safe; open one per logical client.
func (r *Router) Session() *Session {
	id := r.nextID.Add(1)
	s := &Session{r: r, id: id}
	if n := len(r.caches); n > 0 {
		h := fnv.New64a()
		var b [8]byte
		for i := 0; i < 8; i++ {
			b[i] = byte(id >> (8 * i))
		}
		h.Write(b[:])
		s.pin = int(h.Sum64() % uint64(n))
	}
	r.reg.Gauge("router.sessions_pinned").Add(1)
	return s
}

// Session is one application session: a pinned cache plus the session's
// read-your-writes watermark. It implements the same Exec/Call surface as a
// local server connection; Conn wraps it as a core.Conn so application code
// (the TPC-W driver included) cannot tell it is talking to a fleet.
type Session struct {
	r  *Router
	id uint64

	mu        sync.Mutex
	pin       int         // index into r.caches the session currently sticks to
	watermark storage.LSN // highest backend commit LSN this session has written
}

// Watermark returns the session's current read-your-writes watermark.
func (s *Session) Watermark() storage.LSN {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.watermark
}

// Conn wraps the session as an opaque application connection.
func (s *Session) Conn() *core.Conn {
	return core.NewConn(fmt.Sprintf("router-session-%d", s.id), s.Exec, s.Call)
}

// Exec routes one statement.
func (s *Session) Exec(sqlText string, params exec.Params) (*engine.Result, error) {
	return s.do(sqlText, params)
}

// Call invokes a stored procedure by name. It travels as the call's shape —
// EXEC proc @p = @p for each parameter (sql.CallShape), memoized per
// procedure and parameter-name set — with the values in the request's
// named-parameter map, so no call is rendered or parsed as literal text: the
// receiving server's front door resolves the shape to one shared statement
// and runs it wherever the procedure lives, forwarding the same shape and map
// to the backend when it has no copy.
func (s *Session) Call(proc string, params exec.Params) (*engine.Result, error) {
	return s.do(sql.CallShape(proc, params), params)
}

// do routes one statement: the pinned cache first, spilling across the
// fleet, the backend last. Every statement gates on the session watermark. A
// read (sql.ReadOnly; an EXEC is not one, procedures may write) may be
// replayed on another server after a transport failure; anything else is
// replayed only while provably undelivered.
func (s *Session) do(sqlText string, params exec.Params) (*engine.Result, error) {
	s.mu.Lock()
	pin := s.pin
	watermark := s.watermark
	s.mu.Unlock()

	n := len(s.r.caches)
	for off := 0; off < n; off++ {
		idx := (pin + off) % n
		t := s.r.caches[idx]
		c, err := t.pool.Get()
		if err != nil {
			// Connect phase: nothing was delivered, spilling is safe for
			// reads AND writes.
			s.r.reg.Counter("router.failovers").Add(1)
			continue
		}
		res, err := c.QuerySession(sqlText, params, watermark, s.r.cfg.Watermark)
		if err != nil {
			if _, ok := err.(*wire.ServerError); ok {
				// The statement executed and the server rejected it;
				// rerouting cannot change the answer.
				return nil, err
			}
			if !sql.ReadOnly(sqlText) {
				// A transport failure after dispatch: the write may have
				// committed on the backend even though the ack was lost.
				// Replaying it elsewhere could apply it twice.
				return nil, err
			}
			s.r.reg.Counter("router.failovers").Add(1)
			continue
		}
		if res.Stale {
			// The cache could not reach the session watermark in time; the
			// backend is always current. Keep the pin — the cache will have
			// caught up by the session's next read.
			s.r.reg.Counter("router.ryw_bypass").Add(1)
			break
		}
		s.settle(idx, res.CommitLSN)
		return sessionResultToEngine(res), nil
	}

	// No cache answered (or none configured): the backend serves everything,
	// trivially satisfying any watermark.
	s.r.reg.Counter("router.backend_direct").Add(1)
	c, err := s.r.backend.pool.Get()
	if err != nil {
		return nil, err
	}
	res, err := c.QuerySession(sqlText, params, 0, 0)
	if err != nil {
		return nil, err
	}
	s.settle(-1, res.CommitLSN)
	return sessionResultToEngine(res), nil
}

// settle records a successful statement: advance the watermark past
// commitLSN, the commit of any write it performed, and re-pin the session to
// the cache that answered (idx >= 0) so subsequent statements stick to the
// spill target instead of re-timing-out against a dead pin.
func (s *Session) settle(idx int, commitLSN storage.LSN) {
	s.mu.Lock()
	if commitLSN > s.watermark {
		s.watermark = commitLSN
	}
	if idx >= 0 && idx != s.pin {
		s.pin = idx
		s.r.reg.Counter("router.repins").Add(1)
	}
	s.mu.Unlock()
}

func sessionResultToEngine(res wire.SessionResult) *engine.Result {
	return &engine.Result{
		Cols:         res.Cols,
		Rows:         res.Rows,
		RowsAffected: res.N,
		CommitLSN:    res.CommitLSN,
	}
}
