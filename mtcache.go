// Package mtcache is a reproduction of "MTCache: Transparent Mid-Tier
// Database Caching in SQL Server" (Larson, Goldstein, Zhou — SIGMOD 2003),
// built as a self-contained Go library.
//
// The package implements the complete stack the paper describes: a
// relational engine (parser, catalog, statistics, B-tree storage, write-
// ahead log, cost-based optimizer, Volcano executor), SQL Server-style
// transactional replication (articles, log reader, distribution agents),
// and MTCache itself — transparent mid-tier caching where
//
//   - a cache server holds a shadow database: the backend's schema,
//     statistics with empty tables;
//   - cached data is declared with CREATE CACHED VIEW; a matching
//     replication subscription is provisioned and populated automatically;
//   - every query is optimized cost-based with DataLocation as a physical
//     property, choosing local, remote or mixed execution;
//   - parameterized queries get dynamic plans (ChoosePlan) whose active
//     branch is selected at run time from the parameter values;
//   - inserts, updates, deletes and unknown stored procedures forward to
//     the backend transparently.
//
// Quick start:
//
//	backend := mtcache.NewBackend("prod")
//	backend.ExecScript(`CREATE TABLE customer (cid INT PRIMARY KEY, cname VARCHAR(40));`)
//	// ... load data ...
//	cache, _ := mtcache.NewCache("edge1", backend, nil)
//	cache.CreateCachedView(`CREATE CACHED VIEW hot AS
//	    SELECT cid, cname FROM customer WHERE cid <= 1000`)
//	conn := mtcache.ConnectCache(cache) // applications repoint here — nothing else changes
//	res, _ := conn.Exec("SELECT cname FROM customer WHERE cid = @cid",
//	    mtcache.Params{"cid": mtcache.Int(42)})
package mtcache

import (
	"time"

	"mtcache/internal/advisor"
	"mtcache/internal/core"
	"mtcache/internal/engine"
	"mtcache/internal/exec"
	"mtcache/internal/opt"
	"mtcache/internal/resilience"
	"mtcache/internal/router"
	"mtcache/internal/storage"
	"mtcache/internal/types"
	"mtcache/internal/wire"
)

// Backend is the authoritative database server with its replication runtime.
type Backend = core.BackendServer

// Cache is an MTCache mid-tier cache server: the same server whether it was
// handed an in-process backend link (NewCache) or a TCP client
// (NewRemoteCache).
type Cache = core.CacheServer

// Conn is an application connection; it can point at a backend or a cache
// and the application cannot tell the difference (the transparency the
// paper is named for).
type Conn = core.Conn

// Result is the outcome of one statement: rows for queries, an affected
// count for DML, plus executor counters. It owns the storage of its rows —
// row headers, values and the bytes of their strings — which its Release
// recycles: a caller that keeps a row, or a string of one, past Release
// copies it first.
type Result = engine.Result

// Params carries named parameter values (@name) for a statement.
type Params = exec.Params

// Value is one SQL value.
type Value = types.Value

// Options tunes the optimizer (remote cost factor, dynamic plans,
// ChoosePlan pull-up, mixed results, transfer costs).
type Options = opt.Options

// NewBackend creates an empty backend server.
func NewBackend(name string) *Backend { return core.NewBackend(name) }

// DurabilityOptions configures a durable store: data directory, segment size
// and automatic checkpointing. A durable store commits by group commit: a
// commit returns once an fsync covers it, and concurrent commits share one.
type DurabilityOptions = storage.DurabilityOptions

// NewBackendDurable creates a backend whose commits and DDL are journaled to
// an on-disk WAL with group commit and checkpoints, recovered from whatever
// opts.Dir holds: a previous run's tables, rows, views and procedures, or
// nothing.
func NewBackendDurable(name string, opts DurabilityOptions) (*Backend, error) {
	return core.NewBackendDurable(name, opts)
}

// NewCache provisions an in-process cache against a backend: shadow schema,
// shadowed statistics, update forwarding, cached-view hook.
// The backend keeps no reference to it: Cache.Pull runs one pull round and
// Cache.StartPulling its agent, as for a cache built with NewRemoteCache.
// options may be nil for the paper-faithful defaults.
func NewCache(name string, backend *Backend, options *Options) (*Cache, error) {
	return core.NewCache(name, backend, options)
}

// DefaultOptions returns the paper-faithful optimizer configuration.
func DefaultOptions() Options { return opt.DefaultOptions() }

// ConnectBackend binds a Conn to the backend server.
func ConnectBackend(b *Backend) *Conn { return core.ConnectBackend(b) }

// ConnectCache binds a Conn to a cache server; this is the analog of
// redirecting an application's ODBC source (paper §4).
func ConnectCache(c *Cache) *Conn { return core.ConnectCache(c) }

// Int builds an INT value.
func Int(i int64) Value { return types.NewInt(i) }

// Float builds a FLOAT value.
func Float(f float64) Value { return types.NewFloat(f) }

// Str builds a VARCHAR value.
func Str(s string) Value { return types.NewString(s) }

// Bool builds a BOOL value.
func Bool(b bool) Value { return types.NewBool(b) }

// Time builds a DATETIME value.
func Time(t time.Time) Value { return types.NewTime(t) }

// Null is the SQL NULL value.
var Null = types.Null

// ExplainBackend returns the optimizer's plan for a query on the backend.
func ExplainBackend(b *Backend, query string) (string, error) { return b.DB.Explain(query) }

// ExplainCache returns the optimizer's plan for a query on a cache —
// showing DataTransfer boundaries, ChoosePlan branches and view usage.
func ExplainCache(c *Cache, query string) (string, error) { return c.DB.Explain(query) }

// WireServer exposes a backend (ServeBackend) or a cache (ServeCache) over
// TCP: the linked-server protocol, and for a backend the pull subscriptions.
// Requests are handled concurrently, bounded by WireServerOptions.MaxInFlight.
type WireServer = wire.Server

// WireServerOptions tunes a WireServer that ServeCache starts.
type WireServerOptions = wire.ServerOptions

// WireClient is a multiplexed TCP connection to a backend: any number of
// requests may be in flight concurrently, matched to responses by
// correlation ID. It fails hard on the first transport error; use
// DialBackendResilient for pooling and fault tolerance.
type WireClient = wire.Client

// ConnectionPool is a sized set of multiplexed backend connections
// (re-dialed lazily when broken); ResilientClient uses one internally.
type ConnectionPool = wire.Pool

// BackendClient is the client surface a cache server needs of its backend —
// satisfied by both WireClient and ResilientClient.
type BackendClient = wire.BackendClient

// ResilientClient is a fault-tolerant backend link: a pool of multiplexed
// connections with per-request deadlines, bounded exponential backoff with
// jitter, and automatic lazy re-dial of broken pooled connections.
type ResilientClient = wire.ResilientClient

// RetryPolicy tunes the resilient client's retry behaviour and pool size.
type RetryPolicy = resilience.Policy

// DefaultRetryPolicy returns the standard retry policy (4 attempts, 10 ms
// base delay doubling to a 500 ms cap with ±25% jitter, 2 s request
// timeout, 4 pooled connections).
func DefaultRetryPolicy() RetryPolicy { return resilience.DefaultPolicy() }

// ErrBackendDown reports an unreachable backend (errors.Is-comparable).
var ErrBackendDown = resilience.ErrBackendDown

// ErrTimeout reports a request that exceeded its deadline
// (errors.Is-comparable).
var ErrTimeout = resilience.ErrTimeout

// RemoteCache is Cache; the name remains for callers that built one over TCP.
type RemoteCache = wire.RemoteCache

// ServeBackend starts a TCP server for a backend on addr (use
// "127.0.0.1:0" to pick a free port; see WireServer.Addr).
func ServeBackend(b *Backend, addr string) (*WireServer, error) { return wire.Serve(b, addr) }

// DialBackend connects to a backend's wire server.
func DialBackend(addr string, timeout time.Duration) (*WireClient, error) {
	return wire.Dial(addr, timeout)
}

// DialBackendResilient connects to a backend's wire server with retry,
// backoff and automatic re-dial under the given policy.
func DialBackendResilient(addr string, policy RetryPolicy) (*ResilientClient, error) {
	return wire.DialResilient(addr, policy, nil)
}

// NewRemoteCache provisions a cache over a TCP client connection (bare or
// resilient).
func NewRemoteCache(name string, client BackendClient, options *Options) (*RemoteCache, error) {
	return wire.NewRemoteCache(name, client, options)
}

// NewRemoteCacheDurable is NewRemoteCache plus a data directory the cache
// checkpoints to: on restart, cached views restore from the checkpoint and
// resume their change streams at the checkpointed LSN instead of reseeding.
func NewRemoteCacheDurable(name string, client BackendClient, options *Options, dataDir string) (*RemoteCache, error) {
	return wire.NewRemoteCacheDurable(name, client, options, dataDir)
}

// ServeCache exposes a cache server over TCP so session routers can send it
// application traffic (queries gated on the session's read-your-writes
// watermark, forwarded DML and procedure calls).
func ServeCache(c *RemoteCache, addr string, opts WireServerOptions) (*WireServer, error) {
	return wire.ServeCache(c, addr, opts)
}

// SessionRouter routes application sessions over a cache fleet: each session
// is hash-pinned to a cache, spills to the next live cache on failure, and
// reads its own writes — the router tracks the backend commit LSN of every
// update and gates reads on the cache having replicated that far (bypassing
// to the backend when it has not).
type SessionRouter = router.Router

// SessionRouterConfig describes the fleet a SessionRouter fronts: the
// backend address, the cache addresses in fleet order, and the pool/timeout/
// staleness-wait knobs.
type SessionRouterConfig = router.Config

// RouterSession is one application session routed over the fleet; its Conn
// method yields the same opaque connection a local server would.
type RouterSession = router.Session

// NewSessionRouter builds a router over a fleet of already-serving cache
// processes plus their backend.
func NewSessionRouter(cfg SessionRouterConfig) (*SessionRouter, error) { return router.New(cfg) }

// WorkloadItem is one weighted statement for the caching advisor.
type WorkloadItem = advisor.WorkloadItem

// Advice is the caching advisor's output: recommended cached views and
// stored-procedure placements.
type Advice = advisor.Advice

// Advise analyzes a weighted workload against a backend and recommends a
// caching strategy — the design tool the paper lists as future work (§7).
func Advise(b *Backend, workload []WorkloadItem) (*Advice, error) {
	return advisor.Analyze(b.DB.Catalog(), workload, advisor.DefaultOptions())
}
