// Package core implements MTCache itself: transparent mid-tier database
// caching (the paper's contribution). It wires together the engine, the
// optimizer extensions and the replication pipeline:
//
//   - NewBackend creates the authoritative server with its replication
//     runtime (the publisher, whose pulls read its log);
//   - NewCache performs the paper's §4 setup flow: generate the shadow
//     script from the backend catalog, run it on the cache, import the
//     backend's statistics — producing a shadow database
//     whose tables are empty but whose metadata mirrors the backend;
//   - CREATE CACHED VIEW on a cache automatically derives a matching
//     replication article (select-project over the base table), creates the
//     subscription, and populates the view — "when a cached view is created,
//     we automatically create a replication subscription matching the view";
//   - a pull agent on the cache keeps the views current (§2.2): its owner
//     runs one round with Pull or the agent with StartPulling, in process or
//     deployed alike — the backend holds no reference to a cache, and its one
//     agent truncates its log (Repl.Start);
//   - stored procedures are selectively copied with CopyProcedure (§5.2);
//   - applications connect through Conn; re-pointing a Conn from the backend
//     to a cache is the analog of redirecting an ODBC source (§4) — no
//     application change needed.
//
// There is one cache server. Everything it needs of its backend is the
// BackendClient interface; NewCache hands it a direct in-process link, a
// deployed cache (NewCacheOver) a TCP client from internal/wire.
package core

import (
	"slices"
	"time"

	"mtcache/internal/catalog"
	"mtcache/internal/engine"
	"mtcache/internal/exec"
	"mtcache/internal/repl"
	"mtcache/internal/storage"
	"mtcache/internal/types"
)

// BackendServer is the authoritative database plus its replication runtime.
type BackendServer struct {
	DB   *engine.Database
	Repl *repl.Server
}

// NewBackend creates an empty backend server.
func NewBackend(name string) *BackendServer {
	return newBackend(engine.New(engine.Config{Name: name, Role: engine.Backend}))
}

// NewBackendDurable creates a backend whose store journals commits and DDL
// to an on-disk WAL (group commit, checkpoints) in opts.Dir, recovered from
// whatever the directory holds (engine.Open).
func NewBackendDurable(name string, opts storage.DurabilityOptions) (*BackendServer, error) {
	db, err := engine.Open(engine.Config{Name: name, Role: engine.Backend, Durability: &opts})
	if err != nil {
		return nil, err
	}
	return newBackend(db), nil
}

// newBackend attaches the replication runtime and points sys.repl_status at
// its per-subscription health, replacing the engine's empty default.
func newBackend(db *engine.Database) *BackendServer {
	b := &BackendServer{DB: db, Repl: repl.NewServer(db)}
	_ = db.RegisterVirtualTable("sys.repl_status", engine.ReplStatusColumns(), func() []types.Row {
		hs := b.Repl.Health(time.Now())
		rows := make([]types.Row, 0, len(hs))
		ids := make([]int, 0, len(hs))
		for id := range hs {
			ids = append(ids, id)
		}
		slices.Sort(ids) // in the order they were made
		for _, id := range ids {
			h := hs[id]
			rows = append(rows, types.Row{
				types.NewString(h.Name),
				types.NewString("-> (pull)"),
				types.NewInt(int64(h.Pending)),
				types.NewInt(0), // apply failures are recorded on the subscriber
				types.NewString(""),
				types.NewInt(int64(h.AckedLSN)),
				types.NewFloat(h.StalenessSeconds),
			})
		}
		return rows
	})
	return b
}

// Exec runs a statement on the backend.
func (b *BackendServer) Exec(sqlText string, params exec.Params) (*engine.Result, error) {
	return b.DB.Exec(sqlText, params)
}

// ExecScript runs a multi-statement script on the backend.
func (b *BackendServer) ExecScript(script string) error { return b.DB.ExecScript(script) }

// Snapshot exports the catalog image a cache imports at setup.
func (b *BackendServer) Snapshot() *catalog.Snapshot {
	return catalog.ExportSnapshot(b.DB.Catalog())
}

// Conn is what applications hold: an opaque connection that can point at
// either a backend or a cache. Re-pointing it is the ODBC redirection of
// paper §4 — the application code is identical either way, which is the
// transparency property the paper is named for.
type Conn struct {
	exec func(string, exec.Params) (*engine.Result, error)
	call func(string, exec.Params) (*engine.Result, error)
	name string
}

// ConnectBackend returns a Conn bound to the backend.
func ConnectBackend(b *BackendServer) *Conn {
	return &Conn{
		exec: b.DB.Exec,
		call: b.DB.CallProcedure,
		name: b.DB.Name,
	}
}

// ConnectCache returns a Conn bound to a cache server.
func ConnectCache(c *CacheServer) *Conn {
	return &Conn{
		exec: c.DB.Exec,
		call: c.DB.CallProcedure,
		name: c.DB.Name,
	}
}

// NewConn builds a Conn over arbitrary exec/call functions — how transports
// that live outside this package (the TCP session router, for one) hand
// applications the same opaque connection a local server would.
func NewConn(name string, execFn, callFn func(string, exec.Params) (*engine.Result, error)) *Conn {
	return &Conn{exec: execFn, call: callFn, name: name}
}

// Exec runs one statement. The Result is the caller's: it may Release it
// once it has read it, after which neither it nor its rows may be read.
func (cn *Conn) Exec(sqlText string, params exec.Params) (*engine.Result, error) {
	return cn.exec(sqlText, params)
}

// Call invokes a stored procedure with bound parameters. The caller may
// Release the Result, as Exec's.
func (cn *Conn) Call(proc string, params exec.Params) (*engine.Result, error) {
	return cn.call(proc, params)
}

// Server returns the name of the server this Conn points at.
func (cn *Conn) Server() string { return cn.name }
