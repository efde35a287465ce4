// Package engine binds the parser, catalog, storage, optimizer and executor
// into a Database: the unit that plays either the backend server or an
// MTCache server. The engine implements:
//
//   - DDL: CREATE TABLE / INDEX / VIEW / MATERIALIZED VIEW / PROCEDURE, DROP;
//   - DML: INSERT / UPDATE / DELETE — executed locally on a backend, on one
//     write plan per statement shape, and transparently forwarded to the
//     backend on a cache as that shape (paper §5: "all insert, delete and
//     update requests against a shadow table are immediately converted to
//     remote ... and forwarded");
//   - queries through the cost-based optimizer with a plan cache — dynamic
//     plans make the cache effective for parameterized queries because one
//     cached plan serves all parameter values (paper §5.1);
//   - stored procedures: run locally when present, transparently forwarded
//     otherwise (paper §5.2);
//   - synchronous maintenance of local materialized views, so backend MVs
//     stay consistent within the updating transaction and their changes are
//     visible to the replication log reader.
package engine

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"mtcache/internal/catalog"
	"mtcache/internal/exec"
	"mtcache/internal/imcache"
	"mtcache/internal/metrics"
	"mtcache/internal/opt"
	"mtcache/internal/resilience"
	"mtcache/internal/sql"
	"mtcache/internal/storage"
	"mtcache/internal/trace"
	"mtcache/internal/types"
)

// Role distinguishes backend databases from mid-tier caches.
type Role uint8

const (
	// Backend holds the authoritative data.
	Backend Role = iota
	// Cache is an MTCache shadow database: empty shadow tables plus cached
	// views maintained by replication.
	Cache
)

// Database is one database server instance (backend or cache).
type Database struct {
	Name string

	cat   *catalog.Catalog
	store *storage.Store
	role  Role
	opts  opt.Options

	// remote is the linked backend server (cache role only).
	remote exec.RemoteClient

	// plansMu guards plans, the plan cache: SQL text → planEntry, keyed by a
	// front-door shape (autoparam.go) or by a statement's deparse (entryFor).
	// A SELECT's entry also carries its query-store statistics (querystore.go).
	plansMu sync.Mutex
	plans   *lru[*planEntry]
	autoOff bool // tests: parse and plan every ad-hoc text as written

	// slowNanos is the latency at which a shape arms slow-query capture
	// (SetSlowThreshold); <= 0 turns capture off.
	slowNanos atomic.Int64

	// viewMaps holds the compiled definition of every materialized view this
	// database maintains (maintainViews): stored by CREATE MATERIALIZED VIEW,
	// deleted by DROP, and dependent on nothing else — there is nothing to
	// invalidate.
	viewMaps sync.Map // map[*catalog.Table]*opt.ChangeMap

	// imc is the intermediate-result cache, a cache server's alone (nil on a
	// backend); imcOn gates it at runtime so benchmarks can toggle phases.
	imc   *imcache.Cache
	imcOn atomic.Bool

	// onCachedViewCreate is invoked when CREATE CACHED VIEW runs, so the
	// MTCache layer can provision the replication subscription (paper §4).
	onCachedViewCreate func(view *catalog.Table) error

	// stalenessOf reports the cache's replication staleness in seconds, every
	// cached view's: they share one replication cursor. Wired by the MTCache
	// layer; until then it is unknown (false), which no bound admits.
	stalenessOf func() (float64, bool)

	// sessionGate waits (bounded by the budget) until the cache has applied
	// every replicated commit at or below min, reporting the applied LSN it
	// reached and whether the bound was met. Wired by the MTCache layer; it
	// backs ExecSession's read-your-writes guarantee.
	sessionGate func(min storage.LSN, budget time.Duration) (storage.LSN, bool)

	// traces is this server's trace ring: copies of its last client
	// statements' records (publish).
	traces *trace.Collector
}

// Config configures a new Database.
type Config struct {
	Name    string
	Role    Role
	Remote  exec.RemoteClient // backend link; required for Cache role
	Options *opt.Options      // nil = opt.DefaultOptions

	// Durability, when non-nil, backs the store with an on-disk WAL in the
	// given directory (see storage.DurabilityOptions). Only honored by Open;
	// New ignores it because enabling durability can fail.
	Durability *storage.DurabilityOptions
}

// New creates an empty database.
func New(cfg Config) *Database {
	opts := opt.DefaultOptions()
	if cfg.Options != nil {
		opts = *cfg.Options
	}
	db := &Database{
		Name:   cfg.Name,
		cat:    catalog.New(),
		store:  storage.NewStore(),
		role:   cfg.Role,
		opts:   opts,
		remote: cfg.Remote,
		plans:  newLRU[*planEntry](planCacheCap, planEvicted),
		traces: trace.NewCollector(0),
	}
	if cfg.Role == Cache {
		db.imc = imcache.New(imcache.Options{}) // 64 MiB, admit on the 2nd execution
		db.imcOn.Store(true)
	}
	db.SetSlowThreshold(100 * time.Millisecond)
	db.SetStalenessProbe(func() (float64, bool) { return 0, false })
	db.registerSystemTables()
	return db
}

// Open is New plus durability: when cfg.Durability is set the store's WAL
// becomes a segmented on-disk log (group commit, checkpoints) rooted at
// cfg.Durability.Dir, and the database recovers whatever the directory holds:
// the latest checkpoint's catalog and rows, then the log's DDL and rows past
// it, in LSN order (storage.Store.Recover, whose statistics
// Store().Recovered() reports). An empty directory is an empty database.
func Open(cfg Config) (*Database, error) {
	db := New(cfg)
	if cfg.Durability == nil {
		return db, nil
	}
	if err := db.store.EnableDurability(*cfg.Durability); err != nil {
		return nil, err
	}
	err := db.store.Recover(schema{db})
	if err == nil {
		err = db.Analyze()
	}
	if err != nil {
		db.store.Close() //nolint:errcheck — the recovery error is the one to report
		return nil, err
	}
	return db, nil
}

// schema is a database as its store's storage.Schema: the catalog a
// checkpoint image carries, as catalog.ExportSnapshot renders it (the shadow
// script plus every procedure's text), and the DDL path a replay runs.
type schema struct{ db *Database }

func (s schema) Script() string {
	var b strings.Builder
	b.WriteString(catalog.ShadowScript(s.db.cat))
	for _, p := range s.db.cat.Procedures() {
		b.WriteString(p.Text)
		b.WriteString(";\n")
	}
	return b.String()
}

func (s schema) Exec(ddl string) error {
	stmts, err := sql.ParseScript(ddl)
	if err != nil {
		return err
	}
	for _, stmt := range stmts {
		res, err := s.db.execDDL(stmt)
		if err != nil {
			return fmt.Errorf("%s: %w", sql.Deparse(stmt), err)
		}
		res.Release()
	}
	return nil
}

// Checkpoint snapshots the heap to the durable data directory, bounding both
// recovery replay time and WAL disk growth.
func (db *Database) Checkpoint() (storage.LSN, error) { return db.store.Checkpoint() }

// CloseStore flushes and closes the durable log (no-op for an in-memory
// database).
func (db *Database) CloseStore() error { return db.store.Close() }

// Catalog exposes the catalog (read-mostly; DDL goes through Exec).
func (db *Database) Catalog() *catalog.Catalog { return db.cat }

// Store exposes the storage manager (used by replication and tests).
func (db *Database) Store() *storage.Store { return db.store }

// Traces returns this server's trace ring, behind sys.traces,
// /debug/traces, /debug/trace/last and \trace: the records of the client
// statements it ran, and of no other server's.
func (db *Database) Traces() *trace.Collector { return db.traces }

// tracesByID reads a server's records of one trace, oldest first.
const tracesByID = "SELECT * FROM sys.traces WHERE trace_id = @id"

// Stitch renders r, one of this server's records, with the backend's half of
// each remote round trip it made (trace.Record.Stitch): the backend's records
// for r's ID come from its sys.traces, read with one ordinary query on the
// backend link. Only a reader pays for it, and only for a record with a
// remote span. That query is a statement of the backend's own, and its ring
// keeps it like any other.
func (db *Database) Stitch(r *trace.Record) *trace.WireSpan {
	return r.Stitch(func(id uint64) ([]trace.Record, error) {
		if db.remote == nil {
			return nil, fmt.Errorf("engine: %s has no backend link", db.Name)
		}
		rs, err := db.remote.Query(tracesByID, exec.Params{"id": types.NewString(trace.FormatID(id))})
		if err != nil {
			return nil, err
		}
		kept := make([]trace.Record, len(rs.Rows))
		for i, row := range rs.Rows {
			if kept[i], err = trace.FromRow(row); err != nil {
				return nil, err
			}
		}
		return kept, nil
	})
}

// LastTrace returns this server's most recent record and its stitched tree
// (Stitch), what \trace and /debug/trace/last show; nil, nil when the ring
// keeps none.
func (db *Database) LastTrace() (*trace.Record, *trace.WireSpan) {
	r := db.traces.Last()
	if r == nil {
		return nil, nil
	}
	return r, db.Stitch(r)
}

// SetRemote installs the backend link on a cache.
func (db *Database) SetRemote(rc exec.RemoteClient) { db.remote = rc }

// SetOptions replaces the optimizer options and clears the plan cache.
func (db *Database) SetOptions(o opt.Options) {
	db.opts = o
	db.InvalidatePlans()
}

// Options returns the current optimizer options.
func (db *Database) Options() opt.Options { return db.opts }

// OnCachedViewCreate registers the cached-view provisioning hook.
func (db *Database) OnCachedViewCreate(fn func(view *catalog.Table) error) {
	db.onCachedViewCreate = fn
}

// SetStalenessProbe wires the cache's staleness source used by WITH
// FRESHNESS queries.
func (db *Database) SetStalenessProbe(fn func() (float64, bool)) {
	db.stalenessOf = fn
}

// ErrSessionStale reports that a session-gated statement could not be served
// because the cache has not yet applied the session's watermark LSN within
// the wait budget. The statement did not execute; the caller (typically a
// session router) should retry against the backend, which is always current.
var ErrSessionStale = fmt.Errorf("engine: cache behind session watermark")

// SetSessionGate wires the applied-LSN waiter used by ExecSession (cache
// role; the MTCache layer installs it alongside the staleness probe).
func (db *Database) SetSessionGate(fn func(min storage.LSN, budget time.Duration) (storage.LSN, bool)) {
	db.sessionGate = fn
}

// ExecSession is Exec with a session-consistency precondition: when minLSN
// is nonzero on a cache, the statement runs only after the cache has applied
// every replicated commit at or below minLSN — the session's read-your-writes
// watermark. The gate waits up to the given budget (a pull round is kicked
// while waiting) and fails with ErrSessionStale if the cache is still behind,
// so a stale cache can never time-travel a session that has seen its own
// write acknowledged.
//
// The gate composes with WITH FRESHNESS: the LSN bound is checked first
// (point-in-log consistency for this session), then the statement runs
// normally, its declared staleness bound checked before execution (wall-clock
// freshness for everyone). On a backend the gate passes trivially — the backend is the
// source of truth for every LSN it ever issued.
func (db *Database) ExecSession(sqlText string, params exec.Params, minLSN storage.LSN, wait time.Duration) (*Result, error) {
	res, rec, err := db.ExecSessionTraced(sqlText, params, minLSN, wait, 0)
	rec.Release()
	return res, err
}

// ExecSessionTraced is where a statement enters the engine: Exec, ExecSession,
// the wire server and the in-process Link all come through here. It begins
// the statement's record — under the caller's trace ID when one arrived in a
// wire frame, so a reader finds the backend's half of a cache's statement by
// the cache's ID (Stitch); 0 mints one — runs the statement, the session gate
// first, and publishes the record, which comes back finished and never nil (a
// gate refusal is a statement too). The record is the caller's to read and then to Release:
// this server's ring kept a copy. So is the Result, whose release is
// optional (see Result): the wire server releases it once the response
// frame holding its rows is written.
func (db *Database) ExecSessionTraced(sqlText string, params exec.Params, minLSN storage.LSN, wait time.Duration, traceID uint64) (*Result, *trace.Record, error) {
	rec := trace.BeginStatement(db.Name, sqlText, traceID)
	res, err := db.execText(sqlText, params, minLSN, wait, rec)
	db.publish(rec, err)
	if res != nil {
		res.TraceID = rec.ID
	}
	return res, rec, err
}

// execText takes a statement from text to result on rec's clock: the session
// gate, then the auto-parameterization front door (shape-identical SELECTs
// and writes share one plan-cache entry: one parsed statement, one plan;
// shape-identical EXECs share one parsed call) or the parser.
func (db *Database) execText(sqlText string, params exec.Params, minLSN storage.LSN, wait time.Duration, rec *trace.Record) (*Result, error) {
	if minLSN > 0 && db.role == Cache {
		// No applied-LSN source: the cache cannot prove it has caught up, so
		// the only honest answer is "not guaranteed here".
		ok := false
		if gate := db.sessionGate; gate != nil {
			_, ok = gate(minLSN, wait)
		}
		rec.Mark(trace.StageGate)
		if !ok {
			metrics.Default.Counter("engine.session_gate_stale").Add(1)
			return nil, ErrSessionStale
		}
		metrics.Default.Counter("engine.session_gate_pass").Add(1)
	}
	if e, autoArgs, fresh, norm, ok := db.autoParse(sqlText, params); ok {
		rec.AutoParam = true
		rec.Mark(trace.StageParse)
		var res *Result
		var err error
		switch x := e.stmt.(type) {
		case *sql.SelectStmt:
			res, err = db.query(x, e, params, autoArgs, fresh, rec)
		case *sql.ExecStmt:
			res, err = db.execProcCall(x, params, autoArgs, rec)
		case *sql.InsertStmt, *sql.UpdateStmt, *sql.DeleteStmt:
			res, err = db.execDML(x.(keyed), e, params, autoArgs, rec)
		}
		normPool.Put(norm)
		return res, err
	}
	stmt, err := sql.Parse(sqlText)
	rec.Mark(trace.StageParse)
	if err != nil {
		return nil, err
	}
	return db.execStmt(stmt, params, rec)
}

// publish reports a finished statement, once, to the readers of its
// measurements: the process's stage histograms (optimize and execute count
// SELECTs that planned and ran, procedure bodies included; parse counts runs
// of the parser) and, for a statement with a trace ID, a copy in this
// server's ring. Whoever begins a record publishes it, and releases it after.
// A SELECT's query-store statistics are its server's: query records them on
// its plan-cache entry, before publish.
func (db *Database) publish(rec *trace.Record, err error) {
	rec.Finish(err)
	if rec.Ran(trace.StageParse) && !rec.AutoParam {
		metrics.Default.Histogram("engine.parse_seconds").ObserveDuration(rec.Stages[trace.StageParse])
	}
	if rec.Ran(trace.StagePlan) {
		metrics.Default.Histogram("engine.optimize_seconds").ObserveDuration(rec.Stages[trace.StagePlan])
	}
	if rec.Ran(trace.StageExec) {
		metrics.Default.Histogram("engine.execute_seconds").ObserveDuration(rec.Stages[trace.StageExec])
	}
	if rec.ID != 0 {
		db.traces.Add(rec)
	}
}

// InvalidatePlans clears the plan cache, whose plans — write plans included —
// depend on the catalog, statistics and optimizer options. It is the only
// invalidation there is, and it has three causes: DDL, a statistics refresh,
// and an optimizer-option change. Data changes never reach it — a cached
// dynamic plan stays valid across them (paper §5.1), and the
// intermediate-result cache tracks its own staleness per entry.
//
// The query-store statistics on the entries go with them, deliberately: their
// plan text and variants describe plans the flush discarded, and the shape's
// next execution starts a row that describes the plan it runs now. (SQL
// Server's Query Store outlives a plan-cache flush; this one does not.)
func (db *Database) InvalidatePlans() {
	db.plansMu.Lock()
	db.plans.clear()
	db.plansMu.Unlock()
}

func (db *Database) env() *opt.Env {
	return &opt.Env{Cat: db.cat, IsCache: db.role == Cache, Opts: db.opts}
}

// Result is the outcome of one statement. It is its caller's: to keep, or to
// Release once nothing reads it, which lets the next statement reuse the
// struct and the storage it owns — the row headers runPlan filled and the
// slab the values of the rows it built were carved from, with the remote
// answers the plan read; or the row headers, values and string bytes a client
// decoded an answer into (Store). After Release nothing the Result returned,
// its rows, their values and the bytes of their strings included, may be
// read: a holder that keeps rows past it copies them, strings included, as
// the result cache does.
type Result struct {
	// Set for queries.
	Cols []exec.ColInfo
	Rows []types.Row

	// Set for DML, and for a procedure call whose body writes.
	RowsAffected int64

	// CommitLSN is the WAL position of the commit this statement performed
	// (0 for reads, DDL and unlogged operations). On a backend it is the
	// local commit's LSN; on a cache it is the backend commit LSN of a
	// forwarded statement, which comes back on its exec.ResultSet. Session
	// routers use it as the session's read-your-writes high-water mark.
	CommitLSN storage.LSN

	// SnapshotLSN is the MVCC position a query's rows were read at — the
	// store's durable LSN when the read transaction began. The
	// intermediate-result cache records it as the lineage watermark of a
	// materialized result.
	SnapshotLSN storage.LSN

	// Executor work counters (local to this server).
	Counters exec.Counters

	// TraceID identifies the statement's record in its server's ring
	// (Traces; trace.FormatID renders it); 0 when the statement did not
	// arrive as text: ExecStmt.
	TraceID uint64

	// Store is the storage this Result owns and recycles: the row headers
	// runPlan filled Rows into, or the ones a released Result kept for the
	// next runPlan to fill; or the row headers, values and string bytes a
	// client decoded an answer into (wire.Client.QueryInto). It never holds
	// the rows of a result-cache entry. Nothing but the Result's holder, and
	// a decoder it lends Store to, may write it.
	Store exec.Answer

	// slab is the one runPlan's operators carved the values of the rows they
	// built from, taken from answerSlabs, with the remote answers the plan
	// read; a forwarded statement's answer is adopted by one too.
	slab *exec.Slab
}

// results holds released Results, each with the storage it kept (Store).
var results = sync.Pool{New: func() any { return new(Result) }}

// answerSlabs holds the value slabs of released Results, apart from the
// Results: a caller that keeps its Result takes no slab out of circulation.
var answerSlabs = sync.Pool{New: func() any { return new(exec.Slab) }}

// writeTxns holds the transactions of finished backend writes (execDML and
// callProcedure), each begun again with storage.Store.BeginWrite, so that a
// write reuses the change and latch arrays a finished one kept instead of
// allocating a transaction. A write hands its Txn back only after its Commit
// or Abort has returned, and nothing keeps a *Txn past the write: a
// TableView is a value its statement drops, a plan instance's Ctx is zeroed
// when it is parked (exec.Instances.Release), and a Result keeps only its
// snapshot's LSN. Latches are owned by a transaction's id, which BeginWrite
// draws anew, so a reused Txn cannot release a latch of its previous write.
var writeTxns = sync.Pool{New: func() any { return new(storage.Txn) }}

// beginWrite opens a write transaction in a Txn from writeTxns; the caller
// hands it back once it has finished it.
func (db *Database) beginWrite() *storage.Txn {
	tx := writeTxns.Get().(*storage.Txn)
	db.store.BeginWrite(tx)
	return tx
}

// NewResult takes an empty Result from the pool, with the storage a released
// one kept: what a statement executed here, or a client decoding an answer
// (Store), fills.
func NewResult() *Result { return results.Get().(*Result) }

// Release hands res back for reuse; res, every slice it returned, the values
// of its rows and the bytes of their strings may not be read afterwards. It
// always recycles the struct with the storage res owns (Store, reset within
// exec.KeepRows, exec.KeepVals and exec.KeepStrs), and hands the slab back to
// answerSlabs, reset, with the remote answers it adopted (exec.Slab.Reset). A
// result-cache hit's rows belong to the cache. Releasing is optional — a
// Result nobody releases is collected as usual — and a nil Result is ignored.
func (res *Result) Release() {
	if res == nil {
		return
	}
	res.Store.Reset()
	if res.slab != nil {
		res.slab.Reset()
		answerSlabs.Put(res.slab)
	}
	*res = Result{Store: res.Store}
	results.Put(res)
}

// takeRows makes r's rows res's answer: res takes r's columns, rows, the
// storage r owns and the slab their values were carved from, and gives r the
// ones it held, which r's Release then recycles.
func (res *Result) takeRows(r *Result) {
	res.Cols, res.Rows = r.Cols, r.Rows
	res.Store, r.Store = r.Store, res.Store
	res.slab, r.slab = r.slab, res.slab
}

// Exec parses and executes one SQL statement (query, DML or DDL). The
// statement's record lands in this server's ring.
func (db *Database) Exec(sqlText string, params exec.Params) (*Result, error) {
	return db.ExecSession(sqlText, params, 0, 0)
}

// ExecScript executes a multi-statement script, stopping on the first error.
func (db *Database) ExecScript(script string) error {
	stmts, err := sql.ParseScript(script)
	if err != nil {
		return err
	}
	for _, s := range stmts {
		if _, err := db.ExecStmt(s, nil); err != nil {
			return fmt.Errorf("engine: %s: %w", sql.Deparse(s), err)
		}
	}
	return nil
}

// ExecStmt executes a parsed statement (a procedure body's, a script's):
// measured and published like any other, but with no trace ID, so not kept.
func (db *Database) ExecStmt(stmt sql.Statement, params exec.Params) (*Result, error) {
	rec := trace.Begin(db.Name)
	res, err := db.execStmt(stmt, params, rec)
	db.publish(rec, err)
	rec.Release()
	return res, err
}

// execStmt executes a parsed statement on rec's clock.
func (db *Database) execStmt(stmt sql.Statement, params exec.Params, rec *trace.Record) (*Result, error) {
	switch x := stmt.(type) {
	case *sql.SelectStmt:
		fresh, err := db.freshnessBound(x, params)
		if err != nil {
			return nil, err
		}
		return db.query(x, nil, params, nil, fresh, rec)
	case *sql.InsertStmt, *sql.UpdateStmt, *sql.DeleteStmt:
		return db.execDML(stmt.(keyed), nil, params, nil, rec)
	case *sql.CreateTableStmt, *sql.CreateIndexStmt, *sql.CreateViewStmt, *sql.CreateProcStmt, *sql.DropStmt:
		return db.execDDL(stmt)
	case *sql.ExecStmt:
		return db.execProcCall(x, params, nil, rec)
	case *sql.ExplainStmt:
		return db.execExplain(x, params, rec)
	}
	return nil, fmt.Errorf("engine: unsupported statement %T", stmt)
}

// query runs one SELECT on rec's clock: the result cache, then the plan, then
// the one runner. e is the statement's plan-cache entry when the front door
// found it (nil: it is looked up by deparse), and autoArgs, when non-nil,
// holds the literal values the front door extracted from the original text,
// bound positionally to the plan's @__pN parameters. fresh is the statement's
// WITH FRESHNESS bound in seconds — the front door lifts it off the text,
// stmt being its unbounded twin — or unbounded. What it learns on the way —
// shape, tier, variant, rows, served staleness — goes on the record, and once
// a tier answered or failed trying, into e's query-store statistics; the
// caller publishes.
func (db *Database) query(stmt *sql.SelectStmt, e *planEntry, params exec.Params, autoArgs []types.Value, fresh float64, rec *trace.Record) (*Result, error) {
	rec.Shape = stmt.CacheKey() // the result key's shape
	if e == nil {
		e = db.entryFor(stmt)
	}
	res, err := db.answer(stmt, e, params, autoArgs, fresh, rec)
	if rec.Tier != trace.TierNone {
		e.stats.record(rec, err, time.Duration(db.slowNanos.Load()))
	}
	return res, err
}

// answer is query's work on e.
//
// On a cache whose backend link has failed, queries without a freshness
// bound degrade gracefully: the query is re-planned onto local (possibly
// stale) cached views and answered from them. A WITH FRESHNESS query never
// degrades — the user asked for a bound the cache can no longer guarantee,
// so it fails fast with the transport error instead.
func (db *Database) answer(stmt *sql.SelectStmt, e *planEntry, params exec.Params, autoArgs []types.Value, fresh float64, rec *trace.Record) (*Result, error) {
	// Intermediate-result exact-match fast path: a repeated statement with
	// identical bound values is answered straight from the materialized
	// result — no planning, no execution. An invalidated entry is never
	// served, so a hit is as current as the server's data: on a cache every
	// admitted result was read from its cached views, which serve the cache's
	// one staleness, and a cache outside a WITH FRESHNESS bound has nothing
	// there to offer.
	imc := db.imc
	if cp := e.plan.Load(); !db.imcOn.Load() || cp != nil && cp.lineage == nil {
		imc = nil // switched off, or no result of the plan is ever cached
	}
	var key imcache.Key
	var buf [8]types.Value
	vals, cacheable := buf[:0], false
	var imstamp uint64
	if imc != nil && db.current(fresh) {
		if vals, cacheable = e.keyValues(vals, params, autoArgs); cacheable {
			key = imcache.KeyOf(rec.Shape, vals)
			hit, found := imc.Lookup(key, vals)
			rec.Mark(trace.StageLookup)
			if found {
				rec.Tier, rec.Variant = trace.TierIMCache, trace.TierIMCache.String()
				rec.Rows, rec.Staleness = int64(len(hit.Rows)), db.staleness()
				res := NewResult()
				res.Cols, res.Rows, res.SnapshotLSN = hit.Cols, hit.Rows, storage.LSN(hit.LSN)
				return res, nil
			}
			// Miss: stamp before planning and the read snapshot, so Observe
			// can tell a write landed while this execution was in flight.
			imstamp = imc.Stamp()
		}
	}
	cp, err := db.planFor(stmt, e, fresh, rec)
	if err != nil {
		return nil, err
	}
	plan := cp.Plan
	// Slow-query capture: when a prior run of this shape reached the slow
	// threshold, this one runs instrumented and its EXPLAIN ANALYZE tree is
	// kept for sys.query_plans / \slow.
	capture := e.stats.capture.CompareAndSwap(true, false)
	res, root, err := db.runPlan(nil, plan, params, autoArgs, rec, capture)
	rec.Variant, rec.Tier = plan.Variant, tierOf(plan, rec.Counters.RemoteQueries)
	rec.Staleness = db.servedStaleness(plan, rec.Tier)
	if err != nil {
		if fresh == unbounded && db.role == Cache && resilience.Degradable(err) {
			if lres, lerr := db.queryLocalOnly(stmt, params, autoArgs, rec); lerr == nil {
				rec.Tier, rec.Variant = trace.TierDegraded, trace.TierDegraded.String()
				return lres, nil
			}
		}
		return nil, err // the original failure
	}
	if capture {
		e.stats.keepAnalyzed(plan.Variant, opt.ExplainAnalyze(plan, root, rec.Stages[trace.StageExec]), formatLiterals(autoArgs), rec.Start)
	}
	// Feed the intermediate cache. A bounded execution of the twin's plan is
	// the twin's run; one sent whole to the backend made a remote call, which
	// imObserve turns away.
	if cacheable {
		db.imObserve(imc, key, vals, imstamp, cp.lineage, res, rec)
	}
	return res, nil
}

// unbounded is the fresh bound of a statement without WITH FRESHNESS.
const unbounded = -1.0

// planFor is stmt's plan on rec's clock: the one the plan cache holds on e —
// the entry the front door found, or when nil the one stmt's deparse keys —
// and under a WITH FRESHNESS bound of fresh seconds the plan the bound leaves.
func (db *Database) planFor(stmt *sql.SelectStmt, e *planEntry, fresh float64, rec *trace.Record) (cp *cachedPlan, err error) {
	defer rec.Mark(trace.StagePlan)
	if e == nil {
		e = db.entryFor(stmt)
	}
	if cp, rec.PlanCache, err = db.planOf(e, stmt); err != nil || fresh == unbounded {
		return cp, err
	}
	return db.withinBound(stmt, cp, fresh)
}

// withinBound is what a WITH FRESHNESS execution runs given its twin's plan
// cp: cp, when it reads no cached view or the cache (every view of it) is
// within the bound; otherwise the whole statement on the backend, which is
// current — or an error, if it names a relation only this server holds.
func (db *Database) withinBound(stmt *sql.SelectStmt, cp *cachedPlan, fresh float64) (*cachedPlan, error) {
	if len(cp.UsedViews) == 0 || db.current(fresh) {
		return cp, nil
	}
	read := map[string]*catalog.Table{}
	db.relations(stmt.From, read)
	for _, t := range read {
		if t.Cached || t.Virtual { // a cached view or a sys.* table: the backend has none
			return nil, fmt.Errorf("engine: %s is held only on this cache, which is not within WITH FRESHNESS %g", t.Name, fresh)
		}
	}
	return &cachedPlan{Plan: opt.RemoteOnly(stmt, cp.Cols)}, nil
}

// tierOf names where a plan's execution was answered; the branch a dynamic
// plan's guard took shows in whether it called the backend.
func tierOf(p *opt.Plan, remoteQueries int64) trace.Tier {
	switch {
	case p.Dynamic && remoteQueries == 0:
		return trace.TierDynamicLocal
	case p.Dynamic:
		return trace.TierDynamicRemote
	case p.FullyLocal:
		return trace.TierLocal
	case p.FullyRemote:
		return trace.TierRemote
	}
	return trace.TierMixed
}

// queryLocalOnly answers a query from cached views alone (the degraded,
// backend-down path), on the clock of the statement whose plan just failed.
func (db *Database) queryLocalOnly(stmt *sql.SelectStmt, params exec.Params, autoArgs []types.Value, rec *trace.Record) (*Result, error) {
	plan, err := opt.OptimizeLocalOnly(stmt, db.env(), withAutoArgs(params, autoArgs))
	if err != nil {
		return nil, err
	}
	res, _, err := db.runPlan(nil, plan, params, autoArgs, rec, false)
	if err != nil {
		return nil, err
	}
	rec.Staleness = db.servedStaleness(plan, trace.TierDegraded)
	metrics.Default.Counter("engine.degraded_stale").Add(1)
	return res, nil
}

// freshnessBound evaluates the WITH FRESHNESS clause a parsed statement
// carries to its bound in seconds; unbounded when it carries none.
func (db *Database) freshnessBound(stmt *sql.SelectStmt, params exec.Params) (float64, error) {
	if stmt.Freshness == nil {
		return unbounded, nil
	}
	var names opt.Params
	bound, err := opt.CompileScalar(stmt.Freshness, nil, &names)
	if err != nil {
		return 0, fmt.Errorf("engine: WITH FRESHNESS: %w", err)
	}
	var env exec.Env
	if err := env.Bind(names, params, nil); err != nil {
		return 0, fmt.Errorf("engine: WITH FRESHNESS: %w", err)
	}
	v, err := bound.Eval(nil, &env)
	if err != nil {
		return 0, fmt.Errorf("engine: WITH FRESHNESS: %w", err)
	}
	return freshnessSeconds(v)
}

// freshnessSeconds is a WITH FRESHNESS bound's value in seconds.
func freshnessSeconds(v types.Value) (float64, error) {
	if v.IsNull() || v.Float() < 0 {
		return 0, fmt.Errorf("engine: WITH FRESHNESS requires a non-negative number of seconds")
	}
	return v.Float(), nil
}

// Plan returns the (possibly cached) plan for a SELECT. The cache key is the
// deparsed text, so the same parameterized statement reuses its dynamic plan
// instead of reoptimizing (paper §5.1: dynamic plans "avoid the need for
// frequent reoptimization").
func (db *Database) Plan(stmt *sql.SelectStmt) (*opt.Plan, error) {
	cp, _, err := db.planOf(db.entryFor(stmt), stmt)
	if err != nil {
		return nil, err
	}
	return cp.Plan, nil
}

// planEntry is one statement text's slot in the plan cache. The key is a
// front-door shape or a deparse: both are SQL text, and equal text is the same
// statement, so the two kinds share entries. A SELECT's entry holds its plan
// and its query-store statistics, an INSERT, UPDATE or DELETE's its write
// plan; an EXEC shape's holds neither.
type planEntry struct {
	stmt  sql.Statement // shared and read-only; nil for a negative front-door shape
	refs  []string      // a SELECT's parameters (ParamNames): the values its result key covers
	plan  atomic.Pointer[cachedPlan]
	write atomic.Pointer[writePlan]
	stats shapeStats // zero until query records the entry's first execution
}

// keyed is a statement the plan cache keys by its deparse: a SELECT, an
// INSERT, an UPDATE or a DELETE.
type keyed interface {
	sql.Statement
	CacheKey() string
}

// cachedPlan is a plan and what its results are invalidated by.
type cachedPlan struct {
	*opt.Plan
	lineage []string // imLineage; nil: no result of the plan is cached
}

// planCacheCap bounds the plan cache. Texts beyond it evict the least
// recently used entry (counted by engine.plan_cache_evictions), so ad-hoc
// query churn cannot grow the cache without limit.
const planCacheCap = 512

func planEvicted(key string) {
	if len(key) > 120 {
		cut := 120
		for cut > 0 && !utf8.RuneStart(key[cut]) { // never split a character
			cut--
		}
		key = key[:cut] + "…"
	}
	metrics.Default.Event("engine.plan_cache_evictions", "shape", key)
}

// entryFor is the plan-cache entry of a statement that did not come through
// the front door — a procedure body's or a script's, an INSERT … SELECT's
// SELECT, an EXPLAIN target, any text the front door does not take — keyed
// by its deparse, which CacheKey memoizes on the statement.
func (db *Database) entryFor(stmt keyed) *planEntry {
	key := stmt.CacheKey()
	db.plansMu.Lock()
	defer db.plansMu.Unlock()
	if e, ok := db.plans.get(key); ok {
		return e
	}
	e := &planEntry{stmt: stmt}
	if sel, ok := stmt.(*sql.SelectStmt); ok {
		e.refs = sel.ParamNames(nil)
	}
	return db.plans.add(key, e)
}

// planOf is e's plan: the one stored on it, or — when there is none yet —
// stmt optimized outside the lock and stored on e with its lineage. e is the
// entry a lookup returned before the optimization began, never one found
// again by key: InvalidatePlans detaches every entry, so a plan optimized
// across it lands on an entry no lookup reaches any more — it runs this once
// and is never served again. What planOf did is also what the
// engine.plan_cache_hits / engine.plan_cache_misses counters count.
func (db *Database) planOf(e *planEntry, stmt *sql.SelectStmt) (*cachedPlan, trace.PlanCache, error) {
	if cp := e.plan.Load(); cp != nil {
		metrics.Default.Counter("engine.plan_cache_hits").Add(1)
		return cp, trace.PlanHit, nil
	}
	metrics.Default.Counter("engine.plan_cache_misses").Add(1)
	p, err := opt.Optimize(stmt, db.env())
	if err != nil {
		return nil, trace.PlanMiss, err
	}
	cp := &cachedPlan{Plan: p, lineage: db.imLineage(stmt, p)}
	e.plan.CompareAndSwap(nil, cp) // a concurrent miss that stored first keeps its plan
	return cp, trace.PlanMiss, nil
}

// PlanCacheSize reports the number of plan-cache entries: shapes and
// statements, planned or not, negative shapes included.
func (db *Database) PlanCacheSize() int {
	db.plansMu.Lock()
	defer db.plansMu.Unlock()
	return db.plans.len()
}

// RunPlan executes a previously produced plan.
func (db *Database) RunPlan(plan *opt.Plan, params exec.Params) (*Result, error) {
	return db.runPlanAlone(nil, plan, params, nil)
}

// runPlanAlone runs a bare plan, or the SELECT of an INSERT … SELECT or of a
// write procedure inside that statement's transaction: an execution to the
// stage histograms, not a statement of its own to the query store.
func (db *Database) runPlanAlone(tx *storage.Txn, plan *opt.Plan, params exec.Params, autoArgs []types.Value) (*Result, error) {
	rec := trace.Begin(db.Name)
	res, _, err := db.runPlan(tx, plan, params, autoArgs, rec, false)
	db.publish(rec, err)
	rec.Release()
	return res, err
}

// runPlan is the engine's one read path. A cached plan is shared across
// sessions and its operators carry per-run state (cursors, hash tables,
// arenas), so every execution runs on an instance of the plan — an operator
// tree and the exec.Ctx it runs in — that is its own for the duration: one
// taken from the plan's free list, or a fresh clone when the list is empty.
// An execution that returns no error releases its instance back — reset, its
// buffers cleared and kept — and the next execution of the plan starts with
// arenas, batch windows, sort buffers, aggregate tables, its context and its
// parameter slots already there; one that fails drops it. The plan's
// parameters are bound into those slots first (exec.Env.Bind): a statement
// that lacks one fails before anything runs or any remote call is made. The
// rows of the Result never alias memory the instance keeps (exec.Batch says
// why). They
// fill the row slice the Result recycled, and a new one is sized by the
// plan's estimate capped by the rows the instance has returned
// (exec.Instance.SizeRows), so that a released Result can recycle it. The
// values of the rows the plan's operators build are carved from a slab taken
// from answerSlabs, which the Result owns and its Release hands back.
// The instance runs in tx — the caller's write transaction, for a SELECT that
// must see its own statement's or procedure's writes — or, when tx is nil,
// against a read-only snapshot of its own: a read begun on the instance's own
// Txn and finished as soon as the run is, before the instance is released or
// dropped, so a parked instance pins no snapshot and the next execution to
// take it begins afresh on a finished one. With instrument set a clone runs
// under exec.Instrument and the instrumented root comes back for
// opt.ExplainAnalyze, which reads the run state the shells and operators are
// left in, so that tree is never pooled; the shells pass batches through
// unchanged, so the client sees the identical result.
//
// The run closes rec's execute stage — everything since the record's previous
// boundary, which the caller marked or began just before — and on success
// leaves rows and counters on it. Operators reach the record through the
// exec.Ctx: its ID travels with every remote call, a ChoosePlan notes the
// branch it took on it and a remote call its round trip (trace.Record.Chose,
// RemoteStart, RemoteEnd).
func (db *Database) runPlan(tx *storage.Txn, plan *opt.Plan, params exec.Params, autoArgs []types.Value, rec *trace.Record, instrument bool) (*Result, *exec.Instrumented, error) {
	var inst *exec.Instance
	if !instrument {
		inst = plan.Instances.Take()
	}
	if inst == nil { // the free list is empty, or the run is instrumented
		inst = &exec.Instance{Root: exec.CloneOperator(plan.Root)}
	}
	ctx := &inst.Ctx
	if err := ctx.Env.Bind(plan.Params, params, autoArgs); err != nil {
		return nil, nil, err // before anything ran: the instance is dropped
	}
	if tx == nil {
		tx = &inst.Txn
		db.store.BeginRead(tx)
	}
	res := NewResult()
	res.slab = answerSlabs.Get().(*exec.Slab)
	ctx.Txn, ctx.Remote, ctx.Counters, ctx.Rec, ctx.EstRows = tx, db.remote, &res.Counters, rec, inst.SizeRows(plan.Card)
	ctx.Slab = res.slab
	root := inst.Root
	var shell *exec.Instrumented
	if instrument {
		shell = exec.Instrument(root)
		root = shell
	}
	rs := exec.ResultSet{Rows: res.Store.Rows()}
	err := exec.Run(root, ctx, &rs)
	rec.Mark(trace.StageExec)
	res.SnapshotLSN = tx.AsOfLSN()
	if tx == &inst.Txn {
		tx.Abort() // before Release: see above
	}
	if err != nil {
		res.Release()
		return nil, nil, err
	}
	inst.MaxRows = max(inst.MaxRows, len(rs.Rows))
	if !instrument {
		plan.Instances.Release(inst)
	}
	res.Cols, res.Rows = rs.Cols, rs.Rows
	res.Store.Hold(rs.Rows)
	rec.Rows, rec.Counters = int64(len(rs.Rows)), res.Counters
	return res, shell, nil
}

// Explain returns the optimizer's plan description for a query.
func (db *Database) Explain(query string) (string, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return "", err
	}
	sel, ok := stmt.(*sql.SelectStmt)
	if !ok {
		return "", fmt.Errorf("engine: EXPLAIN supports only SELECT")
	}
	p, err := opt.Optimize(sel, db.env())
	if err != nil {
		return "", err
	}
	return opt.Explain(p), nil
}

// execExplain implements EXPLAIN [ANALYZE] <select>. Plain EXPLAIN renders
// the plan this text would execute: the SELECT goes through the same front
// door as execText, so literal text shows (and shares, instead of adding a
// literal-keyed entry to the plan cache) its shape's plan — under a WITH
// FRESHNESS bound the plan the bound leaves, as the execution would. ANALYZE
// additionally executes the plan instrumented with the text's own literals
// bound (its result rows are discarded) and renders per-operator rows,
// timings and which ChoosePlan branch fired. The rendered text comes back as
// a one-column result set, one row per line, so it flows through the wire
// protocol and the shell like any query result.
func (db *Database) execExplain(x *sql.ExplainStmt, params exec.Params, rec *trace.Record) (*Result, error) {
	sel, ok := x.Stmt.(*sql.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("engine: EXPLAIN supports only SELECT")
	}
	var e *planEntry
	var autoArgs []types.Value
	fresh, err := db.freshnessBound(sel, params)
	if err != nil {
		return nil, err
	}
	if shared, args, bound, norm, ok := db.autoParse(sql.Deparse(sel), params); ok {
		defer normPool.Put(norm)
		e, sel, autoArgs, fresh = shared, shared.stmt.(*sql.SelectStmt), args, bound // the text is a SELECT
	}
	cp, err := db.planFor(sel, e, fresh, rec)
	if err != nil {
		return nil, err
	}
	plan := cp.Plan
	res := NewResult()
	res.Cols = []exec.ColInfo{{Name: "plan", Kind: types.KindString}}
	var text string
	if x.Analyze {
		run, root, err := db.runPlan(nil, plan, params, autoArgs, rec, true)
		if err != nil {
			return nil, err
		}
		res.Counters = run.Counters
		text = opt.ExplainAnalyze(plan, root, rec.Stages[trace.StageExec])
		run.Release() // the rows are discarded
	} else {
		text = opt.Explain(plan)
	}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		res.Rows = append(res.Rows, types.Row{types.NewString(line)})
	}
	return res, nil
}

// AnalyzeTable recomputes optimizer statistics for one table from its
// current contents.
func (db *Database) AnalyzeTable(name string) error {
	t := db.cat.Table(name)
	if t == nil {
		return fmt.Errorf("engine: table %s does not exist", name)
	}
	tx := db.store.Begin(false)
	td, ok := tx.Table(name)
	if !ok {
		tx.Abort()
		return fmt.Errorf("engine: no storage for %s", name)
	}
	rows := td.Rows()
	tx.Abort()
	t.Stats.Store(catalog.BuildTableStats(t.ColumnNames(), rows))
	db.InvalidatePlans()
	return nil
}

// Analyze refreshes statistics for every stored table.
func (db *Database) Analyze() error {
	for _, t := range db.cat.Tables() {
		if t.IsView && !t.Materialized {
			continue
		}
		if db.store.Table(t.Name) == nil {
			continue
		}
		if err := db.AnalyzeTable(t.Name); err != nil {
			return err
		}
	}
	return nil
}

// BulkLoad inserts rows directly into a table in one unlogged transaction.
// It is the data-loading path: initial populations are not replicated (the
// replication snapshot covers them), and bypassing SQL parsing makes
// benchmark-scale loads fast. Values are cast to the column types.
func (db *Database) BulkLoad(table string, rows []types.Row) error {
	t := db.cat.Table(table)
	if t == nil {
		return fmt.Errorf("engine: table %s does not exist", table)
	}
	casts := make([]types.Row, len(rows))
	for r, row := range rows {
		if len(row) != len(t.Columns) {
			return fmt.Errorf("engine: %s: row width %d != %d columns", table, len(row), len(t.Columns))
		}
		cast := make(types.Row, len(row))
		for i, v := range row {
			cv, err := v.Cast(t.Columns[i].Type)
			if err != nil {
				return fmt.Errorf("engine: %s column %s: %w", table, t.Columns[i].Name, err)
			}
			cast[i] = cv
		}
		casts[r] = cast
	}
	tx := db.store.Begin(true)
	if err := tx.Fill(table, casts); err != nil {
		tx.Abort()
		return err
	}
	views := db.cat.ViewsOver(table)
	for _, cast := range casts {
		if err := db.maintainViews(tx, views, storage.ChangeRec{Op: storage.OpInsert, After: cast}); err != nil {
			tx.Abort()
			return err
		}
	}
	if err := tx.CommitUnlogged(); err != nil {
		return err
	}
	db.InvalidateIntermediates(table)
	return nil
}

// TableRowCount returns the stored row count (0 if no storage).
func (db *Database) TableRowCount(name string) int {
	tx := db.store.Begin(false)
	defer tx.Abort()
	td, ok := tx.Table(name)
	if !ok {
		return 0
	}
	return td.Count()
}

// strEqualFold is a tiny helper used across the engine.
func strEqualFold(a, b string) bool { return strings.EqualFold(a, b) }
