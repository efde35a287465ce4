// Package engine binds the parser, catalog, storage, optimizer and executor
// into a Database: the unit that plays either the backend server or an
// MTCache server. The engine implements:
//
//   - DDL: CREATE TABLE / INDEX / VIEW / MATERIALIZED VIEW / PROCEDURE, DROP;
//   - DML: INSERT / UPDATE / DELETE — executed locally on a backend, and
//     transparently forwarded to the backend on a cache (paper §5: "all
//     insert, delete and update requests against a shadow table are
//     immediately converted to remote ... and forwarded");
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

	"mtcache/internal/catalog"
	"mtcache/internal/exec"
	"mtcache/internal/imcache"
	"mtcache/internal/metrics"
	"mtcache/internal/opt"
	"mtcache/internal/querystore"
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

	planMu    sync.Mutex
	planCache *lru[*opt.Plan]

	// autoMu guards autoCache, the auto-parameterization shape cache
	// (normalized text → parsed statement, nil for a negative entry; see
	// autoparam.go).
	autoMu    sync.Mutex
	autoCache *lru[*sql.SelectStmt]
	autoOff   bool // tests: parse and plan every ad-hoc text as written

	// viewMaps holds the compiled definition of every materialized view this
	// database maintains (maintainViews): stored by CREATE MATERIALIZED VIEW,
	// deleted by DROP, and dependent on nothing else — there is nothing to
	// invalidate.
	viewMaps sync.Map // map[*catalog.Table]*opt.ChangeMap

	// imc is the intermediate-result cache; imcOn gates it at runtime so
	// benchmarks can toggle phases.
	imc   *imcache.Cache
	imcOn atomic.Bool

	// onCachedViewCreate is invoked when CREATE CACHED VIEW runs, so the
	// MTCache layer can provision the replication subscription (paper §4).
	onCachedViewCreate func(view *catalog.Table) error

	// stalenessOf reports a cached view's replication staleness in seconds
	// (wired by the MTCache layer); it backs WITH FRESHNESS queries.
	stalenessOf func(view string) (float64, bool)

	// sessionGate waits (bounded by the budget) until the cache has applied
	// every replicated commit at or below min, reporting the applied LSN it
	// reached and whether the bound was met. Wired by the MTCache layer; it
	// backs ExecSession's read-your-writes guarantee.
	sessionGate func(min storage.LSN, budget time.Duration) (storage.LSN, bool)
}

// Config configures a new Database.
type Config struct {
	Name    string
	Role    Role
	Remote  exec.RemoteClient // backend link; required for Cache role
	Options *opt.Options      // nil = opt.DefaultOptions

	// PlanCacheCap bounds the number of cached plans; LRU eviction beyond
	// it. 0 means defaultPlanCacheCap.
	PlanCacheCap int

	// Durability, when non-nil, backs the store with an on-disk WAL in the
	// given directory (see storage.DurabilityOptions). Only honored by Open;
	// New ignores it because enabling durability can fail.
	Durability *storage.DurabilityOptions

	// IMCache overrides the intermediate-result cache bounds (nil =
	// imcache defaults: 64 MiB, admit on 2nd execution).
	IMCache *imcache.Options
}

// New creates an empty database.
func New(cfg Config) *Database {
	opts := opt.DefaultOptions()
	if cfg.Options != nil {
		opts = *cfg.Options
	}
	planCap := cfg.PlanCacheCap
	if planCap <= 0 {
		planCap = defaultPlanCacheCap
	}
	var imOpts imcache.Options
	if cfg.IMCache != nil {
		imOpts = *cfg.IMCache
	}
	db := &Database{
		Name:      cfg.Name,
		cat:       catalog.New(),
		store:     storage.NewStore(),
		role:      cfg.Role,
		opts:      opts,
		remote:    cfg.Remote,
		planCache: newLRU[*opt.Plan](planCap, planEvicted),
		autoCache: newLRU[*sql.SelectStmt](defaultAutoCacheCap, shapeEvicted),
		imc:       imcache.New(imOpts),
	}
	db.imcOn.Store(true)
	db.registerSystemTables()
	return db
}

// Open is New plus durability: when cfg.Durability is set the store's WAL
// becomes a segmented on-disk log (group commit, checkpoints) rooted at
// cfg.Durability.Dir. The caller recreates the schema (DDL is unlogged) and
// then calls Recover to rebuild state from the latest checkpoint plus the
// log tail.
func Open(cfg Config) (*Database, error) {
	db := New(cfg)
	if cfg.Durability != nil {
		if err := db.store.EnableDurability(*cfg.Durability); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// Recover rebuilds a durable database's state from its latest checkpoint and
// WAL tail. The schema must already have been recreated. Refreshes optimizer
// statistics for every recovered table.
func (db *Database) Recover() (*storage.RecoveryStats, error) {
	stats, err := db.store.Recover()
	if err != nil {
		return nil, err
	}
	if err := db.Analyze(); err != nil {
		return nil, err
	}
	return stats, nil
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

// Role returns the database role.
func (db *Database) Role() Role { return db.role }

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

// SetStalenessProbe wires the per-view staleness source used by
// WITH FRESHNESS queries.
func (db *Database) SetStalenessProbe(fn func(view string) (float64, bool)) {
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
// (point-in-log consistency for this session), then the statement plans
// normally, including any declared staleness bound (wall-clock freshness for
// everyone). On a backend the gate passes trivially — the backend is the
// source of truth for every LSN it ever issued.
func (db *Database) ExecSession(sqlText string, params exec.Params, minLSN storage.LSN, wait time.Duration) (*Result, error) {
	res, _, err := db.ExecSessionTraced(sqlText, params, minLSN, wait, "")
	return res, err
}

// ExecSessionTraced is where a statement enters the engine: Exec, ExecSession,
// the wire server and the in-process Link all come through here. It begins
// the statement's record — under the caller's trace ID when one arrived in a
// wire frame, so backend-side spans stitch under the cache-side remote span —
// runs the statement, the session gate first, and publishes the record, which
// comes back finished and never nil (a gate refusal is a statement too).
func (db *Database) ExecSessionTraced(sqlText string, params exec.Params, minLSN storage.LSN, wait time.Duration, traceID string) (*Result, *trace.Record, error) {
	rec := trace.BeginStatement(db.Name, sqlText, traceID)
	res, err := db.execText(sqlText, params, minLSN, wait, rec)
	publish(rec, err)
	if res != nil {
		res.TraceID = rec.ID
	}
	return res, rec, err
}

// execText takes a statement from text to result on rec's clock: the session
// gate, then the auto-parameterization front door (shape-identical SELECTs
// share one parsed statement and through it one cached plan) or the parser.
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
	if stmt, autoArgs, norm, ok := db.autoParse(sqlText); ok {
		rec.AutoParam = true
		rec.Mark(trace.StageParse)
		res, err := db.query(stmt, params, autoArgs, rec)
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

// publish reports a finished statement, once, to everything that reads its
// measurements: the stage histograms (optimize and execute count SELECTs that
// planned and ran, procedure bodies included; parse counts runs of the
// parser), the query store once a tier answered or failed trying, and for a
// statement with a trace ID the ring behind /debug/trace/last and \trace.
// Whoever begins a record publishes it.
func publish(rec *trace.Record, err error) {
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
	if rec.Tier != trace.TierNone {
		querystore.Default.Record(rec)
	}
	if rec.ID != "" {
		trace.Traces.Add(rec)
	}
}

// InvalidatePlans clears the two caches that depend on statistics and
// optimizer options: the auto-parameterization shape cache (text → statement)
// and the plan cache (statement → plan). It is the only invalidation there is,
// and it has three causes: DDL, a statistics refresh, and an optimizer-option
// change. Data changes never reach it — a cached dynamic plan stays valid
// across them (paper §5.1), and the intermediate-result cache tracks its own
// staleness per entry.
func (db *Database) InvalidatePlans() {
	db.planMu.Lock()
	db.planCache.clear()
	db.planMu.Unlock()
	db.autoMu.Lock()
	db.autoCache.clear()
	db.autoMu.Unlock()
}

func (db *Database) env() *opt.Env {
	return &opt.Env{Cat: db.cat, IsCache: db.role == Cache, Opts: db.opts, Staleness: db.stalenessOf}
}

// Result is the outcome of one statement.
type Result struct {
	// Set for queries.
	Cols []exec.ColInfo
	Rows []types.Row

	// Set for DML.
	RowsAffected int64

	// CommitLSN is the WAL position of the commit this statement performed
	// (0 for reads, DDL and unlogged operations). On a backend it is the
	// local commit's LSN; on a cache it is the backend commit LSN carried
	// back in the forwarded update's acknowledgement, when the backend link
	// supports it (exec.LSNExecer). Session routers use it as the session's
	// read-your-writes high-water mark.
	CommitLSN storage.LSN

	// SnapshotLSN is the MVCC position a query's rows were read at — the
	// store's durable LSN when the read transaction began. The
	// intermediate-result cache records it as the lineage watermark of a
	// materialized result.
	SnapshotLSN storage.LSN

	// Executor work counters (local to this server).
	Counters exec.Counters

	// TraceID identifies the statement's record in trace.Traces ("" when the
	// statement did not arrive as text: ExecStmt, CallProcedure).
	TraceID string
}

// Exec parses and executes one SQL statement (query, DML or DDL). The
// statement's record lands in trace.Traces.
func (db *Database) Exec(sqlText string, params exec.Params) (*Result, error) {
	res, _, err := db.ExecSessionTraced(sqlText, params, 0, 0, "")
	return res, err
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
	publish(rec, err)
	return res, err
}

// execStmt executes a parsed statement on rec's clock.
func (db *Database) execStmt(stmt sql.Statement, params exec.Params, rec *trace.Record) (*Result, error) {
	switch x := stmt.(type) {
	case *sql.SelectStmt:
		return db.query(x, params, nil, rec)
	case *sql.InsertStmt, *sql.UpdateStmt, *sql.DeleteStmt:
		return db.execDML(stmt, params, rec)
	case *sql.CreateTableStmt:
		return db.execCreateTable(x)
	case *sql.CreateIndexStmt:
		return db.execCreateIndex(x)
	case *sql.CreateViewStmt:
		return db.execCreateView(x)
	case *sql.CreateProcStmt:
		return db.execCreateProc(x, sql.Deparse(x))
	case *sql.ExecStmt:
		return db.execProcCall(x, params, rec)
	case *sql.DropStmt:
		return db.execDrop(x)
	case *sql.ExplainStmt:
		return db.execExplain(x, params, rec)
	}
	return nil, fmt.Errorf("engine: unsupported statement %T", stmt)
}

// query runs one SELECT on rec's clock: the result cache, then the plan, then
// the one runner. autoArgs, when non-nil, holds the literal values the
// auto-parameterization front door extracted from the original text, bound
// positionally to the plan's @__pN parameters. What it learns on the way —
// shape, tier, variant, rows, served staleness — goes on the record and is
// reported nowhere else; the caller publishes.
//
// On a cache whose backend link has failed, queries without a freshness
// bound degrade gracefully: the query is re-planned onto local (possibly
// stale) cached views and answered from them. A WITH FRESHNESS query never
// degrades — the user asked for a bound the cache can no longer guarantee,
// so it fails fast with the transport error instead.
func (db *Database) query(stmt *sql.SelectStmt, params exec.Params, autoArgs []types.Value, rec *trace.Record) (*Result, error) {
	rec.Shape = stmt.CacheKey() // plan-cache key, query-store key, and with the bound values the result-cache key
	// Intermediate-result exact-match fast path: a repeated statement with
	// identical bound values is answered straight from the materialized
	// result — no planning, no execution. Ordinary queries demand a fresh
	// entry; WITH FRESHNESS accepts one stale up to the declared bound.
	imc := db.imcacheIfEnabled()
	var imkey string
	var imstamp uint64
	if imc != nil {
		maxStale, boundOK := time.Duration(0), true
		if stmt.Freshness != nil {
			if bound, err := db.freshnessBound(stmt, params); err == nil {
				maxStale = time.Duration(bound * float64(time.Second))
			} else {
				boundOK = false // let the planner surface the error
			}
		}
		if boundOK {
			if stmt.Freshness == nil {
				imkey = imKey(rec.Shape, params, autoArgs)
			} else {
				imkey = db.imFreshnessKey(stmt, params)
			}
			hit, found := imc.Lookup(imkey, time.Now(), maxStale)
			rec.Mark(trace.StageLookup)
			if found {
				rec.Tier, rec.Variant = trace.TierIMCache, trace.TierIMCache.String()
				rec.Rows, rec.Staleness = int64(len(hit.Rows)), hit.Staleness.Seconds()
				return &Result{Cols: hit.Cols, Rows: hit.Rows, SnapshotLSN: storage.LSN(hit.LSN)}, nil
			}
			// Miss: stamp before planning and the read snapshot, so Observe
			// can tell a write landed while this execution was in flight.
			imstamp = imc.Stamp()
		}
	}
	plan, err := db.planFor(stmt, params, rec)
	if err != nil {
		return nil, err
	}
	// Slow-query capture: when the query store armed this shape (a prior run
	// exceeded the slow threshold), the plan runs instrumented and its
	// EXPLAIN ANALYZE tree is retained for sys.query_plans / \slow.
	qs := querystore.Default
	capture := qs.WantCapture(rec.Shape)
	res, root, err := db.runPlan(nil, plan, params, autoArgs, rec, capture)
	rec.Variant, rec.Tier = plan.Variant, tierOf(plan, rec.Counters.RemoteQueries)
	rec.Staleness = db.servedStaleness(plan)
	if rec.PlanCache != trace.PlanHit && qs.Enabled() {
		// Rendering the plan costs once per cached plan, not per run.
		qs.NotePlan(rec.Shape, plan.Variant, opt.Explain(plan))
	}
	if err != nil {
		if stmt.Freshness == nil && db.role == Cache && resilience.Degradable(err) {
			if lres, lerr := db.queryLocalOnly(stmt, params, autoArgs, rec); lerr == nil {
				rec.Tier, rec.Variant = trace.TierDegraded, trace.TierDegraded.String()
				return lres, nil
			}
		}
		return nil, err // the original failure
	}
	if capture {
		qs.StoreAnalyzed(rec.Shape, plan.Variant, opt.ExplainAnalyze(plan, root, rec.Stages[trace.StageExec]), formatLiterals(autoArgs))
	}
	// Feed the intermediate cache. Freshness-bounded executions are not
	// observed: their plan may have read bounded-stale views, so the rows
	// are not a fresh materialization of the statement.
	if imc != nil && imkey != "" && stmt.Freshness == nil {
		db.imObserve(imc, imkey, imstamp, stmt, autoArgs, plan, res, rec)
	}
	return res, nil
}

// planFor plans stmt on rec's clock: per execution, against the views' current
// staleness, under a WITH FRESHNESS bound; through the plan cache otherwise.
func (db *Database) planFor(stmt *sql.SelectStmt, params exec.Params, rec *trace.Record) (plan *opt.Plan, err error) {
	if stmt.Freshness != nil {
		plan, err = db.planWithFreshness(stmt, params)
	} else {
		plan, rec.PlanCache, err = db.planCached(stmt)
	}
	rec.Mark(trace.StagePlan)
	return plan, err
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
	metrics.Default.Counter("engine.degraded_stale").Add(1)
	return res, nil
}

// freshnessBound evaluates the query's WITH FRESHNESS expression to its
// bound in seconds.
func (db *Database) freshnessBound(stmt *sql.SelectStmt, params exec.Params) (float64, error) {
	bound, err := opt.CompileScalar(stmt.Freshness, nil)
	if err != nil {
		return 0, fmt.Errorf("engine: WITH FRESHNESS: %w", err)
	}
	v, err := bound.Eval(nil, &exec.Env{Named: params})
	if err != nil {
		return 0, fmt.Errorf("engine: WITH FRESHNESS: %w", err)
	}
	if v.IsNull() || v.Float() < 0 {
		return 0, fmt.Errorf("engine: WITH FRESHNESS requires a non-negative number of seconds")
	}
	return v.Float(), nil
}

// planWithFreshness optimizes under the query's declared staleness bound.
func (db *Database) planWithFreshness(stmt *sql.SelectStmt, params exec.Params) (*opt.Plan, error) {
	bound, err := db.freshnessBound(stmt, params)
	if err != nil {
		return nil, err
	}
	env := db.env()
	env.HasFreshness = true
	env.MaxStaleness = bound
	return opt.Optimize(stmt, env)
}

// Plan returns the (possibly cached) plan for a SELECT. The cache key is the
// deparsed text, so the same parameterized statement reuses its dynamic plan
// instead of reoptimizing (paper §5.1: dynamic plans "avoid the need for
// frequent reoptimization").
func (db *Database) Plan(stmt *sql.SelectStmt) (*opt.Plan, error) {
	p, _, err := db.planCached(stmt)
	return p, err
}

// planCached is Plan plus what the cache did, which is also what the
// engine.plan_cache_hits / engine.plan_cache_misses counters count.
func (db *Database) planCached(stmt *sql.SelectStmt) (*opt.Plan, trace.PlanCache, error) {
	// CacheKey memoizes the deparsed text on the statement, so repeated
	// executions of a prepared statement skip the deparse entirely.
	key := stmt.CacheKey()
	db.planMu.Lock()
	if p, ok := db.planCache.get(key); ok {
		db.planMu.Unlock()
		metrics.Default.Counter("engine.plan_cache_hits").Add(1)
		return p, trace.PlanHit, nil
	}
	gen := db.planCache.gen
	db.planMu.Unlock()
	metrics.Default.Counter("engine.plan_cache_misses").Add(1)
	p, err := opt.Optimize(stmt, db.env())
	if err != nil {
		return nil, trace.PlanMiss, err
	}
	// Optimization ran outside the lock; if InvalidatePlans fired in
	// between, this plan may reference a view that no longer exists — run
	// it once but do not cache it.
	db.planMu.Lock()
	db.planCache.putIfGen(gen, key, p)
	db.planMu.Unlock()
	return p, trace.PlanMiss, nil
}

// defaultPlanCacheCap bounds the per-database plan cache when Config leaves
// PlanCacheCap zero. Distinct query texts beyond the cap evict the least
// recently used plan (counted by engine.plan_cache_evictions), so ad-hoc
// query churn cannot grow the cache without limit.
const defaultPlanCacheCap = 256

func planEvicted(key string) {
	metrics.Default.Counter("engine.plan_cache_evictions").Add(1)
	if len(key) > 120 {
		key = key[:120] + "…"
	}
	querystore.Emit("plan_evicted", "shape", key)
}

// PlanCacheSize reports the number of cached plans.
func (db *Database) PlanCacheSize() int {
	db.planMu.Lock()
	defer db.planMu.Unlock()
	return db.planCache.len()
}

// RunPlan executes a previously produced plan.
func (db *Database) RunPlan(plan *opt.Plan, params exec.Params) (*Result, error) {
	return db.runPlanAlone(nil, plan, params)
}

// runPlanAlone runs a bare plan, or the SELECT of an INSERT … SELECT or of a
// write procedure inside that statement's transaction: an execution to the
// stage histograms, not a statement of its own to the query store.
func (db *Database) runPlanAlone(tx *storage.Txn, plan *opt.Plan, params exec.Params) (*Result, error) {
	rec := trace.Begin(db.Name)
	res, _, err := db.runPlan(tx, plan, params, nil, rec, false)
	publish(rec, err)
	return res, err
}

// runPlan is the engine's one read path. A cached plan is shared across
// sessions and its operators carry per-run state (cursors, hash tables,
// arenas), so every execution runs on an instance of the plan's operator tree
// that is its own for the duration: one taken from the plan's free list, or a
// fresh clone when the list is empty. An execution that returns no error
// releases its instance back — reset, its buffers cleared and kept — and the
// next execution of the plan starts with arenas, batch windows, sort buffers
// and aggregate tables already grown; one that fails drops it. The rows of
// the Result never alias memory the instance keeps (exec.Batch says why).
// The instance runs in tx — the caller's write transaction, for a SELECT that
// must see its own statement's or procedure's writes — or, when tx is nil,
// against a read-only snapshot of its own. With instrument set a clone runs
// under exec.Instrument and the instrumented root comes back for
// opt.ExplainAnalyze, which reads the run state the shells and operators are
// left in, so that tree is never pooled; the shells pass batches through
// unchanged, so the client sees the identical result.
//
// The run closes rec's execute stage — everything since the record's previous
// boundary, which the caller marked or began just before — and on success
// leaves rows and counters on it. Operators reach the record through the
// exec.Ctx: its ID travels with every remote call, and the few with structure
// to show add spans to it.
func (db *Database) runPlan(tx *storage.Txn, plan *opt.Plan, params exec.Params, autoArgs []types.Value, rec *trace.Record, instrument bool) (*Result, *exec.Instrumented, error) {
	if tx == nil {
		tx = db.store.Begin(false)
		defer tx.Abort()
	}
	res := &Result{}
	ctx := &exec.Ctx{Txn: tx, Remote: db.remote, Counters: &res.Counters, Rec: rec, EstRows: plan.Card}
	bindParams(plan, params, autoArgs, ctx)
	var root exec.Operator
	if !instrument {
		root = plan.Instances.Take()
	}
	if root == nil {
		root = exec.CloneOperator(plan.Root) // the free list is empty, or the run is instrumented
	}
	var shell *exec.Instrumented
	if instrument {
		shell = exec.Instrument(root)
		root = shell
	}
	rs, err := exec.Run(root, ctx)
	rec.Mark(trace.StageExec)
	if err != nil {
		return nil, nil, err
	}
	if !instrument {
		plan.Instances.Release(root)
	}
	res.Cols = rs.Cols
	res.Rows = rs.Rows
	res.SnapshotLSN = tx.AsOfLSN()
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
// literal-keyed entry to the plan cache) its shape's plan. ANALYZE
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
	var autoArgs []types.Value
	if shared, args, norm, ok := db.autoParse(sql.Deparse(sel)); ok {
		defer normPool.Put(norm)
		sel, autoArgs = shared, args
	}
	plan, err := db.planFor(sel, params, rec)
	if err != nil {
		return nil, err
	}
	res := &Result{Cols: []exec.ColInfo{{Name: "plan", Kind: types.KindString}}}
	var text string
	if x.Analyze {
		run, root, err := db.runPlan(nil, plan, params, autoArgs, rec, true)
		if err != nil {
			return nil, err
		}
		res.Counters = run.Counters
		text = opt.ExplainAnalyze(plan, root, rec.Stages[trace.StageExec])
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
	td := tx.Table(name)
	if td == nil {
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
	tx := db.store.Begin(true)
	views := db.cat.ViewsOver(table)
	for _, row := range rows {
		if len(row) != len(t.Columns) {
			tx.Abort()
			return fmt.Errorf("engine: %s: row width %d != %d columns", table, len(row), len(t.Columns))
		}
		cast := make(types.Row, len(row))
		for i, v := range row {
			cv, err := v.Cast(t.Columns[i].Type)
			if err != nil {
				tx.Abort()
				return fmt.Errorf("engine: %s column %s: %w", table, t.Columns[i].Name, err)
			}
			cast[i] = cv
		}
		if _, err := tx.Insert(table, cast); err != nil {
			tx.Abort()
			return err
		}
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
	td := tx.Table(name)
	if td == nil {
		return 0
	}
	return td.Count()
}

// strEqualFold is a tiny helper used across the engine.
func strEqualFold(a, b string) bool { return strings.EqualFold(a, b) }
