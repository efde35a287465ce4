package core

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"mtcache/internal/catalog"
	"mtcache/internal/engine"
	"mtcache/internal/exec"
	"mtcache/internal/metrics"
	"mtcache/internal/opt"
	"mtcache/internal/querystore"
	"mtcache/internal/repl"
	"mtcache/internal/sql"
	"mtcache/internal/storage"
	"mtcache/internal/types"
)

// CacheServer is one MTCache instance: a shadow database whose cached views
// are fed by pull subscriptions on its backend. A local distribution agent
// (Pull, StartPulling) pulls committed transactions and applies them.
//
// The agent is fault-tolerant: a failed pull leaves the subscription's
// batches queued on the backend (they are only deleted once acknowledged by
// a later pull), a failing subscription does not block the others, and
// batches are applied exactly once and in LSN order (repl.Subscriber).
type CacheServer struct {
	DB *engine.Database
	// Stats accumulates the apply-side replication costs across the views.
	Stats repl.ApplyStats

	client BackendClient

	// pullMu serializes whole pull-and-apply rounds. A manual Pull, a session
	// gate's kick and the background agent's round can genuinely overlap;
	// overlapping rounds would read the same cursor and apply the same batch
	// twice.
	pullMu sync.Mutex

	mu     sync.Mutex
	subs   []*repl.Subscriber // one per cached view; append-only
	puller repl.Agent

	// Durable-cache state (nil/empty for a purely in-memory cache). recovered
	// holds the loaded checkpoint's per-view state until the view's
	// provisioning hook consumes it: a view found there resumes its
	// subscription at the checkpointed LSN instead of reseeding.
	dataDir   string
	recovered map[string]*cacheViewState
}

// NewCacheOver provisions a cache server over a connected BackendClient: the
// §4 shadow setup (schema, statistics, permissions — no data), the backend
// link for remote queries and update forwarding, and the cached-view hook.
//
// A non-empty dataDir is the directory the cache checkpoints its state to
// (see Checkpoint). When it already holds a checkpoint from a previous run,
// cached views re-created with the same definitions restore their rows from
// it and resume their change streams at the checkpointed LSN — no reseed — as
// long as the backend still retains that log position.
func NewCacheOver(name string, client BackendClient, options *opt.Options, dataDir string) (*CacheServer, error) {
	db := engine.New(engine.Config{Name: name, Role: engine.Cache, Remote: client, Options: options})
	c := &CacheServer{DB: db, Stats: repl.NewApplyStats(), client: client, dataDir: dataDir}
	if dataDir != "" {
		ck, err := loadCacheCheckpoint(dataDir)
		if err != nil {
			// A damaged checkpoint costs a reseed, never correctness: the
			// backend is the source of truth.
			metrics.Default.Counter("wire.cache_ckpt_errors").Add(1)
		} else if ck != nil {
			c.recovered = make(map[string]*cacheViewState, len(ck.Views))
			for i := range ck.Views {
				v := &ck.Views[i]
				c.recovered[strings.ToLower(v.Name)] = v
			}
		}
	}
	if err := c.RefreshStats(); err != nil {
		return nil, err
	}
	db.OnCachedViewCreate(c.provision)
	// Session gate: MinLSN-gated requests wait for replication to reach the
	// session's watermark (kicking pulls) instead of serving stale rows.
	db.SetSessionGate(c.WaitApplied)
	db.SetStalenessProbe(func(view string) (float64, bool) {
		d, ok := c.ViewStaleness(view)
		return d.Seconds(), ok
	})
	// Cache-side sys.repl_status: one row per pull subscription.
	_ = db.RegisterVirtualTable("sys.repl_status", engine.ReplStatusColumns(), func() []types.Row {
		now := time.Now()
		subs := c.subscribers()
		rows := make([]types.Row, 0, len(subs))
		for _, s := range subs {
			st := s.Status()
			rows = append(rows, types.Row{
				types.NewString(s.Table),
				types.NewString(fmt.Sprintf("pull sub %d", s.SubID)),
				types.NewInt(0), // pending batches are queued backend-side
				types.NewInt(st.ApplyErrors),
				types.NewString(st.LastError),
				types.NewInt(int64(st.LastLSN)),
				types.NewFloat(now.Sub(st.CurrentAsOf).Seconds()),
			})
		}
		return rows
	})
	return c, nil
}

// backendSnapshot fetches the backend's catalog image.
func (c *CacheServer) backendSnapshot() (*catalog.Snapshot, error) {
	data, err := c.client.Snapshot()
	if err != nil {
		return nil, err
	}
	return catalog.DecodeSnapshot(data)
}

// RefreshStats runs the §4 shadow setup against the backend's current
// catalog: execute the shadow DDL script (first time only), then install the
// backend's statistics and permission grants. Calling it again re-imports
// the statistics (the paper lists catalog refresh as future work; we provide
// the primitive).
func (c *CacheServer) RefreshStats() error {
	snap, err := c.backendSnapshot()
	if err != nil {
		return err
	}
	if len(c.DB.Catalog().Tables()) == 0 {
		if err := c.DB.ExecScript(snap.Script); err != nil {
			return fmt.Errorf("core: shadow script: %w", err)
		}
	}
	for name, stats := range snap.Stats {
		if t := c.DB.Catalog().Table(name); t != nil && !t.Cached {
			t.Stats = stats.Clone()
		}
	}
	for _, p := range snap.Perms {
		c.DB.Catalog().Grant(p.User, p.Object, p.Action)
	}
	c.DB.InvalidatePlans()
	return nil
}

// viewSource extracts the (table, columns, filter) a cached view publishes
// over; filter is deparsed, "" for none.
func viewSource(view *catalog.Table) (table string, cols []string, filter string, err error) {
	def := view.ViewDef
	if len(def.From) != 1 {
		return "", nil, "", fmt.Errorf("core: cached views must be select-project over one table")
	}
	tn, ok := def.From[0].(*sql.TableName)
	if !ok {
		return "", nil, "", fmt.Errorf("core: cached view source must be a table or materialized view")
	}
	for _, item := range def.Columns {
		if item.Star {
			cols = nil
			break
		}
		ref, ok := item.Expr.(*sql.ColumnRef)
		if !ok {
			return "", nil, "", fmt.Errorf("core: cached views may project only plain columns")
		}
		cols = append(cols, ref.Name)
	}
	if def.Where != nil {
		filter = sql.DeparseExpr(def.Where)
	}
	return tn.Name, cols, filter, nil
}

// provision is the CREATE CACHED VIEW hook: derive the matching article,
// create (or resume) the subscription and populate the view.
func (c *CacheServer) provision(view *catalog.Table) error {
	table, cols, filter, err := viewSource(view)
	if err != nil {
		return err
	}
	subName := c.DB.Name + "." + view.Name

	// A view present in the loaded checkpoint tries to resume its change
	// stream at the checkpointed position before falling back to a reseed.
	// Resume is attempted before any population: on a miss there is nothing
	// to undo.
	if st, ok := c.recovered[strings.ToLower(view.Name)]; ok {
		delete(c.recovered, strings.ToLower(view.Name))
		subID, resumed, err := c.client.Resume(table, cols, filter, subName, st.LastLSN+1)
		if err != nil {
			return err
		}
		if resumed {
			metrics.Default.Counter("wire.view_resumed").Add(1)
			querystore.Emit("view_resumed", "view", view.Name, "lsn", fmt.Sprint(st.LastLSN))
			return c.subscribe(view.Name, subID, st.LastLSN, st.Rows)
		}
		// The backend cannot serve the checkpointed position anymore; fall
		// through to a fresh snapshot.
	}

	subID, startLSN, rows, err := c.client.Provision(table, cols, filter, subName)
	if err != nil {
		return err
	}
	metrics.Default.Counter("wire.view_seeded").Add(1)
	querystore.Emit("view_seeded", "view", view.Name, "rows", fmt.Sprint(len(rows)))
	// startLSN is the first LSN the change stream will produce, so the rows
	// are current through the LSN before it.
	return c.subscribe(view.Name, subID, startLSN-1, rows)
}

// subscribe populates a view with rows current through applied and registers
// its subscriber.
func (c *CacheServer) subscribe(view string, subID int, applied storage.LSN, rows []types.Row) error {
	s, err := repl.NewSubscriber(c.DB, view, subID, applied, rows, c.Stats)
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.subs = append(c.subs, s)
	c.mu.Unlock()
	return nil
}

// subscribers returns the current subscribers. The list only ever grows by
// append, so the returned prefix stays valid without a copy.
func (c *CacheServer) subscribers() []*repl.Subscriber {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.subs
}

// subscriber returns the subscriber feeding a cached view, or nil.
func (c *CacheServer) subscriber(view string) *repl.Subscriber {
	for _, s := range c.subscribers() {
		if strings.EqualFold(s.Table, view) {
			return s
		}
	}
	return nil
}

// CreateCachedView runs a CREATE CACHED VIEW statement; provisioning is
// automatic.
func (c *CacheServer) CreateCachedView(ddl string) error {
	_, err := c.DB.Exec(ddl, nil)
	return err
}

// CopyProcedureText installs a procedure from source text.
func (c *CacheServer) CopyProcedureText(text string) error {
	return c.DB.CopyProcedureFrom(text)
}

// CopyProcedure copies one stored procedure from the backend so it runs
// locally on this cache (paper §5.2). The DBA chooses which to copy.
func (c *CacheServer) CopyProcedure(name string) error {
	snap, err := c.backendSnapshot()
	if err != nil {
		return err
	}
	for _, p := range snap.Procs {
		if strings.EqualFold(p.Name, name) {
			return c.DB.CopyProcedureFrom(p.Text)
		}
	}
	return fmt.Errorf("core: backend has no procedure %s", name)
}

// CopyAllProceduresExcept copies every backend procedure except the named
// ones (the benchmark keeps update-dominated procedures on the backend).
func (c *CacheServer) CopyAllProceduresExcept(skip ...string) error {
	snap, err := c.backendSnapshot()
	if err != nil {
		return err
	}
	for _, p := range snap.Procs {
		if slices.ContainsFunc(skip, func(s string) bool { return strings.EqualFold(s, p.Name) }) {
			continue
		}
		if err := c.DB.CopyProcedureFrom(p.Text); err != nil {
			return err
		}
	}
	return nil
}

// Exec runs a statement on the cache (the application-facing entry point).
func (c *CacheServer) Exec(sqlText string, params exec.Params) (*engine.Result, error) {
	return c.DB.Exec(sqlText, params)
}

// Pull performs one pull-and-apply round for every subscription and returns
// the number of transactions applied. A failing subscription is skipped —
// its unacknowledged batches stay queued on the backend and are re-delivered
// next round — and the remaining subscriptions still pull. The first error
// encountered is returned alongside the applied count.
func (c *CacheServer) Pull() (int, error) {
	c.pullMu.Lock()
	defer c.pullMu.Unlock()
	start := time.Now()
	total := 0
	var firstErr error
	for _, s := range c.subscribers() {
		n, err := s.Pull(c.client)
		total += n
		if err != nil {
			metrics.Default.Counter("wire.pull_failures").Add(1)
			if firstErr == nil {
				firstErr = err
			}
		}
		// Per-view replication lag: how stale the view may be.
		metrics.Default.Gauge("repl.lag_seconds." + s.Table).Set(time.Since(s.Status().CurrentAsOf).Seconds())
	}
	metrics.Default.Histogram("repl.pull_seconds").ObserveDuration(time.Since(start))
	return total, firstErr
}

// appliedFloor is the AppliedLSN answer for a cache with no pull
// subscriptions: such a cache holds no replicated data at all, every query
// forwards to the backend, so it is vacuously current at any watermark.
const appliedFloor = storage.LSN(1) << 62

// AppliedLSN reports the LSN this cache's replicated data is current
// through: the floor across its pull subscriptions' completeness positions.
// A session whose last write committed at or below this value reads its own
// writes from this cache.
func (c *CacheServer) AppliedLSN() storage.LSN {
	min := appliedFloor
	for _, s := range c.subscribers() {
		if a := s.Status().AppliedLSN; a < min {
			min = a
		}
	}
	return min
}

// WaitApplied blocks until the cache has applied min, kicking pull rounds
// instead of waiting for the background agent's next tick, and gives up when
// the budget runs out. It returns the applied position reached and whether
// it satisfies min — the engine's session gate (engine.SetSessionGate).
func (c *CacheServer) WaitApplied(min storage.LSN, budget time.Duration) (storage.LSN, bool) {
	if a := c.AppliedLSN(); a >= min {
		return a, true
	}
	deadline := time.Now().Add(budget)
	for {
		c.Pull() //nolint:errcheck — a failed kick only delays the recheck
		if a := c.AppliedLSN(); a >= min {
			return a, true
		}
		if !time.Now().Before(deadline) {
			return c.AppliedLSN(), false
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// LastLSN reports the highest LSN applied for a cached view's subscription
// (0 when the view has no subscription).
func (c *CacheServer) LastLSN(view string) storage.LSN {
	if s := c.subscriber(view); s != nil {
		return s.Status().LastLSN
	}
	return 0
}

// ViewStaleness reports how far a cached view may trail the backend: the
// time since its last successful pull round. It is the one staleness
// definition — WITH FRESHNESS, sys.repl_status and the lag gauges all read
// it.
func (c *CacheServer) ViewStaleness(view string) (time.Duration, bool) {
	if s := c.subscriber(view); s != nil {
		return time.Since(s.Status().CurrentAsOf), true
	}
	return 0, false
}

// Checkpoint writes the cache's durable state file: every subscribed view's
// rows plus the LSN they are current through. It runs under pullMu so no
// pull round is half-applied — the rows and cursors are mutually consistent,
// which is what lets a restart resume the stream at LastLSN+1 with no gap
// and no double-apply. Requires a data directory.
func (c *CacheServer) Checkpoint() error {
	if c.dataDir == "" {
		return fmt.Errorf("core: cache has no data directory")
	}
	c.pullMu.Lock()
	defer c.pullMu.Unlock()
	start := time.Now()

	ck := &cacheCheckpoint{}
	tx := c.DB.Store().Begin(false)
	for _, s := range c.subscribers() {
		tv := tx.Table(s.Table)
		if tv == nil {
			continue
		}
		ck.Views = append(ck.Views, cacheViewState{Name: s.Table, LastLSN: s.Status().LastLSN, Rows: tv.Rows()})
	}
	tx.Abort()
	if err := writeCacheCheckpoint(c.dataDir, ck); err != nil {
		return err
	}
	metrics.Default.Counter("wire.cache_checkpoints").Add(1)
	querystore.Emit("cache_checkpoint", "views", fmt.Sprint(len(ck.Views)))
	metrics.Default.Histogram("wire.cache_checkpoint_seconds").ObserveDuration(time.Since(start))
	return nil
}

// StartPulling launches the background pull agent. The agent survives failed
// pulls: an error leaves the subscription's state untouched (the backend
// re-delivers unacknowledged batches) and the agent simply retries on its
// next tick.
func (c *CacheServer) StartPulling(interval time.Duration) {
	c.puller.Start(interval, func() { c.Pull() }) //nolint:errcheck
}

// StopPulling halts the pull agent.
func (c *CacheServer) StopPulling() { c.puller.Stop() }
