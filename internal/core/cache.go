package core

import (
	"fmt"
	"math"
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
// are the articles of one pull subscription on its backend. A local
// distribution agent (Pull, StartPulling) pulls committed transactions and
// applies each to all views in one transaction.
//
// The agent is fault-tolerant: a failed pull leaves the subscription's ack
// where it was, so the backend re-delivers everything past it from its log,
// and batches are applied exactly once and in LSN order
// (repl.Subscriber). A batch that cannot be applied stops the stream there,
// for every view, until it can.
type CacheServer struct {
	DB *engine.Database
	// Stats accumulates the apply-side replication costs.
	Stats repl.ApplyStats

	client BackendClient
	sub    *repl.Subscriber // the one cursor of every cached view
	puller repl.Agent

	// pullMu serializes whole pull-and-apply rounds and view provisioning. A
	// manual Pull, a session gate's kick and the background agent's round can
	// genuinely overlap; overlapping rounds would read the same cursor and
	// apply the same batch twice.
	pullMu sync.Mutex

	// Durable-cache state (empty for a purely in-memory cache). recovered
	// holds the loaded checkpoint until each view's provisioning hook consumes
	// its rows: a view found there resumes the change stream at the
	// checkpointed LSN instead of reseeding. Guarded by pullMu.
	dataDir   string
	recovered *storage.Image
}

// NewCacheOver provisions a cache server over a connected BackendClient: the
// §4 shadow setup (schema, statistics, permissions — no data), the backend
// link for remote queries and update forwarding, and the cached-view hook.
//
// A non-empty dataDir is the directory the cache checkpoints its state to
// (see Checkpoint). When it already holds a checkpoint from a previous run,
// cached views re-created with the same definitions restore their rows from
// it and resume the change stream at the checkpointed LSN — no reseed — as
// long as the backend still retains that log position.
func NewCacheOver(name string, client BackendClient, options *opt.Options, dataDir string) (*CacheServer, error) {
	db := engine.New(engine.Config{Name: name, Role: engine.Cache, Remote: client, Options: options})
	c := &CacheServer{DB: db, Stats: repl.NewApplyStats(), client: client, dataDir: dataDir}
	c.sub = repl.NewSubscriber(db, c.Stats)
	if dataDir != "" {
		ck, err := loadCacheCheckpoint(dataDir)
		if err != nil {
			// A damaged checkpoint costs a reseed, never correctness: the
			// backend is the source of truth.
			metrics.Default.Counter("wire.cache_ckpt_errors").Add(1)
			querystore.Emit("cache_ckpt_error", "error", err.Error())
		}
		c.recovered = ck
	}
	if err := c.RefreshStats(); err != nil {
		return nil, err
	}
	db.OnCachedViewCreate(c.provision)
	// Session gate: MinLSN-gated requests wait for replication to reach the
	// session's watermark (kicking pulls) instead of serving stale rows.
	db.SetSessionGate(c.WaitApplied)
	db.SetStalenessProbe(func() (float64, bool) {
		d, ok := c.Staleness()
		return d.Seconds(), ok
	})
	// Cache-side sys.repl_status: one row per cached view, all reading the
	// one subscription's state.
	_ = db.RegisterVirtualTable("sys.repl_status", engine.ReplStatusColumns(), func() []types.Row {
		st, views := c.sub.Status(), c.sub.Views()
		stale := -1.0 // not known
		if d, ok := c.Staleness(); ok {
			stale = d.Seconds()
		}
		rows := make([]types.Row, 0, len(views))
		for _, view := range views {
			rows = append(rows, types.Row{
				types.NewString(view),
				types.NewString(fmt.Sprintf("pull sub %d", st.SubID)),
				types.NewInt(0), // pending commits are counted backend-side
				types.NewInt(st.ApplyErrors),
				types.NewString(st.LastError),
				types.NewInt(int64(st.AppliedLSN)),
				types.NewFloat(stale),
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
			t.Stats.Store(stats.Clone())
		}
	}
	for _, p := range snap.Perms {
		c.DB.Catalog().Grant(p.User, p.Object, p.Action)
	}
	c.DB.InvalidatePlans()
	return nil
}

// provision is the CREATE CACHED VIEW hook: describe the view's select-project
// form as an article — (table, columns, filter), the filter deparsed and "" for
// none — attach it to the cache's subscription (or resume it there) and
// populate the view.
func (c *CacheServer) provision(view *catalog.Table) error {
	sp := view.SelectProject
	table, cols, filter := sp.Source.Name, sp.SourceColumns(), ""
	if sp.Filter != nil {
		filter = sql.DeparseExpr(sp.Filter)
	}
	c.pullMu.Lock()
	defer c.pullMu.Unlock()

	// A view present in the loaded checkpoint tries to resume the change
	// stream at the checkpointed position before falling back to a reseed —
	// as long as the cache still stands there: once a pull has moved the other
	// views on, rows from the checkpoint are behind them. Resume is attempted
	// before any population: on a miss there is nothing to undo.
	if ck := c.recovered; ck != nil {
		i := slices.IndexFunc(ck.Sets, func(v storage.RowSet) bool { return strings.EqualFold(v.Name, view.Name) })
		if i >= 0 && (len(c.sub.Views()) == 0 || c.AppliedLSN() == ck.LSN) {
			rows := ck.Sets[i].Rows
			ck.Sets = slices.Delete(ck.Sets, i, i+1)
			subID, resumed, err := c.client.Resume(table, cols, filter, c.DB.Name, view.Name, ck.LSN+1)
			if err != nil {
				return err
			}
			if resumed {
				metrics.Default.Counter("wire.view_resumed").Add(1)
				querystore.Emit("view_resumed", "view", view.Name, "lsn", fmt.Sprint(ck.LSN))
				return c.sub.AddView(c.client, subID, view.Name, rows, ck.LSN+1, time.Time{}) // as of a checkpoint: not known
			}
			// The backend cannot serve the checkpointed position anymore; fall
			// through to a fresh snapshot.
		}
	}

	asOf := time.Now()
	subID, startLSN, rows, err := c.client.Provision(table, cols, filter, c.DB.Name, view.Name)
	if err != nil {
		return err
	}
	metrics.Default.Counter("wire.view_seeded").Add(1)
	querystore.Emit("view_seeded", "view", view.Name, "rows", fmt.Sprint(len(rows)))
	return c.sub.AddView(c.client, subID, view.Name, rows, startLSN, asOf)
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

// Pull performs one pull-and-apply round and returns the number of backend
// transactions applied. On an error nothing is lost: the backend re-delivers
// everything past the last acknowledged LSN next round.
func (c *CacheServer) Pull() (int, error) {
	c.pullMu.Lock()
	defer c.pullMu.Unlock()
	start := time.Now()
	n, err := c.sub.Pull(c.client)
	if err != nil {
		metrics.Default.Counter("wire.pull_failures").Add(1)
	}
	if lag, ok := c.Staleness(); ok {
		metrics.Default.Gauge("repl.lag_seconds").Set(lag.Seconds())
	}
	metrics.Default.Histogram("repl.pull_seconds").ObserveDuration(time.Since(start))
	return n, err
}

// AppliedLSN reports the LSN this cache's replicated data is current through
// (repl.SubscriberStatus.AppliedLSN). A session whose last write committed at
// or below this value reads its own writes from this cache.
func (c *CacheServer) AppliedLSN() storage.LSN { return c.sub.Status().AppliedLSN }

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

// Staleness reports how far the cache's views — all alike, on one replication
// cursor — may trail the backend: the time since the request of the last pull
// round that applied everything it was handed. A cache with no views has none,
// and one whose views were resumed from a checkpoint has none known until its
// first such round.
func (c *CacheServer) Staleness() (time.Duration, bool) {
	st := c.sub.Status()
	if st.AppliedLSN == math.MaxInt64 || st.CurrentAsOf.IsZero() {
		return 0, false
	}
	return time.Since(st.CurrentAsOf), true
}

// Checkpoint writes the cache's durable state file: every subscribed view's
// rows plus the one LSN they are current through. It runs under pullMu so no
// pull round is half-applied — the rows and the cursor are mutually
// consistent, which is what lets a restart resume the stream at LSN+1 with no
// gap and no double-apply. Requires a data directory.
func (c *CacheServer) Checkpoint() error {
	if c.dataDir == "" {
		return fmt.Errorf("core: cache has no data directory")
	}
	c.pullMu.Lock()
	defer c.pullMu.Unlock()
	start := time.Now()

	ck := &storage.Image{LSN: c.AppliedLSN()}
	tx := c.DB.Store().Begin(false)
	for _, view := range c.sub.Views() {
		if tv := tx.Table(view); tv != nil {
			ck.Sets = append(ck.Sets, storage.RowSet{Name: view, Rows: tv.Rows()})
		}
	}
	tx.Abort()
	if err := storage.WriteImage(storage.OSFS(), c.dataDir, cacheCkptFile, ck); err != nil {
		return err
	}
	metrics.Default.Counter("wire.cache_checkpoints").Add(1)
	querystore.Emit("cache_checkpoint", "views", fmt.Sprint(len(ck.Sets)))
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
