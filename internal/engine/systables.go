package engine

import (
	"sort"
	"strings"

	"mtcache/internal/catalog"
	"mtcache/internal/metrics"
	"mtcache/internal/opt"
	"mtcache/internal/querystore"
	"mtcache/internal/trace"
	"mtcache/internal/types"
)

// This file is the DMV layer: read-only virtual system tables (sys.*)
// that expose the query store, event log, cached-view state, replication
// health and WAL counters through ordinary SQL, the way SQL Server DBAs
// reach the Query Store and DMVs. Virtual tables live in the catalog but
// are excluded from Tables(), so view matching, the advisor, shadow
// export and user listings never see them.

// RegisterVirtualTable installs (or replaces) a read-only virtual system
// table served by fn. Names are full dotted names ("sys.repl_status");
// replacing lets a role-specific provider (backend repl health, cache
// pull state) override the engine's default registration.
func (db *Database) RegisterVirtualTable(name string, cols []catalog.Column, fn func() []types.Row) error {
	err := db.cat.PutVirtualTable(&catalog.Table{Name: name, Columns: cols, RowsFn: fn})
	if err != nil {
		return err
	}
	db.InvalidatePlans()
	return nil
}

// current reports whether this server's data is within fresh seconds of the
// backend's: always without a bound or on a backend, and on a cache when its
// staleness is known and no greater than fresh.
func (db *Database) current(fresh float64) bool {
	if fresh == unbounded || db.role != Cache {
		return true
	}
	s, ok := db.stalenessOf()
	return ok && s <= fresh
}

// staleness is this server's one staleness in seconds, which every read of
// its cached views serves: the cache's, or -1 when it is unknown and on a
// backend, which is current.
func (db *Database) staleness() float64 {
	if s, ok := db.stalenessOf(); ok && db.role == Cache {
		return s
	}
	return -1
}

// servedStaleness is the staleness an execution of p answered by tier served
// the client: the cache's, when it read a cached view — never when the
// backend answered (a remote plan, or a dynamic plan's remote branch). -1 when
// it read none or the staleness is unknown.
func (db *Database) servedStaleness(p *opt.Plan, tier trace.Tier) float64 {
	if len(p.UsedViews) == 0 || tier == trace.TierRemote || tier == trace.TierDynamicRemote {
		return -1
	}
	return db.staleness()
}

// ReplStatusColumns is the canonical sys.repl_status schema, shared by the
// engine's empty default and the role-specific providers in core (backend
// subscription health, cache pull state).
func ReplStatusColumns() []catalog.Column {
	return []catalog.Column{
		{Name: "name", Type: types.KindString},
		{Name: "detail", Type: types.KindString},
		{Name: "pending", Type: types.KindInt},
		{Name: "apply_errors", Type: types.KindInt},
		{Name: "last_error", Type: types.KindString},
		{Name: "last_lsn", Type: types.KindInt},
		{Name: "staleness_seconds", Type: types.KindFloat},
	}
}

// registerSystemTables installs the engine-level sys.* tables on a new
// database. Registration cannot fail here: the catalog is empty of
// non-virtual entries under these dotted names.
func (db *Database) registerSystemTables() {
	str := func(n string) catalog.Column { return catalog.Column{Name: n, Type: types.KindString} }
	i64 := func(n string) catalog.Column { return catalog.Column{Name: n, Type: types.KindInt} }
	f64 := func(n string) catalog.Column { return catalog.Column{Name: n, Type: types.KindFloat} }

	_ = db.RegisterVirtualTable("sys.query_stats", []catalog.Column{
		str("shape"), i64("executions"), i64("rows_returned"),
		f64("total_ms"), f64("mean_ms"), f64("p50_ms"), f64("p95_ms"), f64("p99_ms"),
		i64("local_execs"), i64("remote_execs"),
		i64("plan_cache_hits"), i64("plan_cache_misses"),
		i64("degraded"), i64("errors"), f64("max_staleness_seconds"), str("last_error"),
	}, queryStatsRows)

	_ = db.RegisterVirtualTable("sys.query_plans", []catalog.Column{
		str("shape"), str("variant"), i64("executions"),
		f64("last_ms"), f64("p95_ms"), str("plan"), str("analyzed"), str("literals"),
	}, queryPlansRows)

	_ = db.RegisterVirtualTable("sys.events", []catalog.Column{
		i64("seq"), {Name: "ts", Type: types.KindTime}, str("kind"), str("trace_id"), str("detail"),
	}, eventsRows)

	_ = db.RegisterVirtualTable("sys.wal_stats", []catalog.Column{
		str("name"), f64("value"),
	}, walStatsRows)

	_ = db.RegisterVirtualTable("sys.cached_views", []catalog.Column{
		str("name"), i64("rows"), i64("hits"), f64("staleness_seconds"),
	}, db.cachedViewsRows)

	_ = db.RegisterVirtualTable("sys.repl_status", ReplStatusColumns(),
		func() []types.Row { return nil })

	_ = db.RegisterVirtualTable("sys.intermediate_results", []catalog.Column{
		str("shape"), str("literals"), i64("rows"), i64("bytes"),
		i64("hits"), i64("saved_ns"), str("lineage"), i64("computed_lsn"), {Name: "stale", Type: types.KindBool},
	}, db.intermediateResultsRows)
}

func queryStatsRows() []types.Row {
	snaps := querystore.Default.Snapshot()
	rows := make([]types.Row, 0, len(snaps))
	for _, ss := range snaps {
		r := ss.Rollup
		rows = append(rows, types.Row{
			types.NewString(ss.Shape),
			types.NewInt(r.Execs), types.NewInt(r.Rows),
			types.NewFloat(r.TotalMs), types.NewFloat(r.MeanMs),
			types.NewFloat(r.P50Ms), types.NewFloat(r.P95Ms), types.NewFloat(r.P99Ms),
			types.NewInt(r.LocalExecs), types.NewInt(r.Remote),
			types.NewInt(r.Hits), types.NewInt(r.Misses),
			types.NewInt(r.Degraded), types.NewInt(r.Errs),
			types.NewFloat(r.MaxStale), types.NewString(ss.LastError),
		})
	}
	return rows
}

func queryPlansRows() []types.Row {
	snaps := querystore.Default.Snapshot()
	var rows []types.Row
	for _, ss := range snaps {
		for _, v := range ss.Variants {
			rows = append(rows, types.Row{
				types.NewString(ss.Shape), types.NewString(v.Variant),
				types.NewInt(v.Execs), types.NewFloat(v.LastMs), types.NewFloat(v.P95Ms),
				types.NewString(v.Plan), types.NewString(v.Analyzed),
				types.NewString(v.Literals),
			})
		}
	}
	return rows
}

func eventsRows() []types.Row {
	evs := querystore.Events.Recent(0)
	rows := make([]types.Row, 0, len(evs))
	for _, e := range evs {
		rows = append(rows, types.Row{
			types.NewInt(e.Seq), types.NewTime(e.Time),
			types.NewString(e.Kind), types.NewString(e.TraceID), types.NewString(e.Detail()),
		})
	}
	return rows
}

// walStatsRows exposes every storage.* instrument (WAL, checkpoint,
// recovery, MVCC GC counters and gauges) as name/value pairs.
func walStatsRows() []types.Row {
	var rows []types.Row
	for name, v := range metrics.Default.Snapshot() {
		if strings.HasPrefix(name, "storage.") {
			rows = append(rows, types.Row{types.NewString(name), types.NewFloat(float64(v))})
		}
	}
	for name, v := range metrics.Default.GaugeSnapshot() {
		if strings.HasPrefix(name, "storage.") {
			rows = append(rows, types.Row{types.NewString(name), types.NewFloat(v)})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i][0].Str() < rows[j][0].Str() })
	return rows
}

func (db *Database) cachedViewsRows() []types.Row {
	views := db.cat.CachedViews()
	rows := make([]types.Row, 0, len(views))
	stale := db.staleness() // every view's
	for _, v := range views {
		hits := metrics.Default.Counter("opt.view_hit." + v.Name).Value()
		rows = append(rows, types.Row{
			types.NewString(v.Name),
			types.NewInt(int64(db.TableRowCount(v.Name))),
			types.NewInt(hits),
			types.NewFloat(stale),
		})
	}
	return rows
}
