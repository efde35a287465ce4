// Intermediate-result cache glue: the values a result key covers, lineage
// extraction, exact-match lookup before planning and admission after
// execution. The cache itself (admission thresholds, benefit-weighted
// eviction, invalidation) lives in internal/imcache. Only a cache server has
// one — a backend is plain SQL Server, as in the paper — and its replication
// apply invalidates through InvalidateIntermediates.
package engine

import (
	"slices"
	"strings"

	"mtcache/internal/catalog"
	"mtcache/internal/exec"
	"mtcache/internal/imcache"
	"mtcache/internal/opt"
	"mtcache/internal/sql"
	"mtcache/internal/trace"
	"mtcache/internal/types"
)

// IMCache exposes the intermediate-result cache: nil on a backend.
func (db *Database) IMCache() *imcache.Cache { return db.imc }

// SetIMCacheEnabled toggles a cache server's intermediate-result cache at
// runtime; on a backend, which has none, it does nothing. Disabling (or
// re-enabling) drops every cached result and admission candidate; while off
// there are no lookups and no candidate tracking. Benchmarks and calibration
// use it to measure with/without phases on one database. Cached plans are
// untouched: no plan reads the result cache.
func (db *Database) SetIMCacheEnabled(on bool) {
	if db.imc != nil {
		db.imcOn.Store(on)
		db.imc.Clear()
	}
}

// InvalidateIntermediates marks every intermediate whose lineage includes
// table as stale: never served again until an execution refreshes it. Bulk
// loads and DROP call it; on a backend, which has no result cache, it does
// nothing. Replication apply is the one invalidation a write causes: the
// result cache admits only executions that read cached views alone, and
// nothing but apply changes those — a write the cache forwards reaches them,
// like any other, when apply does.
func (db *Database) InvalidateIntermediates(table string) {
	if db.imc != nil {
		db.imc.Invalidate(table)
	}
}

// keyValues appends to dst the values one execution binds to e's parameters —
// what its result key covers — and reports false when one of them is unbound:
// that execution bypasses the result cache.
func (e *planEntry) keyValues(dst []types.Value, params exec.Params, autoArgs []types.Value) ([]types.Value, bool) {
	for _, name := range e.refs {
		v, ok := exec.ParamValue(name, params, autoArgs)
		if !ok {
			return dst, false
		}
		dst = append(dst, v)
	}
	return dst, true
}

// imLineage is what a plan's results are invalidated by: every base table and
// view stmt reads, through view definitions and derived tables, and the
// cached views the plan reads — lowercased, sorted. It is nil when no result
// of the plan may be cached: the server has no result cache, the plan can
// never run without the backend (it is neither fully local nor guarded), or
// it reads a virtual (sys.*) relation, an unknown name, a view whose
// definition references a parameter, or nothing.
func (db *Database) imLineage(stmt *sql.SelectStmt, plan *opt.Plan) []string {
	if db.imc == nil || !plan.FullyLocal && !plan.Dynamic {
		return nil
	}
	read := map[string]*catalog.Table{}
	if !db.relations(stmt.From, read) || len(read) == 0 {
		return nil
	}
	lineage := make([]string, 0, len(read)+len(plan.UsedViews))
	for name, t := range read {
		if t.Virtual || t.ViewDef != nil && len(t.ViewDef.ParamNames(nil)) > 0 {
			return nil // sys.* output changes outside any write path
		}
		lineage = append(lineage, name)
	}
	for _, v := range plan.UsedViews {
		lineage = append(lineage, strings.ToLower(v))
	}
	slices.Sort(lineage)
	return slices.Compact(lineage)
}

// relations adds to read, by lowercased name, every relation from reads:
// named, in a derived table, or under a view — a view's bases count too, as
// apply targets a cached view's own table and a bulk load or DROP the base.
// It reports false when from names something that does not exist.
func (db *Database) relations(from []sql.TableRef, read map[string]*catalog.Table) bool {
	for _, ref := range from {
		ok := true
		switch r := ref.(type) {
		case *sql.TableName:
			t := db.cat.Table(r.FullName())
			if t == nil {
				return false
			}
			lower := strings.ToLower(t.Name)
			if read[lower] != nil {
				continue // already expanded (also breaks view cycles)
			}
			read[lower] = t
			ok = t.ViewDef == nil || db.relations(t.ViewDef.From, read)
		case *sql.JoinRef:
			ok = db.relations([]sql.TableRef{r.Left, r.Right}, read)
		case *sql.SubqueryRef:
			ok = db.relations(r.Select.From, read)
		default:
			ok = false
		}
		if !ok {
			return false
		}
	}
	return true
}

// imObserve feeds one successfully executed SELECT, computed under vals,
// into the cache under key; the cache copies vals and res's rows if it keeps
// them (autoArgs alias pooled normalizer buffers, a wire request's parameters
// its frame, and res's values the slab its Release recycles), so res stays
// its caller's to release. Only an execution that made no remote call
// qualifies — a fully local plan, or a dynamic plan whose guard chose the
// local branch: rows produced on the backend could be invalidated silently by
// writes this cache never hears about. Its benefit is the record's execute
// stage.
func (db *Database) imObserve(imc *imcache.Cache, key imcache.Key, vals []types.Value, stamp uint64,
	lineage []string, res *Result, rec *trace.Record) {
	if res.Counters.RemoteQueries > 0 || lineage == nil {
		return
	}
	imc.Observe(imcache.Observation{
		Key:     key,
		Cols:    res.Cols,
		Rows:    res.Rows,
		Lineage: lineage,
		LSN:     uint64(res.SnapshotLSN),
		CostNs:  rec.Stages[trace.StageExec].Nanoseconds(),
		Stamp:   stamp,
	}, vals)
}

// intermediateResultsRows backs sys.intermediate_results, empty on a backend.
func (db *Database) intermediateResultsRows() []types.Row {
	if db.imc == nil {
		return nil
	}
	infos := db.imc.Snapshot()
	rows := make([]types.Row, 0, len(infos))
	for _, e := range infos {
		rows = append(rows, types.Row{
			types.NewString(e.Shape),
			types.NewString(formatValues(e.Vals)),
			types.NewInt(int64(e.Rows)),
			types.NewInt(e.Bytes),
			types.NewInt(e.Hits),
			types.NewInt(e.SavedNs),
			types.NewString(strings.Join(e.Lineage, ",")),
			types.NewInt(int64(e.LSN)),
			types.NewBool(e.Stale),
		})
	}
	return rows
}
