// Intermediate-result cache glue: the values a result key covers, lineage
// extraction, exact-match lookup before planning and admission after
// execution. The cache itself (admission thresholds, benefit-weighted
// eviction, invalidation) lives in internal/imcache; a backend's local writes
// and a cache's replication apply invalidate through InvalidateIntermediates.
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

// IMCache exposes the intermediate-result cache.
func (db *Database) IMCache() *imcache.Cache { return db.imc }

// SetIMCacheEnabled toggles the intermediate-result cache at runtime.
// Disabling (or re-enabling) drops every cached result and admission
// candidate; while off there are no lookups and no candidate tracking.
// Benchmarks use it to measure with/without phases on one database. Cached
// plans are untouched: no plan reads the result cache.
func (db *Database) SetIMCacheEnabled(on bool) {
	db.imcOn.Store(on)
	db.imc.Clear()
}

// imcacheIfEnabled returns the cache when it is switched on.
func (db *Database) imcacheIfEnabled() *imcache.Cache {
	if db.imcOn.Load() {
		return db.imc
	}
	return nil
}

// InvalidateIntermediates marks every intermediate whose lineage includes
// table as stale: never served again until an execution refreshes it. Bulk
// loads and DROP call it, and on a backend local DML and procedures after
// commit. On a cache, replication apply is the one invalidation a write
// causes: the result cache admits only executions that read cached views
// alone, and nothing but apply changes those — a write the cache forwards
// reaches them, like any other, when apply does.
func (db *Database) InvalidateIntermediates(table string) {
	db.imc.Invalidate(table)
}

// paramRefs adds to refs the parameters a SELECT references, as spelled (the
// executor resolves @ID and @id apart), each once: the values its results
// depend on.
func paramRefs(s *sql.SelectStmt, refs []string) []string {
	note := func(e sql.Expr) bool {
		if p, ok := e.(*sql.Param); ok && !slices.Contains(refs, p.Name) {
			refs = append(refs, p.Name)
		}
		return true
	}
	exprs := append([]sql.Expr{s.Top, s.Where, s.Having}, s.GroupBy...)
	for _, c := range s.Columns {
		exprs = append(exprs, c.Expr)
	}
	for _, o := range s.OrderBy {
		exprs = append(exprs, o.Expr)
	}
	for from := slices.Clone(s.From); len(from) > 0; from = from[1:] {
		switch r := from[0].(type) {
		case *sql.JoinRef:
			exprs, from = append(exprs, r.On), append(from, r.Left, r.Right)
		case *sql.SubqueryRef:
			refs = paramRefs(r.Select, refs)
		}
	}
	for _, e := range exprs {
		sql.WalkExpr(e, note)
	}
	return refs
}

// keyValues appends to dst the values one execution binds to e's parameters —
// what its result key covers — and reports false when one of them is unbound:
// that execution bypasses the result cache.
func (e *planEntry) keyValues(dst []types.Value, params exec.Params, autoArgs []types.Value) ([]types.Value, bool) {
	for _, name := range e.refs {
		v, ok := paramValue(name, params, autoArgs)
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
// of the plan may be cached: it reads a virtual (sys.*) relation, an unknown
// name, a view whose definition references a parameter, or nothing.
func (db *Database) imLineage(stmt *sql.SelectStmt, plan *opt.Plan) []string {
	read := map[string]*catalog.Table{}
	if !db.relations(stmt.From, read) || len(read) == 0 {
		return nil
	}
	lineage := make([]string, 0, len(read)+len(plan.UsedViews))
	for name, t := range read {
		if t.Virtual || t.ViewDef != nil && len(paramRefs(t.ViewDef, nil)) > 0 {
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
// replication apply targets the cached view's own table and local DML the
// base. It reports false when from names something that does not exist.
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

// imObserve feeds one successfully executed SELECT into the cache under key,
// with a copy of vals the cache may keep (autoArgs alias pooled normalizer
// buffers, and a wire request's parameters its frame). Only an execution that
// made no remote call qualifies — a fully local plan, or a dynamic plan whose
// guard chose the local branch: rows produced on the backend could be
// invalidated silently by writes this cache never hears about. Its benefit is
// the record's execute stage.
func (db *Database) imObserve(imc *imcache.Cache, key imcache.Key, vals []types.Value, stamp uint64,
	autoArgs []types.Value, lineage []string, res *Result, rec *trace.Record) {
	if res.Counters.RemoteQueries > 0 || lineage == nil {
		return
	}
	kept := make([]types.Value, len(vals))
	for i, v := range vals {
		v.S = strings.Clone(v.S)
		kept[i] = v
	}
	imc.Observe(imcache.Observation{
		Key:     key,
		Vals:    kept,
		Args:    formatLiterals(autoArgs),
		Cols:    res.Cols,
		Rows:    res.Rows,
		Lineage: lineage,
		LSN:     uint64(res.SnapshotLSN),
		CostNs:  rec.Stages[trace.StageExec].Nanoseconds(),
		Stamp:   stamp,
	})
}

// intermediateResultsRows backs sys.intermediate_results.
func (db *Database) intermediateResultsRows() []types.Row {
	infos := db.imc.Snapshot()
	rows := make([]types.Row, 0, len(infos))
	for _, e := range infos {
		rows = append(rows, types.Row{
			types.NewString(e.Shape),
			types.NewString(e.Args),
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
