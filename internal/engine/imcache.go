// Intermediate-result cache glue: key construction, lineage extraction,
// exact-match lookup before planning and admission after execution. The
// cache itself (admission thresholds, benefit-weighted eviction, staleness
// transitions) lives in internal/imcache; the replication apply path and
// every local write path invalidate through InvalidateIntermediates.
package engine

import (
	"sort"
	"strconv"
	"strings"
	"time"

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
// table as stale. Every write path calls it after commit: local DML and
// procedures on a backend, forwarded DML on a cache, bulk loads, DROP,
// and — the transparent path — replication apply.
func (db *Database) InvalidateIntermediates(table string) {
	db.imc.Invalidate(table, time.Now())
}

// imKey builds the exact-match result key: the shape plus a kind-tagged
// encoding of every bound value (auto-extracted literals positionally,
// named parameters sorted by name — as spelled: the executor resolves @ID
// and @id to different map entries). The builder copies all byte content,
// so keys never alias the pooled normalizer buffers autoArgs point into.
func imKey(shape string, params exec.Params, autoArgs []types.Value) string {
	var b strings.Builder
	b.Grow(len(shape) + 16*len(autoArgs) + 16*len(params))
	b.WriteString(shape)
	b.WriteByte(0)
	for i := range autoArgs {
		imWriteValue(&b, autoArgs[i])
	}
	if len(params) > 0 {
		names := make([]string, 0, len(params))
		for n := range params {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			b.WriteByte(1)
			b.WriteString(n)
			b.WriteByte('=')
			imWriteValue(&b, params[n])
		}
	}
	return b.String()
}

// imFreshnessKey computes the exact-match key for a WITH FRESHNESS
// execution so it lands on its unbounded twin's entry. Freshness text is
// ineligible for auto-parameterization (the bound is re-evaluated per
// execution), so the raw statement still carries literals; deparsing the
// stripped statement and re-normalizing that text yields exactly the shape
// and extracted values the twin was admitted under.
func (db *Database) imFreshnessKey(stmt *sql.SelectStmt, params exec.Params) string {
	bare := &sql.SelectStmt{
		Top: stmt.Top, Distinct: stmt.Distinct, Columns: stmt.Columns,
		From: stmt.From, Where: stmt.Where, GroupBy: stmt.GroupBy,
		Having: stmt.Having, OrderBy: stmt.OrderBy,
	}
	text := sql.Deparse(bare)
	keyParams, _ := imStripFreshnessRefs(stmt.Freshness, params, nil)
	if nstmt, args, norm, ok := db.autoParse(text); ok {
		key := imKey(nstmt.CacheKey(), keyParams, args)
		normPool.Put(norm)
		return key
	}
	return imKey(text, keyParams, nil)
}

// imStripFreshnessRefs drops the bound values the WITH FRESHNESS clause
// consumes from key construction: the bound gates *serving*, not result
// identity, so "… WITH FRESHNESS @bound" must share its unbounded twin's
// key. Auto-extracted literals are dropped by position; named parameters
// referenced only by the clause are dropped by name.
func imStripFreshnessRefs(fresh sql.Expr, params exec.Params, autoArgs []types.Value) (exec.Params, []types.Value) {
	skipIdx := map[int]bool{}
	skipName := map[string]bool{}
	imCollectParams(fresh, skipIdx, skipName)
	if len(skipIdx) > 0 {
		kept := make([]types.Value, 0, len(autoArgs))
		for i, v := range autoArgs {
			if !skipIdx[i] {
				kept = append(kept, v)
			}
		}
		autoArgs = kept
	}
	if len(skipName) > 0 && len(params) > 0 {
		kept := make(exec.Params, len(params))
		for n, v := range params {
			if !skipName[strings.ToLower(n)] {
				kept[n] = v
			}
		}
		params = kept
	}
	return params, autoArgs
}

// imCollectParams records every parameter reference under e: auto-params
// by extraction index, explicit ones by lowercased name.
func imCollectParams(e sql.Expr, idx map[int]bool, names map[string]bool) {
	switch x := e.(type) {
	case *sql.Param:
		if i, ok := sql.AutoParamIndex(x.Name); ok {
			idx[i] = true
		} else {
			names[strings.ToLower(x.Name)] = true
		}
	case *sql.BinaryExpr:
		imCollectParams(x.L, idx, names)
		imCollectParams(x.R, idx, names)
	case *sql.UnaryExpr:
		imCollectParams(x.X, idx, names)
	case *sql.FuncCall:
		for _, a := range x.Args {
			imCollectParams(a, idx, names)
		}
	}
}

// imWriteValue appends a kind-tagged rendering of v, unambiguous across
// kinds (an INT 1 and the string "1" must not collide).
func imWriteValue(b *strings.Builder, v types.Value) {
	switch v.K {
	case types.KindNull:
		b.WriteString("n;")
	case types.KindBool, types.KindInt:
		b.WriteString("i:")
		b.WriteString(strconv.FormatInt(v.Int(), 10))
		b.WriteByte(';')
	case types.KindFloat:
		b.WriteString("f:")
		b.WriteString(strconv.FormatFloat(v.Float(), 'g', -1, 64))
		b.WriteByte(';')
	case types.KindString:
		b.WriteString("s:")
		b.WriteString(strconv.Quote(v.S))
		b.WriteByte(';')
	case types.KindTime:
		b.WriteString("t:")
		t := v.Time()
		b.WriteString(strconv.FormatInt(t.Unix(), 10))
		b.WriteByte('.')
		b.WriteString(strconv.Itoa(t.Nanosecond()))
		b.WriteByte(';')
	default:
		b.WriteString("?;")
	}
}

// imLineage collects (lowercased, into out) every base table and view the
// statement reads, recursing through view definitions and derived tables.
// It returns false when the statement is ineligible for caching: a
// virtual (sys.*) relation, an unknown name, or an unresolvable ref.
func (db *Database) imLineage(stmt *sql.SelectStmt, out map[string]bool) bool {
	for _, ref := range stmt.From {
		if !db.imLineageRef(ref, out) {
			return false
		}
	}
	return true
}

func (db *Database) imLineageRef(ref sql.TableRef, out map[string]bool) bool {
	switch r := ref.(type) {
	case *sql.TableName:
		t := db.cat.Table(r.FullName())
		if t == nil || t.Virtual {
			return false // sys.* output changes outside any write path
		}
		lower := strings.ToLower(t.Name)
		if out[lower] {
			return true // already expanded (also breaks view cycles)
		}
		out[lower] = true
		if t.IsView && t.ViewDef != nil {
			// Record the underlying bases too: replication apply targets
			// the cached view's own table, local DML targets the base.
			for _, sub := range t.ViewDef.From {
				if !db.imLineageRef(sub, out) {
					return false
				}
			}
		}
		return true
	case *sql.JoinRef:
		return db.imLineageRef(r.Left, out) && db.imLineageRef(r.Right, out)
	case *sql.SubqueryRef:
		return db.imLineage(r.Select, out)
	}
	return false
}

// imObserve feeds one successfully executed SELECT into the cache. Only an
// execution that made no remote call qualifies — a fully local plan, or a
// dynamic plan whose guard chose the local branch: rows produced on the
// backend could be invalidated silently by writes this cache never hears
// about. The entry goes under the record's shape (WITH FRESHNESS lookups reach
// it through imFreshnessKey); its benefit is the record's execute stage.
func (db *Database) imObserve(imc *imcache.Cache, key string, stamp uint64, stmt *sql.SelectStmt,
	autoArgs []types.Value, plan *opt.Plan, res *Result, rec *trace.Record) {
	if res.Counters.RemoteQueries > 0 {
		return
	}
	lineage := map[string]bool{}
	if !db.imLineage(stmt, lineage) || len(lineage) == 0 {
		return
	}
	for _, v := range plan.UsedViews {
		lineage[strings.ToLower(v)] = true
	}
	names := make([]string, 0, len(lineage))
	for n := range lineage {
		names = append(names, n)
	}
	imc.Observe(imcache.Observation{
		Key:     key,
		Shape:   rec.Shape,
		Args:    formatLiterals(autoArgs),
		Cols:    res.Cols,
		Rows:    res.Rows,
		Lineage: names,
		LSN:     uint64(res.SnapshotLSN),
		CostNs:  rec.Stages[trace.StageExec].Nanoseconds(),
		Stamp:   stamp,
	}, time.Now())
}

// intermediateResultsRows backs sys.intermediate_results.
func (db *Database) intermediateResultsRows() []types.Row {
	infos := db.imc.Snapshot(time.Now())
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
			types.NewFloat(e.StalenessSeconds),
		})
	}
	return rows
}
