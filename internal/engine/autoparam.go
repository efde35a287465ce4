package engine

import (
	"strings"
	"sync"

	"mtcache/internal/exec"
	"mtcache/internal/metrics"
	"mtcache/internal/opt"
	"mtcache/internal/sql"
	"mtcache/internal/types"
)

// Auto-parameterization front door. Ad-hoc SELECT text is normalized by
// sql.Normalizer before it ever reaches the parser: literals become @__pN
// parameters and the remaining tokens render in canonical form, so every
// literal variant of one query shape maps to ONE cached parse tree and,
// through it, ONE cached plan (paper §5.1: cached dynamic plans "avoid the
// need for frequent reoptimization"). On a shape hit the per-execution work
// is one zero-allocation normalization pass plus a map lookup — no lexing
// into tokens, no AST, no optimizer.
//
// A cache does exactly what a backend does. Where a cached view's predicate
// decides whether a statement can be answered locally, the shared plan is a
// ChoosePlan whose guard tests the bound literals at run time (the guarded
// matcher in opt accepts whatever the literal matcher would have), and its
// remote branch ships the parameterized text with the literals in the
// named-parameter map — which the backend's front door resolves to its own
// shared statement without parsing.

// defaultAutoCacheCap bounds the per-database shape cache; beyond it the
// least recently used shape is evicted and will re-parse on next use.
const defaultAutoCacheCap = 512

// normPool recycles Normalizers across executions and goroutines. Each
// instance keeps its grown buffers, so steady-state normalization performs
// no allocations.
var normPool = sync.Pool{New: func() any { return new(sql.Normalizer) }}

func shapeEvicted(string) { metrics.Default.Counter("engine.autoparam_evictions").Add(1) }

// autoParse resolves sqlText through the auto-parameterization cache.
// ok=false means the text is not eligible (not a plain SELECT, disabled, or
// a negative-cached shape) and the caller takes the ordinary parse path.
// On ok=true the returned statement is the SHARED parsed form of the shape —
// callers must treat it as read-only — and args holds the literal values in
// @__p0.. order. args aliases the returned Normalizer's buffers: hand norm
// back to normPool only once args is no longer needed.
func (db *Database) autoParse(sqlText string) (stmt *sql.SelectStmt, args []types.Value, norm *sql.Normalizer, ok bool) {
	if db.autoOff {
		return nil, nil, nil, false
	}
	n := normPool.Get().(*sql.Normalizer)
	key, vals, okN := n.Normalize(sqlText)
	if !okN {
		normPool.Put(n)
		metrics.Default.Counter("engine.autoparam_bypass").Add(1)
		return nil, nil, nil, false
	}
	db.autoMu.Lock()
	stmt, hit := db.autoCache.getBytes(key)
	db.autoMu.Unlock()
	if !hit {
		metrics.Default.Counter("engine.autoparam_misses").Add(1)
		// Resolve outside the lock: a concurrent miss on the same shape just
		// parses twice and the second insert wins.
		shape := string(key)
		stmt = autoResolve(shape)
		db.autoMu.Lock()
		db.autoCache.put(shape, stmt)
		db.autoMu.Unlock()
	} else if stmt != nil {
		metrics.Default.Counter("engine.autoparam_hits").Add(1)
	}
	if stmt == nil {
		normPool.Put(n)
		metrics.Default.Counter("engine.autoparam_bypass").Add(1)
		return nil, nil, nil, false
	}
	return stmt, vals, n, true
}

// autoResolve decides one normalized shape from its text alone: the
// statement every literal variant will share, or nil when the front door
// must skip the shape every time (the key failed to parse, parsed to a
// non-SELECT, or carries WITH FRESHNESS — planned per execution, bypassing
// the plan cache anyway). Caching the nil makes repeated bad or ineligible
// text cost one lookup instead of one parse. The key is itself valid SQL in
// canonical token form, so the parsed statement's deparse — the plan-cache
// key — is canonical for the shape.
func autoResolve(shape string) *sql.SelectStmt {
	parsed, err := sql.Parse(shape)
	if err != nil {
		return nil
	}
	sel, isSel := parsed.(*sql.SelectStmt)
	if !isSel || sel.Freshness != nil {
		return nil
	}
	// Warm the deparse memo before the statement is shared across
	// goroutines; afterwards CacheKey is a read-only field access.
	sel.CacheKey()
	return sel
}

// AutoParamCacheSize reports the number of cached shapes (including
// negative entries); used by tests.
func (db *Database) AutoParamCacheSize() int {
	db.autoMu.Lock()
	defer db.autoMu.Unlock()
	return db.autoCache.len()
}

// bindParams installs one execution's parameters on ctx: the named map —
// merged with the auto-parameterized literals when the plan forwards
// parameters to the backend by name — plus the dense slot bindings the
// plan's compiled expressions read without a map lookup (see
// exec.AssignParamSlots). Slots left unbound fall back to the named map at
// Eval time, so missing-parameter errors surface exactly as before.
func bindParams(plan *opt.Plan, params exec.Params, autoArgs []types.Value, ctx *exec.Ctx) {
	if !plan.FullyLocal {
		params = withAutoArgs(params, autoArgs)
	}
	ctx.Params = params
	ctx.Env.Named = params
	n := len(plan.Params)
	if n == 0 {
		return
	}
	ctx.Env.Slots = make([]types.Value, n)
	ctx.Env.Bound = make([]bool, n)
	for i, name := range plan.Params {
		if idx, isAuto := sql.AutoParamIndex(name); isAuto && idx < len(autoArgs) {
			ctx.Env.Slots[i], ctx.Env.Bound[i] = autoArgs[idx], true
		} else if v, okP := params[name]; okP {
			ctx.Env.Slots[i], ctx.Env.Bound[i] = v, true
		}
	}
}

// withAutoArgs returns params with the auto-parameterized literals added
// under their @__pN names (params itself when there are none).
func withAutoArgs(params exec.Params, autoArgs []types.Value) exec.Params {
	if len(autoArgs) == 0 {
		return params
	}
	merged := make(exec.Params, len(params)+len(autoArgs))
	for k, v := range params {
		merged[k] = v
	}
	for i, v := range autoArgs {
		merged[sql.AutoParamName(i)] = v
	}
	return merged
}

// formatLiterals renders the literal values bound to a captured slow query
// ("" when the execution was not auto-parameterized), so sys.query_plans
// can show a concrete reproducing invocation next to the normalized shape.
func formatLiterals(autoArgs []types.Value) string {
	if len(autoArgs) == 0 {
		return ""
	}
	var b strings.Builder
	for i, v := range autoArgs {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteByte('@')
		b.WriteString(sql.AutoParamName(i))
		b.WriteString(" = ")
		if v.K == types.KindString {
			b.WriteByte('\'')
			b.WriteString(strings.ReplaceAll(v.Str(), "'", "''"))
			b.WriteByte('\'')
		} else {
			b.WriteString(v.String())
		}
	}
	return b.String()
}
