package engine

import (
	"bytes"
	"strings"
	"sync"

	"mtcache/internal/exec"
	"mtcache/internal/metrics"
	"mtcache/internal/sql"
	"mtcache/internal/types"
)

// Auto-parameterization front door. Ad-hoc SELECT, EXEC and DML text is
// normalized by sql.Normalizer before it ever reaches the parser: literals
// become @__pN parameters and the remaining tokens render in canonical form,
// so every literal variant of one shape maps to ONE plan-cache entry, holding
// the shape's parse tree and ONE plan, a query's or a write's (paper §5.1:
// cached dynamic plans "avoid the need for frequent reoptimization"). On a
// shape hit the per-execution work is one zero-allocation normalization pass
// plus one map lookup — no lexing into tokens, no AST, no optimizer.
//
// A procedure call is the same: a router sends a call as its shape (EXEC
// getBook @i_id = @i_id, sql.CallShape) with the arguments in the
// named-parameter map, so every call of a procedure with the same parameter
// names is one parsed statement here, bound per call by execProcCall — and
// a literal EXEC typed by hand shares one per shape like a literal SELECT.
//
// A cache does exactly what a backend does. Where a cached view's predicate
// decides whether a statement can be answered locally, the shared plan is a
// ChoosePlan whose guard tests the bound literals at run time (the guarded
// matcher in opt accepts whatever the literal matcher would have), and its
// remote branch ships the parameterized text with the literals in the
// named-parameter map — which the backend's front door resolves to its own
// shared statement without parsing. A write and a call to a procedure the
// cache has no copy of go on the same way: the shape, and the one map.

// normPool recycles Normalizers across executions and goroutines. Each
// instance keeps its grown buffers, so steady-state normalization performs
// no allocations.
var normPool = sync.Pool{New: func() any { return new(sql.Normalizer) }}

// autoParse resolves sqlText through the plan cache's front door.
// ok=false means the text is not eligible (not a plain SELECT, EXEC or DML
// statement, disabled, a negative-cached shape, or an invalid WITH FRESHNESS
// bound) and the caller takes the ordinary parse path, which reports what is
// wrong. On ok=true the returned entry holds the SHARED parsed form of the
// shape, which callers must treat as read-only, and once an execution has
// planned it, a SELECT's plan or a write's write plan. args holds the
// literal values in @__p0.. order and aliases the returned Normalizer's
// buffers: hand norm back to normPool only once args is no longer needed.
//
// A SELECT text ending in WITH FRESHNESS and one parameter or literal resolves
// to its unbounded twin's entry (cutFreshness), and fresh is its bound in
// seconds; otherwise fresh is unbounded.
func (db *Database) autoParse(sqlText string, params exec.Params) (e *planEntry, args []types.Value, fresh float64, norm *sql.Normalizer, ok bool) {
	fresh = unbounded
	if db.autoOff {
		return nil, nil, fresh, nil, false
	}
	n := normPool.Get().(*sql.Normalizer)
	key, vals, okN := n.Normalize(sqlText)
	if okN {
		key, vals, fresh, okN = cutFreshness(key, vals, params)
	}
	if !okN {
		normPool.Put(n)
		metrics.Default.Counter("engine.autoparam_bypass").Add(1)
		return nil, nil, unbounded, nil, false
	}
	db.plansMu.Lock()
	e, hit := db.plans.getBytes(key)
	db.plansMu.Unlock()
	if !hit {
		metrics.Default.Counter("engine.autoparam_misses").Add(1)
		// Resolve outside the lock: concurrent misses on one shape each
		// parse, and end on the one entry the first insert made.
		shape := string(key)
		e = autoResolve(shape)
		db.plansMu.Lock()
		e = db.plans.add(shape, e)
		db.plansMu.Unlock()
	} else if e.stmt != nil {
		metrics.Default.Counter("engine.autoparam_hits").Add(1)
	}
	// A negative shape, or a bound off anything but a SELECT, goes the
	// ordinary way.
	if _, isSelect := e.stmt.(*sql.SelectStmt); e.stmt == nil || fresh != unbounded && !isSelect {
		normPool.Put(n)
		metrics.Default.Counter("engine.autoparam_bypass").Add(1)
		return nil, nil, unbounded, nil, false
	}
	return e, vals, fresh, n, true
}

// cutFreshness takes a trailing WITH FRESHNESS clause whose bound is one
// parameter — named, or the text's last literal, which leaves vals — off a
// normalized key: the rest is the unbounded twin's key by construction (only
// the outermost SELECT's clause ends the text). It reads the bound once;
// ok=false when it is unbound or not a valid number of seconds.
func cutFreshness(key []byte, vals []types.Value, params exec.Params) (shape []byte, rest []types.Value, fresh float64, ok bool) {
	const clause = " WITH FRESHNESS @"
	i := bytes.LastIndex(key, []byte(clause))
	if i < 0 || bytes.IndexByte(key[i+len(clause):], ' ') >= 0 {
		return key, vals, unbounded, true
	}
	name := key[i+len(clause):]
	var v types.Value
	if last := len(vals) - 1; last >= 0 && string(name) == sql.AutoParamName(last) {
		v, vals = vals[last], vals[:last]
	} else if v, ok = params[string(name)]; !ok {
		return key, vals, unbounded, false
	}
	fresh, err := freshnessSeconds(v)
	return key[:i], vals, fresh, err == nil
}

// autoResolve decides one normalized shape from its text alone: the entry of
// the statement every literal variant will share, or a negative entry (no
// statement) when the front door must skip the shape every time (the key
// failed to parse, or is a SELECT that still carries a WITH FRESHNESS clause
// whose bound is more than one parameter, which the parsed statement
// evaluates per execution). Caching the negative entry makes repeated bad or
// ineligible text cost one lookup instead of one parse. The key is itself
// valid SQL in canonical token form, so the parsed statement's deparse — the
// query-store key, the text a forwarded call or write travels as — is
// canonical for the shape. The shape is syntax only: which procedure a call
// binds to, and how, is looked up per execution.
func autoResolve(shape string) *planEntry {
	parsed, err := sql.Parse(shape)
	if err != nil {
		return &planEntry{}
	}
	// Warm the deparse memo before the statement is shared across
	// goroutines; afterwards CacheKey and Text are read-only field accesses.
	switch x := parsed.(type) {
	case *sql.SelectStmt:
		if x.Freshness != nil {
			return &planEntry{}
		}
		x.CacheKey()
		return &planEntry{stmt: x, refs: x.ParamNames(nil)}
	case *sql.ExecStmt:
		x.Text()
		return &planEntry{stmt: x}
	case *sql.InsertStmt, *sql.UpdateStmt, *sql.DeleteStmt:
		x.(keyed).CacheKey()
		return &planEntry{stmt: x}
	}
	return &planEntry{}
}

// withAutoArgs returns params with the auto-parameterized literals added
// under their @__pN names (params itself when there are none): the map of a
// statement that leaves as text (forward), and the values a degraded re-plan
// stands in for its parameters.
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
	var b strings.Builder
	for i, v := range autoArgs {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteByte('@')
		b.WriteString(sql.AutoParamName(i))
		b.WriteString(" = ")
		writeLiteral(&b, v)
	}
	return b.String()
}

// formatValues renders a result-cache entry's key values as SQL literals,
// in the shape's parameter order, for sys.intermediate_results.
func formatValues(vals []types.Value) string {
	var b strings.Builder
	for i, v := range vals {
		if i > 0 {
			b.WriteString(", ")
		}
		writeLiteral(&b, v)
	}
	return b.String()
}

// writeLiteral writes v as a SQL literal: a string quoted, its quotes doubled.
func writeLiteral(b *strings.Builder, v types.Value) {
	if v.K != types.KindString {
		b.WriteString(v.String())
		return
	}
	b.WriteByte('\'')
	b.WriteString(strings.ReplaceAll(v.Str(), "'", "''"))
	b.WriteByte('\'')
}
