package opt

import (
	"fmt"
	"slices"
	"strings"

	"mtcache/internal/catalog"
	"mtcache/internal/exec"
	"mtcache/internal/sql"
	"mtcache/internal/types"
)

// Params is one compilation's parameter list: each parameter its
// expressions read, at the index that is its slot in exec.Env. A planner run
// keeps one, which its sub-planners, guards, TOP expressions and
// DataTransfers add to and which becomes Plan.Params; the engine keeps one
// for each write plan and WITH FRESHNESS bound it compiles with
// CompileScalar.
type Params []string

// param compiles a reference to @name at its slot: the name's place in the
// list, which it joins at the end the first time.
func (ps *Params) param(name string) *exec.ParamExpr {
	i := slices.Index(*ps, name)
	if i < 0 {
		i = len(*ps)
		*ps = append(*ps, name)
	}
	return &exec.ParamExpr{Name: name, Slot: i}
}

// remote is what a DataTransfer of stmt sends the backend: each parameter
// its text reads, a WITH FRESHNESS bound's included, at its slot.
func (ps *Params) remote(stmt *sql.SelectStmt) []*exec.ParamExpr {
	var out []*exec.ParamExpr
	for _, name := range sql.AppendParamNames(stmt.ParamNames(nil), stmt.Freshness) {
		out = append(out, ps.param(name))
	}
	return out
}

// scope resolves column references against an operator's output schema, and
// compiles parameters into params (none may appear where it is nil).
type scope struct {
	cols   []exec.ColInfo
	params *Params
}

// scope is a scope over cols that compiles into the plan's parameter list.
func (pl *planner) scope(cols []exec.ColInfo) *scope {
	return &scope{cols: cols, params: pl.params}
}

// resolve returns the ordinal of ref within the scope. Qualified references
// match on (table alias, name); unqualified must be unambiguous.
func (s *scope) resolve(ref *sql.ColumnRef) (int, error) {
	found := -1
	for i, c := range s.cols {
		if !strings.EqualFold(c.Name, ref.Name) {
			continue
		}
		if ref.Table != "" && !strings.EqualFold(c.Table, ref.Table) {
			continue
		}
		if found >= 0 {
			return 0, fmt.Errorf("opt: ambiguous column %s", ref.Name)
		}
		found = i
	}
	if found < 0 {
		if ref.Table != "" {
			return 0, fmt.Errorf("opt: unknown column %s.%s", ref.Table, ref.Name)
		}
		return 0, fmt.Errorf("opt: unknown column %s", ref.Name)
	}
	return found, nil
}

// kindOf returns the declared kind of column i.
func (s *scope) kindOf(i int) types.Kind { return s.cols[i].Kind }

// compileExpr lowers a SQL expression to an executable expression against
// the given scope. Aggregate function calls are rejected here; the planner
// rewrites them to agg-output column references before compiling.
func compileExpr(e sql.Expr, s *scope) (exec.Expr, error) {
	switch x := e.(type) {
	case nil:
		return nil, nil
	case *sql.ColumnRef:
		i, err := s.resolve(x)
		if err != nil {
			return nil, err
		}
		return &exec.ColExpr{I: i}, nil
	case *sql.Literal:
		return &exec.ConstExpr{V: x.Val}, nil
	case *sql.Param:
		if s.params == nil {
			return nil, fmt.Errorf("opt: parameter @%s is not allowed here", x.Name)
		}
		return s.params.param(x.Name), nil
	case *sql.BinaryExpr:
		l, err := compileExpr(x.L, s)
		if err != nil {
			return nil, err
		}
		r, err := compileExpr(x.R, s)
		if err != nil {
			return nil, err
		}
		return &exec.BinExpr{Op: x.Op, L: l, R: r}, nil
	case *sql.UnaryExpr:
		in, err := compileExpr(x.X, s)
		if err != nil {
			return nil, err
		}
		if x.Op == sql.OpNot {
			return &exec.NotExpr{X: in}, nil
		}
		return &exec.NegExpr{X: in}, nil
	case *sql.LikeExpr:
		xx, err := compileExpr(x.X, s)
		if err != nil {
			return nil, err
		}
		p, err := compileExpr(x.Pattern, s)
		if err != nil {
			return nil, err
		}
		return &exec.LikeMatch{X: xx, Pattern: p, Not: x.Not}, nil
	case *sql.InExpr:
		xx, err := compileExpr(x.X, s)
		if err != nil {
			return nil, err
		}
		list := make([]exec.Expr, len(x.List))
		for i, item := range x.List {
			list[i], err = compileExpr(item, s)
			if err != nil {
				return nil, err
			}
		}
		return exec.NewInMatch(xx, list, x.Not), nil
	case *sql.BetweenExpr:
		xx, err := compileExpr(x.X, s)
		if err != nil {
			return nil, err
		}
		lo, err := compileExpr(x.Lo, s)
		if err != nil {
			return nil, err
		}
		hi, err := compileExpr(x.Hi, s)
		if err != nil {
			return nil, err
		}
		return &exec.BetweenMatch{X: xx, Lo: lo, Hi: hi, Not: x.Not}, nil
	case *sql.IsNullExpr:
		xx, err := compileExpr(x.X, s)
		if err != nil {
			return nil, err
		}
		return &exec.IsNullMatch{X: xx, Not: x.Not}, nil
	case *sql.CaseExpr:
		out := &exec.CaseMatch{}
		for _, w := range x.Whens {
			c, err := compileExpr(w.Cond, s)
			if err != nil {
				return nil, err
			}
			t, err := compileExpr(w.Then, s)
			if err != nil {
				return nil, err
			}
			out.Whens = append(out.Whens, struct{ Cond, Then exec.Expr }{c, t})
		}
		if x.Else != nil {
			e, err := compileExpr(x.Else, s)
			if err != nil {
				return nil, err
			}
			out.Else = e
		}
		return out, nil
	case *sql.FuncCall:
		if _, isAgg := exec.ParseAggFunc(x.Name, x.Star); isAgg {
			return nil, fmt.Errorf("opt: aggregate %s not allowed here", x.Name)
		}
		args := make([]exec.Expr, len(x.Args))
		var err error
		for i, a := range x.Args {
			args[i], err = compileExpr(a, s)
			if err != nil {
				return nil, err
			}
		}
		return &exec.ScalarFunc{Name: x.Name, Args: args}, nil
	}
	return nil, fmt.Errorf("opt: cannot compile expression %T", e)
}

// CompileScalar compiles an expression against an optional base-table scope,
// its parameters into params (nil: it may have none). With a nil table the
// expression may reference only literals and parameters. Used by the
// engine's DML paths and WITH FRESHNESS bounds, and view maintenance.
func CompileScalar(e sql.Expr, t *catalog.Table, params *Params) (exec.Expr, error) {
	sc := &scope{params: params}
	if t != nil {
		for _, c := range t.Columns {
			sc.cols = append(sc.cols, exec.ColInfo{Table: t.Name, Name: c.Name, Kind: c.Type})
		}
	}
	return compileExpr(e, sc)
}

// compileParamOnly compiles a guard expression that may reference only
// parameters, into params (startup predicates, seek bounds, TOP).
func compileParamOnly(e sql.Expr, params *Params) (exec.Expr, error) {
	if refs := columnRefs(e); len(refs) > 0 {
		return nil, fmt.Errorf("opt: guard references columns: %v", refs)
	}
	return compileExpr(e, &scope{params: params})
}

// exprKind infers the result kind of an expression against a scope (best
// effort; used to type computed select items).
func exprKind(e sql.Expr, s *scope) types.Kind {
	switch x := e.(type) {
	case *sql.ColumnRef:
		if i, err := s.resolve(x); err == nil {
			return s.kindOf(i)
		}
	case *sql.Literal:
		return x.Val.K
	case *sql.BinaryExpr:
		if x.Op.IsComparison() || x.Op == sql.OpAnd || x.Op == sql.OpOr {
			return types.KindBool
		}
		lk := exprKind(x.L, s)
		rk := exprKind(x.R, s)
		if lk == types.KindFloat || rk == types.KindFloat {
			return types.KindFloat
		}
		if lk == types.KindString && rk == types.KindString {
			return types.KindString
		}
		return types.KindInt
	case *sql.UnaryExpr:
		if x.Op == sql.OpNot {
			return types.KindBool
		}
		return exprKind(x.X, s)
	case *sql.FuncCall:
		switch x.Name {
		case "COUNT", "LEN", "LENGTH":
			return types.KindInt
		case "AVG":
			return types.KindFloat
		case "SUM", "MIN", "MAX", "ABS":
			if len(x.Args) == 1 {
				return exprKind(x.Args[0], s)
			}
			return types.KindFloat
		case "UPPER", "LOWER", "SUBSTRING":
			return types.KindString
		case "COALESCE":
			if len(x.Args) > 0 {
				return exprKind(x.Args[0], s)
			}
		}
	case *sql.LikeExpr, *sql.InExpr, *sql.BetweenExpr, *sql.IsNullExpr:
		return types.KindBool
	case *sql.CaseExpr:
		if len(x.Whens) > 0 {
			return exprKind(x.Whens[0].Then, s)
		}
	}
	return types.KindString
}

// exprName picks a display name for a select item.
func exprName(item sql.SelectItem, idx int) string {
	if item.Alias != "" {
		return item.Alias
	}
	if c, ok := item.Expr.(*sql.ColumnRef); ok {
		return c.Name
	}
	if f, ok := item.Expr.(*sql.FuncCall); ok {
		return strings.ToLower(f.Name)
	}
	return fmt.Sprintf("col%d", idx+1)
}

// replaceExprs rewrites e, substituting any subexpression whose deparsed
// text equals a key of repl with the replacement expression. Used to map
// aggregate calls and group-by expressions to agg-output columns.
func replaceExprs(e sql.Expr, repl map[string]sql.Expr) sql.Expr {
	if e == nil {
		return nil
	}
	if r, ok := repl[sql.DeparseExpr(e)]; ok {
		return sql.CloneExpr(r)
	}
	switch x := e.(type) {
	case *sql.BinaryExpr:
		return &sql.BinaryExpr{Op: x.Op, L: replaceExprs(x.L, repl), R: replaceExprs(x.R, repl)}
	case *sql.UnaryExpr:
		return &sql.UnaryExpr{Op: x.Op, X: replaceExprs(x.X, repl)}
	case *sql.FuncCall:
		out := &sql.FuncCall{Name: x.Name, Star: x.Star, Distinct: x.Distinct}
		for _, a := range x.Args {
			out.Args = append(out.Args, replaceExprs(a, repl))
		}
		return out
	case *sql.LikeExpr:
		return &sql.LikeExpr{X: replaceExprs(x.X, repl), Pattern: replaceExprs(x.Pattern, repl), Not: x.Not}
	case *sql.InExpr:
		out := &sql.InExpr{X: replaceExprs(x.X, repl), Not: x.Not}
		for _, a := range x.List {
			out.List = append(out.List, replaceExprs(a, repl))
		}
		return out
	case *sql.BetweenExpr:
		return &sql.BetweenExpr{X: replaceExprs(x.X, repl), Lo: replaceExprs(x.Lo, repl), Hi: replaceExprs(x.Hi, repl), Not: x.Not}
	case *sql.IsNullExpr:
		return &sql.IsNullExpr{X: replaceExprs(x.X, repl), Not: x.Not}
	case *sql.CaseExpr:
		out := &sql.CaseExpr{Else: replaceExprs(x.Else, repl)}
		for _, w := range x.Whens {
			out.Whens = append(out.Whens, sql.CaseWhen{Cond: replaceExprs(w.Cond, repl), Then: replaceExprs(w.Then, repl)})
		}
		return out
	}
	return e
}

// containsAgg reports whether e contains an aggregate function call.
func containsAgg(e sql.Expr) bool {
	found := false
	sql.WalkExpr(e, func(x sql.Expr) bool {
		if f, ok := x.(*sql.FuncCall); ok {
			if _, isAgg := exec.ParseAggFunc(f.Name, f.Star); isAgg {
				found = true
			}
		}
		return !found
	})
	return found
}
