// Package exec implements the Volcano-style iterator executor. Plans are
// trees of Operators; expressions are compiled from the SQL AST into a
// compact evaluable form with column references resolved to ordinals.
//
// Two operators here are the paper's additions to the executor:
//
//   - StartupFilter: a Select whose predicate references only parameters and
//     is evaluated once at Open; if false, the input is never opened. A
//     UnionAll over two StartupFilters with complementary guards is exactly
//     the paper's ChoosePlan implementation (§5.1, figure 2b).
//   - Remote: the DataTransfer operator. It ships a deparsed SQL text to the
//     backend through a RemoteClient and streams the result rows back.
package exec

import (
	"fmt"
	"strings"

	"mtcache/internal/sql"
	"mtcache/internal/types"
)

// Params carries the run-time parameter values of a query by name.
type Params map[string]types.Value

// Env is the per-execution expression environment. Named holds parameters by
// name (the compatibility path); Slots/Bound hold the same values densely
// indexed by the slot numbers AssignParamSlots burned into the plan's
// ParamExpr nodes, so the hot path never touches a map. A nil *Env is legal
// and means "no parameters supplied".
type Env struct {
	Named Params
	Slots []types.Value
	Bound []bool
}

// lookup resolves a parameter by slot (fast path) or name.
func (e *Env) lookup(slot int, name string) (types.Value, bool) {
	if e == nil {
		return types.Null, false
	}
	if slot > 0 && slot <= len(e.Slots) && e.Bound[slot-1] {
		return e.Slots[slot-1], true
	}
	v, ok := e.Named[name]
	return v, ok
}

// Expr is a compiled scalar expression.
type Expr interface {
	Eval(row types.Row, env *Env) (types.Value, error)
}

// ColExpr reads column i of the input row.
type ColExpr struct{ I int }

// ConstExpr is a literal.
type ConstExpr struct{ V types.Value }

// ParamExpr reads a named parameter. slot is assigned by AssignParamSlots
// once per plan; it is 1-based so that the zero value (a ParamExpr built by
// hand or by CompileScalar outside a plan) still resolves by name.
type ParamExpr struct {
	Name string
	slot int
}

// BinExpr applies a binary operator with SQL NULL semantics.
type BinExpr struct {
	Op   sql.BinOp
	L, R Expr
}

// NotExpr negates a boolean (three-valued).
type NotExpr struct{ X Expr }

// NegExpr is unary minus.
type NegExpr struct{ X Expr }

// LikeMatch is x LIKE pattern (compiled; pattern may be dynamic).
type LikeMatch struct {
	X, Pattern Expr
	Not        bool
}

// inMatchSetThreshold is the list length from which NewInMatch builds a
// constant hash set instead of leaving the probe to a linear scan.
const inMatchSetThreshold = 8

// InMatch is x IN (list). When every list element is a constant and the list
// is long enough, set holds the values hashed once at compile time and Eval
// probes it instead of re-evaluating the list per row; setNull records
// whether the list contained NULL (needed for three-valued IN semantics).
type InMatch struct {
	X       Expr
	List    []Expr
	Not     bool
	set     map[uint64][]types.Value
	setNull bool
}

// NewInMatch compiles x IN (list), building the constant hash set when the
// list is all-constant and at least inMatchSetThreshold long.
func NewInMatch(x Expr, list []Expr, not bool) *InMatch {
	m := &InMatch{X: x, List: list, Not: not}
	if len(list) < inMatchSetThreshold {
		return m
	}
	set := make(map[uint64][]types.Value, len(list))
	sawNull := false
	for _, le := range list {
		c, ok := le.(*ConstExpr)
		if !ok {
			return m
		}
		if c.V.IsNull() {
			sawNull = true
			continue
		}
		h := c.V.Hash()
		dup := false
		for _, v := range set[h] {
			if types.Equal(v, c.V) {
				dup = true
				break
			}
		}
		if !dup {
			set[h] = append(set[h], c.V)
		}
	}
	m.set, m.setNull = set, sawNull
	return m
}

// BetweenMatch is x BETWEEN lo AND hi.
type BetweenMatch struct {
	X, Lo, Hi Expr
	Not       bool
}

// IsNullMatch is x IS [NOT] NULL.
type IsNullMatch struct {
	X   Expr
	Not bool
}

// CaseMatch is CASE WHEN ... THEN ... ELSE ... END.
type CaseMatch struct {
	Whens []struct{ Cond, Then Expr }
	Else  Expr
}

// ScalarFunc is a non-aggregate function call.
type ScalarFunc struct {
	Name string
	Args []Expr
}

func (e *ColExpr) Eval(row types.Row, _ *Env) (types.Value, error) {
	if e.I < 0 || e.I >= len(row) {
		return types.Null, fmt.Errorf("exec: column ordinal %d out of range (row width %d)", e.I, len(row))
	}
	return row[e.I], nil
}

func (e *ConstExpr) Eval(types.Row, *Env) (types.Value, error) { return e.V, nil }

func (e *ParamExpr) Eval(_ types.Row, env *Env) (types.Value, error) {
	v, ok := env.lookup(e.slot, e.Name)
	if !ok {
		return types.Null, fmt.Errorf("exec: missing parameter @%s", e.Name)
	}
	return v, nil
}

func (e *BinExpr) Eval(row types.Row, env *Env) (types.Value, error) {
	// AND/OR need Kleene logic and short-circuiting.
	if e.Op == sql.OpAnd || e.Op == sql.OpOr {
		return e.evalLogic(row, env)
	}
	l, err := e.L.Eval(row, env)
	if err != nil {
		return types.Null, err
	}
	r, err := e.R.Eval(row, env)
	if err != nil {
		return types.Null, err
	}
	if l.IsNull() || r.IsNull() {
		return types.Null, nil
	}
	if e.Op.IsComparison() {
		// Same-kind fast paths avoid the generic Compare dispatch on the
		// two dominant column types.
		if l.K == r.K {
			switch l.K {
			case types.KindInt:
				return types.NewBool(cmpHolds(e.Op, cmpInt(l.Int(), r.Int()))), nil
			case types.KindString:
				return types.NewBool(cmpHolds(e.Op, strings.Compare(l.S, r.S))), nil
			}
		}
		return types.NewBool(cmpHolds(e.Op, types.Compare(l, r))), nil
	}
	return evalArith(e.Op, l, r)
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpHolds(op sql.BinOp, c int) bool {
	switch op {
	case sql.OpEQ:
		return c == 0
	case sql.OpNE:
		return c != 0
	case sql.OpLT:
		return c < 0
	case sql.OpLE:
		return c <= 0
	case sql.OpGT:
		return c > 0
	case sql.OpGE:
		return c >= 0
	}
	return false
}

func (e *BinExpr) evalLogic(row types.Row, env *Env) (types.Value, error) {
	l, err := e.L.Eval(row, env)
	if err != nil {
		return types.Null, err
	}
	if e.Op == sql.OpAnd {
		if !l.IsNull() && !l.Bool() {
			return types.NewBool(false), nil
		}
	} else {
		if !l.IsNull() && l.Bool() {
			return types.NewBool(true), nil
		}
	}
	r, err := e.R.Eval(row, env)
	if err != nil {
		return types.Null, err
	}
	if e.Op == sql.OpAnd {
		switch {
		case !r.IsNull() && !r.Bool():
			return types.NewBool(false), nil
		case l.IsNull() || r.IsNull():
			return types.Null, nil
		default:
			return types.NewBool(true), nil
		}
	}
	switch {
	case !r.IsNull() && r.Bool():
		return types.NewBool(true), nil
	case l.IsNull() || r.IsNull():
		return types.Null, nil
	default:
		return types.NewBool(false), nil
	}
}

func evalArith(op sql.BinOp, l, r types.Value) (types.Value, error) {
	// String concatenation with +.
	if op == sql.OpAdd && l.K == types.KindString && r.K == types.KindString {
		return types.NewString(l.S + r.S), nil
	}
	bothInt := l.K == types.KindInt && r.K == types.KindInt
	if bothInt {
		a, b := l.Int(), r.Int()
		switch op {
		case sql.OpAdd:
			return types.NewInt(a + b), nil
		case sql.OpSub:
			return types.NewInt(a - b), nil
		case sql.OpMul:
			return types.NewInt(a * b), nil
		case sql.OpDiv:
			if b == 0 {
				return types.Null, fmt.Errorf("exec: division by zero")
			}
			return types.NewInt(a / b), nil
		case sql.OpMod:
			if b == 0 {
				return types.Null, fmt.Errorf("exec: division by zero")
			}
			return types.NewInt(a % b), nil
		}
	}
	a, b := l.Float(), r.Float()
	switch op {
	case sql.OpAdd:
		return types.NewFloat(a + b), nil
	case sql.OpSub:
		return types.NewFloat(a - b), nil
	case sql.OpMul:
		return types.NewFloat(a * b), nil
	case sql.OpDiv:
		if b == 0 {
			return types.Null, fmt.Errorf("exec: division by zero")
		}
		return types.NewFloat(a / b), nil
	case sql.OpMod:
		if b == 0 {
			return types.Null, fmt.Errorf("exec: division by zero")
		}
		return types.NewFloat(float64(int64(a) % int64(b))), nil
	}
	return types.Null, fmt.Errorf("exec: unsupported arithmetic on %s", op)
}

func (e *NotExpr) Eval(row types.Row, env *Env) (types.Value, error) {
	v, err := e.X.Eval(row, env)
	if err != nil || v.IsNull() {
		return types.Null, err
	}
	return types.NewBool(!v.Bool()), nil
}

func (e *NegExpr) Eval(row types.Row, env *Env) (types.Value, error) {
	v, err := e.X.Eval(row, env)
	if err != nil || v.IsNull() {
		return types.Null, err
	}
	switch v.K {
	case types.KindInt:
		return types.NewInt(-v.Int()), nil
	case types.KindFloat:
		return types.NewFloat(-v.Float()), nil
	}
	return types.Null, fmt.Errorf("exec: cannot negate %s", v.K)
}

func (e *LikeMatch) Eval(row types.Row, env *Env) (types.Value, error) {
	x, err := e.X.Eval(row, env)
	if err != nil {
		return types.Null, err
	}
	pat, err := e.Pattern.Eval(row, env)
	if err != nil {
		return types.Null, err
	}
	if x.IsNull() || pat.IsNull() {
		return types.Null, nil
	}
	m := likeMatch(x.Display(), pat.Display())
	if e.Not {
		m = !m
	}
	return types.NewBool(m), nil
}

// likeMatch implements SQL LIKE with % and _ wildcards, case-insensitively
// (matching SQL Server's default collation behaviour). ASCII case is folded
// inside the byte comparison, so the common case allocates nothing; only when
// either side has a non-ASCII byte are both lower-cased first (lower-casing
// can change such a string's length, so no byte-wise fold can stand in).
func likeMatch(s, pattern string) bool {
	if !isASCII(s) || !isASCII(pattern) {
		s, pattern = strings.ToLower(s), strings.ToLower(pattern)
	}
	return likeFold(s, pattern)
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}

func lowerASCII(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + ('a' - 'A')
	}
	return c
}

// likeFold matches s against p iteratively: on a mismatch it backtracks to
// the last % and lets it swallow one more byte, which is O(len(s)·len(p))
// where recursing once per % per position was exponential.
func likeFold(s, p string) bool {
	si, pi := 0, 0
	star, resume := -1, 0 // p index after the last %, s index its match is tried from
	for si < len(s) {
		switch {
		case pi < len(p) && p[pi] == '%':
			pi++
			star, resume = pi, si
		case pi < len(p) && (p[pi] == '_' || lowerASCII(p[pi]) == lowerASCII(s[si])):
			si, pi = si+1, pi+1
		case star >= 0:
			resume++
			si, pi = resume, star
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}

func (e *InMatch) Eval(row types.Row, env *Env) (types.Value, error) {
	x, err := e.X.Eval(row, env)
	if err != nil {
		return types.Null, err
	}
	if x.IsNull() {
		return types.Null, nil
	}
	if e.set != nil {
		for _, v := range e.set[x.Hash()] {
			if types.Equal(x, v) {
				return types.NewBool(!e.Not), nil
			}
		}
		if e.setNull {
			return types.Null, nil
		}
		return types.NewBool(e.Not), nil
	}
	sawNull := false
	for _, le := range e.List {
		v, err := le.Eval(row, env)
		if err != nil {
			return types.Null, err
		}
		if v.IsNull() {
			sawNull = true
			continue
		}
		if types.Equal(x, v) {
			return types.NewBool(!e.Not), nil
		}
	}
	if sawNull {
		return types.Null, nil
	}
	return types.NewBool(e.Not), nil
}

func (e *BetweenMatch) Eval(row types.Row, env *Env) (types.Value, error) {
	x, err := e.X.Eval(row, env)
	if err != nil {
		return types.Null, err
	}
	lo, err := e.Lo.Eval(row, env)
	if err != nil {
		return types.Null, err
	}
	hi, err := e.Hi.Eval(row, env)
	if err != nil {
		return types.Null, err
	}
	if x.IsNull() || lo.IsNull() || hi.IsNull() {
		return types.Null, nil
	}
	in := types.Compare(x, lo) >= 0 && types.Compare(x, hi) <= 0
	if e.Not {
		in = !in
	}
	return types.NewBool(in), nil
}

func (e *IsNullMatch) Eval(row types.Row, env *Env) (types.Value, error) {
	v, err := e.X.Eval(row, env)
	if err != nil {
		return types.Null, err
	}
	isNull := v.IsNull()
	if e.Not {
		isNull = !isNull
	}
	return types.NewBool(isNull), nil
}

func (e *CaseMatch) Eval(row types.Row, env *Env) (types.Value, error) {
	for _, w := range e.Whens {
		c, err := w.Cond.Eval(row, env)
		if err != nil {
			return types.Null, err
		}
		if !c.IsNull() && c.Bool() {
			return w.Then.Eval(row, env)
		}
	}
	if e.Else != nil {
		return e.Else.Eval(row, env)
	}
	return types.Null, nil
}

func (e *ScalarFunc) Eval(row types.Row, env *Env) (types.Value, error) {
	// Small fixed-size argument buffer keeps common calls allocation-free.
	var argbuf [4]types.Value
	var args []types.Value
	if len(e.Args) <= len(argbuf) {
		args = argbuf[:len(e.Args)]
	} else {
		args = make([]types.Value, len(e.Args))
	}
	for i, a := range e.Args {
		v, err := a.Eval(row, env)
		if err != nil {
			return types.Null, err
		}
		args[i] = v
	}
	switch e.Name {
	case "UPPER":
		if args[0].IsNull() {
			return types.Null, nil
		}
		return types.NewString(strings.ToUpper(args[0].Display())), nil
	case "LOWER":
		if args[0].IsNull() {
			return types.Null, nil
		}
		return types.NewString(strings.ToLower(args[0].Display())), nil
	case "LEN", "LENGTH":
		if args[0].IsNull() {
			return types.Null, nil
		}
		return types.NewInt(int64(len(args[0].Display()))), nil
	case "ABS":
		if args[0].IsNull() {
			return types.Null, nil
		}
		if args[0].K == types.KindInt {
			if args[0].Int() < 0 {
				return types.NewInt(-args[0].Int()), nil
			}
			return args[0], nil
		}
		f := args[0].Float()
		if f < 0 {
			f = -f
		}
		return types.NewFloat(f), nil
	case "SUBSTRING":
		if len(args) != 3 || args[0].IsNull() {
			return types.Null, nil
		}
		s := args[0].Display()
		start := int(args[1].Int()) - 1 // SQL is 1-based
		n := int(args[2].Int())
		if start < 0 {
			start = 0
		}
		if start > len(s) {
			start = len(s)
		}
		end := start + n
		if end > len(s) {
			end = len(s)
		}
		return types.NewString(s[start:end]), nil
	case "COALESCE":
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return types.Null, nil
	}
	return types.Null, fmt.Errorf("exec: unknown function %s", e.Name)
}

// EvalBool evaluates a predicate; NULL counts as false (SQL filter
// semantics).
func EvalBool(e Expr, row types.Row, env *Env) (bool, error) {
	if e == nil {
		return true, nil
	}
	v, err := e.Eval(row, env)
	if err != nil {
		return false, err
	}
	return !v.IsNull() && v.Bool(), nil
}
