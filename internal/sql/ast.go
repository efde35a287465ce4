// Package sql implements the SQL dialect of the engine: lexer, parser,
// abstract syntax tree and a deparser that renders ASTs back to SQL text.
//
// The deparser matters architecturally: like the paper's prototype, remote
// subexpressions can only be shipped to the backend server as textual SQL
// (MTCache paper §5: "queries can only be shipped as textual SQL at this
// time"), so every plan fragment the optimizer marks Remote is deparsed and
// re-optimized on the backend.
package sql

import (
	"slices"
	"sync/atomic"

	"mtcache/internal/types"
)

// Statement is any parsed SQL statement.
type Statement interface{ stmtNode() }

// SelectStmt is a SELECT query.
type SelectStmt struct {
	Top      Expr // TOP n, nil if absent
	Distinct bool
	Columns  []SelectItem
	From     []TableRef // comma-separated or joined
	Where    Expr       // nil if absent
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem

	// Freshness is the optional WITH FRESHNESS <seconds> clause — the
	// paper's §7 proposal: "a query might include an optional clause
	// stating that a result up to 30 seconds old is acceptable". nil means
	// no declared bound (any replication staleness is acceptable, the
	// paper's default caching behaviour).
	Freshness Expr

	cacheKey deparsed // see CacheKey
}

// CacheKey returns the statement's plan-cache key — its deparsed SQL text —
// computing it at most once per statement. Repeated executions of a prepared
// statement then skip the deparse on the hot query path. Callers must not
// mutate the statement after the first CacheKey call; the planner already
// clones statements before rewriting them.
func (s *SelectStmt) CacheKey() string { return s.cacheKey.of(s) }

// deparsed memoizes a statement's Deparse: the first call renders it, every
// later one is a field read. Concurrent first calls each render the same text.
type deparsed struct{ p atomic.Pointer[string] }

func (d *deparsed) of(s Statement) string {
	if p := d.p.Load(); p != nil {
		return *p
	}
	t := Deparse(s)
	d.p.Store(&t)
	return t
}

// SelectItem is one output column of a SELECT.
type SelectItem struct {
	Star      bool   // SELECT * or t.*
	StarTable string // qualifier for t.*
	Expr      Expr
	Alias     string
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// TableRef is a FROM-clause item.
type TableRef interface{ tableRefNode() }

// TableName references a base table, view or cached view, optionally
// qualified with a linked server (Server.Database.Table in this dialect,
// mirroring SQL Server's four-part names).
type TableName struct {
	Server   string // linked server, "" for local
	Database string // "" for current database
	Name     string
	Alias    string
}

// FullName returns the catalog lookup key: "database.name" when a database
// qualifier is present (e.g. the sys schema of virtual system tables),
// otherwise the bare name. Case folding is the catalog's concern.
func (t *TableName) FullName() string {
	if t.Database != "" {
		return t.Database + "." + t.Name
	}
	return t.Name
}

// JoinType enumerates join flavors.
type JoinType uint8

const (
	JoinInner JoinType = iota
	JoinLeft
	JoinCross
)

func (j JoinType) String() string {
	switch j {
	case JoinInner:
		return "INNER JOIN"
	case JoinLeft:
		return "LEFT JOIN"
	case JoinCross:
		return "CROSS JOIN"
	}
	return "JOIN"
}

// JoinRef is an explicit JOIN ... ON ... clause.
type JoinRef struct {
	Type  JoinType
	Left  TableRef
	Right TableRef
	On    Expr // nil for CROSS JOIN
}

// SubqueryRef is a derived table: (SELECT ...) AS alias.
type SubqueryRef struct {
	Select *SelectStmt
	Alias  string
}

func (*TableName) tableRefNode()   {}
func (*JoinRef) tableRefNode()     {}
func (*SubqueryRef) tableRefNode() {}

// InsertStmt is INSERT INTO t (cols) VALUES (...),(...) | SELECT ...
type InsertStmt struct {
	Table   *TableName
	Columns []string
	Rows    [][]Expr
	Select  *SelectStmt

	cacheKey deparsed // see CacheKey
}

// Assignment is one SET col = expr clause of an UPDATE.
type Assignment struct {
	Column string
	Expr   Expr
}

// UpdateStmt is UPDATE t SET ... WHERE ...
type UpdateStmt struct {
	Table *TableName
	Set   []Assignment
	Where Expr

	cacheKey deparsed // see CacheKey
}

// DeleteStmt is DELETE FROM t WHERE ...
type DeleteStmt struct {
	Table *TableName
	Where Expr

	cacheKey deparsed // see CacheKey
}

// CacheKey returns an INSERT's plan-cache key, its deparse, computed at most
// once as SelectStmt.CacheKey is.
func (s *InsertStmt) CacheKey() string { return s.cacheKey.of(s) }

// CacheKey returns an UPDATE's plan-cache key, its deparse, computed at most
// once as SelectStmt.CacheKey is.
func (s *UpdateStmt) CacheKey() string { return s.cacheKey.of(s) }

// CacheKey returns a DELETE's plan-cache key, its deparse, computed at most
// once as SelectStmt.CacheKey is.
func (s *DeleteStmt) CacheKey() string { return s.cacheKey.of(s) }

// ColumnDef is one column of a CREATE TABLE.
type ColumnDef struct {
	Name       string
	Type       types.Kind
	NotNull    bool
	PrimaryKey bool
	Default    Expr // nil if absent
}

// CreateTableStmt is CREATE TABLE.
type CreateTableStmt struct {
	Name       string
	Columns    []ColumnDef
	PrimaryKey []string // composite PK, empty if inline on a column
}

// CreateIndexStmt is CREATE [UNIQUE] INDEX name ON table (cols).
type CreateIndexStmt struct {
	Name    string
	Table   string
	Columns []string
	Unique  bool
}

// CreateViewStmt is CREATE [CACHED | MATERIALIZED] VIEW name AS SELECT ...
//
// CACHED marks an MTCache cached view: creating one on a cache server
// automatically provisions a replication subscription and populates the view
// (paper §4). MATERIALIZED creates a locally maintained materialized view.
type CreateViewStmt struct {
	Name         string
	Cached       bool
	Materialized bool
	Select       *SelectStmt
}

// ProcParam is one parameter of a stored procedure.
type ProcParam struct {
	Name string // includes no @ prefix
	Type types.Kind
}

// CreateProcStmt is CREATE PROCEDURE name (@p TYPE, ...) AS BEGIN ... END.
// The body is a sequence of statements; the paper's stored procedures are
// the primary source of parameterized queries (§5.2).
type CreateProcStmt struct {
	Name   string
	Params []ProcParam
	Body   []Statement
}

// ExecStmt is EXEC proc @p1 = expr, ... or EXEC proc expr, ...
type ExecStmt struct {
	Proc string
	Args []ExecArg

	text deparsed // see Text
}

// Text returns the call's SQL text, deparsing it at most once per statement:
// what a cache forwards for a procedure it holds no copy of. The front door
// shares one statement per call shape, so a forwarded call costs a deparse
// per shape, not per call. Callers must not mutate the statement after the
// first Text call.
func (s *ExecStmt) Text() string { return s.text.of(s) }

// ExecArg is one argument of an EXEC call, optionally named.
type ExecArg struct {
	Name string // "" for positional
	Expr Expr
}

// DropStmt is DROP TABLE/VIEW/INDEX/PROCEDURE name.
type DropStmt struct {
	What string // "TABLE", "VIEW", "INDEX", "PROCEDURE"
	Name string
}

// ExplainStmt is EXPLAIN [ANALYZE] <statement>. Plain EXPLAIN renders the
// optimized plan; ANALYZE also executes it and reports per-operator rows and
// timings.
type ExplainStmt struct {
	Analyze bool
	Stmt    Statement
}

func (*SelectStmt) stmtNode()      {}
func (*InsertStmt) stmtNode()      {}
func (*UpdateStmt) stmtNode()      {}
func (*DeleteStmt) stmtNode()      {}
func (*CreateTableStmt) stmtNode() {}
func (*CreateIndexStmt) stmtNode() {}
func (*CreateViewStmt) stmtNode()  {}
func (*CreateProcStmt) stmtNode()  {}
func (*ExecStmt) stmtNode()        {}
func (*DropStmt) stmtNode()        {}
func (*ExplainStmt) stmtNode()     {}

// Expr is any scalar expression.
type Expr interface{ exprNode() }

// ColumnRef names a column, optionally table-qualified.
type ColumnRef struct {
	Table string
	Name  string
}

// Literal is a constant value.
type Literal struct {
	Val types.Value
}

// Param is a query parameter (@name). Parameter values are supplied at
// execution time; the optimizer produces dynamic plans whose active branch
// depends on them (paper §5.1).
type Param struct {
	Name string // without the @ prefix
}

// BinOp enumerates binary operators.
type BinOp uint8

const (
	OpEQ BinOp = iota
	OpNE
	OpLT
	OpLE
	OpGT
	OpGE
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpAnd
	OpOr
)

func (o BinOp) String() string {
	switch o {
	case OpEQ:
		return "="
	case OpNE:
		return "<>"
	case OpLT:
		return "<"
	case OpLE:
		return "<="
	case OpGT:
		return ">"
	case OpGE:
		return ">="
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpMod:
		return "%"
	case OpAnd:
		return "AND"
	case OpOr:
		return "OR"
	}
	return "?"
}

// IsComparison reports whether o is a comparison operator.
func (o BinOp) IsComparison() bool { return o <= OpGE }

// Negate returns the comparison with operands logically negated
// (e.g. < becomes >=). Only valid for comparisons other than handled by
// caller for EQ/NE pairs too.
func (o BinOp) Negate() BinOp {
	switch o {
	case OpEQ:
		return OpNE
	case OpNE:
		return OpEQ
	case OpLT:
		return OpGE
	case OpLE:
		return OpGT
	case OpGT:
		return OpLE
	case OpGE:
		return OpLT
	}
	return o
}

// Flip returns the comparison with operands swapped (e.g. a < b == b > a).
func (o BinOp) Flip() BinOp {
	switch o {
	case OpLT:
		return OpGT
	case OpLE:
		return OpGE
	case OpGT:
		return OpLT
	case OpGE:
		return OpLE
	}
	return o
}

// BinaryExpr applies a binary operator.
type BinaryExpr struct {
	Op   BinOp
	L, R Expr
}

// UnaryOp enumerates unary operators.
type UnaryOp uint8

const (
	OpNot UnaryOp = iota
	OpNeg
)

// UnaryExpr applies NOT or unary minus.
type UnaryExpr struct {
	Op UnaryOp
	X  Expr
}

// FuncCall is an aggregate or scalar function call.
type FuncCall struct {
	Name     string // upper-cased at parse time
	Star     bool   // COUNT(*)
	Distinct bool
	Args     []Expr
}

// LikeExpr is x [NOT] LIKE pattern.
type LikeExpr struct {
	X       Expr
	Pattern Expr
	Not     bool
}

// InExpr is x [NOT] IN (e1, e2, ...).
type InExpr struct {
	X    Expr
	List []Expr
	Not  bool
}

// BetweenExpr is x [NOT] BETWEEN lo AND hi.
type BetweenExpr struct {
	X, Lo, Hi Expr
	Not       bool
}

// IsNullExpr is x IS [NOT] NULL.
type IsNullExpr struct {
	X   Expr
	Not bool
}

// CaseExpr is CASE WHEN cond THEN val ... [ELSE val] END.
type CaseExpr struct {
	Whens []CaseWhen
	Else  Expr
}

// CaseWhen is one WHEN arm of a CASE expression.
type CaseWhen struct {
	Cond Expr
	Then Expr
}

func (*ColumnRef) exprNode()   {}
func (*Literal) exprNode()     {}
func (*Param) exprNode()       {}
func (*BinaryExpr) exprNode()  {}
func (*UnaryExpr) exprNode()   {}
func (*FuncCall) exprNode()    {}
func (*LikeExpr) exprNode()    {}
func (*InExpr) exprNode()      {}
func (*BetweenExpr) exprNode() {}
func (*IsNullExpr) exprNode()  {}
func (*CaseExpr) exprNode()    {}

// WalkExpr invokes fn on e and every subexpression, pre-order. fn returning
// false prunes descent into that subtree.
func WalkExpr(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch x := e.(type) {
	case *BinaryExpr:
		WalkExpr(x.L, fn)
		WalkExpr(x.R, fn)
	case *UnaryExpr:
		WalkExpr(x.X, fn)
	case *FuncCall:
		for _, a := range x.Args {
			WalkExpr(a, fn)
		}
	case *LikeExpr:
		WalkExpr(x.X, fn)
		WalkExpr(x.Pattern, fn)
	case *InExpr:
		WalkExpr(x.X, fn)
		for _, a := range x.List {
			WalkExpr(a, fn)
		}
	case *BetweenExpr:
		WalkExpr(x.X, fn)
		WalkExpr(x.Lo, fn)
		WalkExpr(x.Hi, fn)
	case *IsNullExpr:
		WalkExpr(x.X, fn)
	case *CaseExpr:
		for _, w := range x.Whens {
			WalkExpr(w.Cond, fn)
			WalkExpr(w.Then, fn)
		}
		WalkExpr(x.Else, fn)
	}
}

// AppendParamNames appends to names each parameter e reads that names does
// not hold yet, in the order they first appear.
func AppendParamNames(names []string, e Expr) []string {
	WalkExpr(e, func(x Expr) bool {
		if p, ok := x.(*Param); ok && !slices.Contains(names, p.Name) {
			names = append(names, p.Name)
		}
		return true
	})
	return names
}

// ParamNames appends to names each parameter s reads that names does not
// hold yet — in its derived tables too, but not in its WITH FRESHNESS
// bound, which is no part of its result.
func (s *SelectStmt) ParamNames(names []string) []string {
	exprs := append([]Expr{s.Top, s.Where, s.Having}, s.GroupBy...)
	for _, c := range s.Columns {
		exprs = append(exprs, c.Expr)
	}
	for _, o := range s.OrderBy {
		exprs = append(exprs, o.Expr)
	}
	for from := slices.Clone(s.From); len(from) > 0; from = from[1:] {
		switch r := from[0].(type) {
		case *JoinRef:
			exprs, from = append(exprs, r.On), append(from, r.Left, r.Right)
		case *SubqueryRef:
			names = r.Select.ParamNames(names)
		}
	}
	for _, e := range exprs {
		names = AppendParamNames(names, e)
	}
	return names
}

// CloneExpr returns a deep copy of e.
func CloneExpr(e Expr) Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case *ColumnRef:
		c := *x
		return &c
	case *Literal:
		c := *x
		return &c
	case *Param:
		c := *x
		return &c
	case *BinaryExpr:
		return &BinaryExpr{Op: x.Op, L: CloneExpr(x.L), R: CloneExpr(x.R)}
	case *UnaryExpr:
		return &UnaryExpr{Op: x.Op, X: CloneExpr(x.X)}
	case *FuncCall:
		c := &FuncCall{Name: x.Name, Star: x.Star, Distinct: x.Distinct}
		for _, a := range x.Args {
			c.Args = append(c.Args, CloneExpr(a))
		}
		return c
	case *LikeExpr:
		return &LikeExpr{X: CloneExpr(x.X), Pattern: CloneExpr(x.Pattern), Not: x.Not}
	case *InExpr:
		c := &InExpr{X: CloneExpr(x.X), Not: x.Not}
		for _, a := range x.List {
			c.List = append(c.List, CloneExpr(a))
		}
		return c
	case *BetweenExpr:
		return &BetweenExpr{X: CloneExpr(x.X), Lo: CloneExpr(x.Lo), Hi: CloneExpr(x.Hi), Not: x.Not}
	case *IsNullExpr:
		return &IsNullExpr{X: CloneExpr(x.X), Not: x.Not}
	case *CaseExpr:
		c := &CaseExpr{Else: CloneExpr(x.Else)}
		for _, w := range x.Whens {
			c.Whens = append(c.Whens, CaseWhen{Cond: CloneExpr(w.Cond), Then: CloneExpr(w.Then)})
		}
		return c
	}
	return e
}
