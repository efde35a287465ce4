package sql

import (
	"fmt"
	"sort"
	"strings"

	"mtcache/internal/types"
)

// Deparse renders a statement back to SQL text. The output re-parses to an
// equivalent AST; this is the mechanism by which remote plan fragments are
// shipped to the backend server (paper §5: remote subexpressions travel as
// textual SQL and are re-optimized there).
func Deparse(s Statement) string {
	var b strings.Builder
	printStmt(&b, s)
	return b.String()
}

// DeparseCall renders a procedure call with named arguments as EXEC text —
// the form in which a call travels to whichever server holds the procedure.
// Arguments are ordered by name, so one call is one text: the same trace
// attribute, the same parse input, the same log line every time.
func DeparseCall(proc string, params map[string]types.Value) string {
	names := make([]string, 0, len(params))
	for name := range params {
		names = append(names, name)
	}
	sort.Strings(names)
	call := &ExecStmt{Proc: proc, Args: make([]ExecArg, len(names))}
	for i, name := range names {
		call.Args[i] = ExecArg{Name: name, Expr: &Literal{Val: params[name]}}
	}
	return Deparse(call)
}

// DeparseExpr renders an expression to SQL text.
func DeparseExpr(e Expr) string {
	var b strings.Builder
	printExpr(&b, e)
	return b.String()
}

func printStmt(b *strings.Builder, s Statement) {
	switch x := s.(type) {
	case *SelectStmt:
		printSelect(b, x)
	case *InsertStmt:
		printInsert(b, x)
	case *UpdateStmt:
		printUpdate(b, x)
	case *DeleteStmt:
		printDelete(b, x)
	case *CreateTableStmt:
		printCreateTable(b, x)
	case *CreateIndexStmt:
		if x.Unique {
			fmt.Fprintf(b, "CREATE UNIQUE INDEX %s ON %s (%s)", x.Name, x.Table, strings.Join(x.Columns, ", "))
		} else {
			fmt.Fprintf(b, "CREATE INDEX %s ON %s (%s)", x.Name, x.Table, strings.Join(x.Columns, ", "))
		}
	case *CreateViewStmt:
		kw := "VIEW"
		if x.Cached {
			kw = "CACHED VIEW"
		} else if x.Materialized {
			kw = "MATERIALIZED VIEW"
		}
		fmt.Fprintf(b, "CREATE %s %s AS ", kw, x.Name)
		printSelect(b, x.Select)
	case *CreateProcStmt:
		fmt.Fprintf(b, "CREATE PROCEDURE %s", x.Name)
		for i, p := range x.Params {
			if i > 0 {
				b.WriteString(",")
			}
			fmt.Fprintf(b, " @%s %s", p.Name, p.Type)
		}
		b.WriteString(" AS BEGIN ")
		for _, st := range x.Body {
			printStmt(b, st)
			b.WriteString("; ")
		}
		b.WriteString("END")
	case *ExecStmt:
		fmt.Fprintf(b, "EXEC %s", x.Proc)
		for i, a := range x.Args {
			if i > 0 {
				b.WriteString(",")
			}
			b.WriteString(" ")
			if a.Name != "" {
				fmt.Fprintf(b, "@%s = ", a.Name)
			}
			printExpr(b, a.Expr)
		}
	case *DropStmt:
		fmt.Fprintf(b, "DROP %s %s", x.What, x.Name)
	case *ExplainStmt:
		b.WriteString("EXPLAIN ")
		if x.Analyze {
			b.WriteString("ANALYZE ")
		}
		printStmt(b, x.Stmt)
	default:
		fmt.Fprintf(b, "/* unknown statement %T */", s)
	}
}

func printSelect(b *strings.Builder, s *SelectStmt) {
	b.WriteString("SELECT ")
	if s.Top != nil {
		b.WriteString("TOP ")
		printExpr(b, s.Top)
		b.WriteString(" ")
	}
	if s.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, c := range s.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		switch {
		case c.Star && c.StarTable != "":
			fmt.Fprintf(b, "%s.*", c.StarTable)
		case c.Star:
			b.WriteString("*")
		default:
			printExpr(b, c.Expr)
			if c.Alias != "" {
				fmt.Fprintf(b, " AS %s", c.Alias)
			}
		}
	}
	if len(s.From) > 0 {
		b.WriteString(" FROM ")
		for i, t := range s.From {
			if i > 0 {
				b.WriteString(", ")
			}
			printTableRef(b, t)
		}
	}
	if s.Where != nil {
		b.WriteString(" WHERE ")
		printExpr(b, s.Where)
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, e := range s.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			printExpr(b, e)
		}
	}
	if s.Having != nil {
		b.WriteString(" HAVING ")
		printExpr(b, s.Having)
	}
	if len(s.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			printExpr(b, o.Expr)
			if o.Desc {
				b.WriteString(" DESC")
			}
		}
	}
	if s.Freshness != nil {
		b.WriteString(" WITH FRESHNESS ")
		printExpr(b, s.Freshness)
	}
}

func printTableRef(b *strings.Builder, t TableRef) {
	switch x := t.(type) {
	case *TableName:
		if x.Server != "" {
			fmt.Fprintf(b, "%s.", x.Server)
		}
		if x.Database != "" {
			fmt.Fprintf(b, "%s.", x.Database)
		}
		b.WriteString(x.Name)
		if x.Alias != "" {
			fmt.Fprintf(b, " AS %s", x.Alias)
		}
	case *JoinRef:
		printTableRef(b, x.Left)
		fmt.Fprintf(b, " %s ", x.Type)
		printTableRef(b, x.Right)
		if x.On != nil {
			b.WriteString(" ON ")
			printExpr(b, x.On)
		}
	case *SubqueryRef:
		b.WriteString("(")
		printSelect(b, x.Select)
		fmt.Fprintf(b, ") AS %s", x.Alias)
	}
}

func printInsert(b *strings.Builder, x *InsertStmt) {
	b.WriteString("INSERT INTO ")
	printTableRef(b, x.Table)
	if len(x.Columns) > 0 {
		fmt.Fprintf(b, " (%s)", strings.Join(x.Columns, ", "))
	}
	if x.Select != nil {
		b.WriteString(" ")
		printSelect(b, x.Select)
		return
	}
	b.WriteString(" VALUES ")
	for i, row := range x.Rows {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString("(")
		for j, e := range row {
			if j > 0 {
				b.WriteString(", ")
			}
			printExpr(b, e)
		}
		b.WriteString(")")
	}
}

func printUpdate(b *strings.Builder, x *UpdateStmt) {
	b.WriteString("UPDATE ")
	printTableRef(b, x.Table)
	b.WriteString(" SET ")
	for i, a := range x.Set {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(b, "%s = ", a.Column)
		printExpr(b, a.Expr)
	}
	if x.Where != nil {
		b.WriteString(" WHERE ")
		printExpr(b, x.Where)
	}
}

func printDelete(b *strings.Builder, x *DeleteStmt) {
	b.WriteString("DELETE FROM ")
	printTableRef(b, x.Table)
	if x.Where != nil {
		b.WriteString(" WHERE ")
		printExpr(b, x.Where)
	}
}

func printCreateTable(b *strings.Builder, x *CreateTableStmt) {
	fmt.Fprintf(b, "CREATE TABLE %s (", x.Name)
	for i, c := range x.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(b, "%s %s", c.Name, c.Type)
		if c.PrimaryKey {
			b.WriteString(" PRIMARY KEY")
		} else if c.NotNull {
			b.WriteString(" NOT NULL")
		}
		if c.Default != nil {
			b.WriteString(" DEFAULT ")
			printExpr(b, c.Default)
		}
	}
	if len(x.PrimaryKey) > 0 {
		fmt.Fprintf(b, ", PRIMARY KEY (%s)", strings.Join(x.PrimaryKey, ", "))
	}
	b.WriteString(")")
}

func printExpr(b *strings.Builder, e Expr) {
	switch x := e.(type) {
	case nil:
		b.WriteString("NULL")
	case *ColumnRef:
		if x.Table != "" {
			fmt.Fprintf(b, "%s.", x.Table)
		}
		b.WriteString(x.Name)
	case *Literal:
		b.WriteString(x.Val.String())
	case *Param:
		fmt.Fprintf(b, "@%s", x.Name)
	case *BinaryExpr:
		b.WriteString("(")
		printExpr(b, x.L)
		fmt.Fprintf(b, " %s ", x.Op)
		printExpr(b, x.R)
		b.WriteString(")")
	case *UnaryExpr:
		switch x.Op {
		case OpNot:
			b.WriteString("(NOT ")
			printExpr(b, x.X)
			b.WriteString(")")
		case OpNeg:
			b.WriteString("(-")
			printExpr(b, x.X)
			b.WriteString(")")
		}
	case *FuncCall:
		fmt.Fprintf(b, "%s(", x.Name)
		if x.Star {
			b.WriteString("*")
		}
		if x.Distinct {
			b.WriteString("DISTINCT ")
		}
		for i, a := range x.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			printExpr(b, a)
		}
		b.WriteString(")")
	case *LikeExpr:
		b.WriteString("(")
		printExpr(b, x.X)
		if x.Not {
			b.WriteString(" NOT")
		}
		b.WriteString(" LIKE ")
		printExpr(b, x.Pattern)
		b.WriteString(")")
	case *InExpr:
		b.WriteString("(")
		printExpr(b, x.X)
		if x.Not {
			b.WriteString(" NOT")
		}
		b.WriteString(" IN (")
		for i, a := range x.List {
			if i > 0 {
				b.WriteString(", ")
			}
			printExpr(b, a)
		}
		b.WriteString("))")
	case *BetweenExpr:
		b.WriteString("(")
		printExpr(b, x.X)
		if x.Not {
			b.WriteString(" NOT")
		}
		b.WriteString(" BETWEEN ")
		printExpr(b, x.Lo)
		b.WriteString(" AND ")
		printExpr(b, x.Hi)
		b.WriteString(")")
	case *IsNullExpr:
		b.WriteString("(")
		printExpr(b, x.X)
		if x.Not {
			b.WriteString(" IS NOT NULL)")
		} else {
			b.WriteString(" IS NULL)")
		}
	case *CaseExpr:
		b.WriteString("CASE")
		for _, w := range x.Whens {
			b.WriteString(" WHEN ")
			printExpr(b, w.Cond)
			b.WriteString(" THEN ")
			printExpr(b, w.Then)
		}
		if x.Else != nil {
			b.WriteString(" ELSE ")
			printExpr(b, x.Else)
		}
		b.WriteString(" END")
	default:
		fmt.Fprintf(b, "/* unknown expr %T */", e)
	}
}
