package sql

import (
	"fmt"
	"strconv"
	"strings"

	"mtcache/internal/types"
)

// parser is a recursive-descent parser over the token slice.
type parser struct {
	toks []token
	i    int
	src  string
}

// Parse parses a single SQL statement.
func Parse(src string) (Statement, error) {
	stmts, err := ParseScript(src)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("parse: expected exactly one statement, got %d", len(stmts))
	}
	return stmts[0], nil
}

// ParseScript parses a sequence of semicolon-separated statements.
func ParseScript(src string) ([]Statement, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: src}
	var stmts []Statement
	for {
		for p.acceptOp(";") {
		}
		if p.peek().kind == tokEOF {
			break
		}
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
	}
	if len(stmts) == 0 {
		return nil, fmt.Errorf("parse: empty input")
	}
	return stmts, nil
}

// ParseExpr parses a standalone scalar expression (used when predicates
// travel as text, e.g. replication article filters over the wire).
func ParseExpr(src string) (Expr, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: src}
	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tokEOF {
		return nil, p.errf("trailing input after expression")
	}
	return e, nil
}

// MustParse parses or panics; for tests and compiled-in statements.
func MustParse(src string) Statement {
	s, err := Parse(src)
	if err != nil {
		panic(fmt.Sprintf("MustParse(%q): %v", src, err))
	}
	return s
}

// MustParseSelect parses a SELECT or panics.
func MustParseSelect(src string) *SelectStmt {
	s := MustParse(src)
	sel, ok := s.(*SelectStmt)
	if !ok {
		panic(fmt.Sprintf("MustParseSelect(%q): not a SELECT", src))
	}
	return sel
}

func (p *parser) peek() token  { return p.toks[p.i] }
func (p *parser) peek2() token { return p.toks[min(p.i+1, len(p.toks)-1)] }

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func (p *parser) advance() token {
	t := p.toks[p.i]
	if p.i < len(p.toks)-1 {
		p.i++
	}
	return t
}

func (p *parser) errf(format string, args ...any) error {
	t := p.peek()
	ctx := p.src
	if t.pos < len(ctx) {
		end := t.pos + 30
		if end > len(ctx) {
			end = len(ctx)
		}
		ctx = ctx[t.pos:end]
	}
	return fmt.Errorf("parse: %s (near %q)", fmt.Sprintf(format, args...), ctx)
}

func (p *parser) acceptKw(kw string) bool {
	if t := p.peek(); t.kind == tokKeyword && t.text == kw {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectKw(kw string) error {
	if !p.acceptKw(kw) {
		return p.errf("expected %s", kw)
	}
	return nil
}

func (p *parser) acceptOp(op string) bool {
	if t := p.peek(); t.kind == tokOp && t.text == op {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectOp(op string) error {
	if !p.acceptOp(op) {
		return p.errf("expected %q", op)
	}
	return nil
}

// identLike accepts identifiers and non-reserved keyword usage of names.
func (p *parser) identLike() (string, error) {
	t := p.peek()
	if t.kind == tokIdent {
		p.advance()
		return t.text, nil
	}
	return "", p.errf("expected identifier")
}

func (p *parser) statement() (Statement, error) {
	t := p.peek()
	if t.kind != tokKeyword {
		return nil, p.errf("expected statement keyword")
	}
	switch t.text {
	case "SELECT":
		return p.selectStmt()
	case "INSERT":
		return p.insertStmt()
	case "UPDATE":
		return p.updateStmt()
	case "DELETE":
		return p.deleteStmt()
	case "CREATE":
		return p.createStmt()
	case "DROP":
		return p.dropStmt()
	case "EXEC", "EXECUTE":
		return p.execStmt()
	case "EXPLAIN":
		return p.explainStmt()
	}
	return nil, p.errf("unsupported statement %s", t.text)
}

func (p *parser) explainStmt() (*ExplainStmt, error) {
	if err := p.expectKw("EXPLAIN"); err != nil {
		return nil, err
	}
	e := &ExplainStmt{}
	if p.acceptKw("ANALYZE") {
		e.Analyze = true
	}
	inner, err := p.statement()
	if err != nil {
		return nil, err
	}
	if _, nested := inner.(*ExplainStmt); nested {
		return nil, p.errf("EXPLAIN cannot be nested")
	}
	e.Stmt = inner
	return e, nil
}

func (p *parser) selectStmt() (*SelectStmt, error) {
	if err := p.expectKw("SELECT"); err != nil {
		return nil, err
	}
	s := &SelectStmt{}
	if p.acceptKw("TOP") {
		e, err := p.primaryExpr()
		if err != nil {
			return nil, err
		}
		s.Top = e
	}
	if p.acceptKw("DISTINCT") {
		s.Distinct = true
	}
	for {
		item, err := p.selectItem()
		if err != nil {
			return nil, err
		}
		s.Columns = append(s.Columns, item)
		if !p.acceptOp(",") {
			break
		}
	}
	if p.acceptKw("FROM") {
		for {
			ref, err := p.tableRef()
			if err != nil {
				return nil, err
			}
			s.From = append(s.From, ref)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKw("WHERE") {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		s.Where = e
	}
	if p.acceptKw("GROUP") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			s.GroupBy = append(s.GroupBy, e)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKw("HAVING") {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		s.Having = e
	}
	if p.acceptKw("ORDER") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKw("DESC") {
				item.Desc = true
			} else {
				p.acceptKw("ASC")
			}
			s.OrderBy = append(s.OrderBy, item)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	// LIMIT n is accepted as a row-count bound equivalent to TOP n (placed
	// after ORDER BY, the position most SQL dialects use). TOP wins when both
	// appear, matching the T-SQL heritage of the rest of the grammar.
	if p.acceptKw("LIMIT") {
		e, err := p.primaryExpr()
		if err != nil {
			return nil, err
		}
		if s.Top == nil {
			s.Top = e
		}
	}
	if p.acceptKw("WITH") {
		if err := p.expectKw("FRESHNESS"); err != nil {
			return nil, err
		}
		e, err := p.primaryExpr()
		if err != nil {
			return nil, err
		}
		s.Freshness = e
	}
	return s, nil
}

func (p *parser) selectItem() (SelectItem, error) {
	// "*" or "t.*"
	if p.peek().kind == tokOp && p.peek().text == "*" {
		p.advance()
		return SelectItem{Star: true}, nil
	}
	if p.peek().kind == tokIdent && p.peek2().kind == tokOp && p.peek2().text == "." {
		// lookahead for t.*
		save := p.i
		tbl := p.advance().text
		p.advance() // .
		if p.peek().kind == tokOp && p.peek().text == "*" {
			p.advance()
			return SelectItem{Star: true, StarTable: tbl}, nil
		}
		p.i = save
	}
	e, err := p.expr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKw("AS") {
		a, err := p.identLike()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = a
	} else if p.peek().kind == tokIdent {
		item.Alias = p.advance().text
	}
	return item, nil
}

// tableRef parses one FROM item with any trailing JOIN chain.
func (p *parser) tableRef() (TableRef, error) {
	left, err := p.simpleTableRef()
	if err != nil {
		return nil, err
	}
	for {
		var jt JoinType
		switch {
		case p.acceptKw("INNER"):
			jt = JoinInner
			if err := p.expectKw("JOIN"); err != nil {
				return nil, err
			}
		case p.acceptKw("LEFT"):
			jt = JoinLeft
			p.acceptKw("OUTER")
			if err := p.expectKw("JOIN"); err != nil {
				return nil, err
			}
		case p.acceptKw("CROSS"):
			jt = JoinCross
			if err := p.expectKw("JOIN"); err != nil {
				return nil, err
			}
		case p.acceptKw("JOIN"):
			jt = JoinInner
		default:
			return left, nil
		}
		right, err := p.simpleTableRef()
		if err != nil {
			return nil, err
		}
		j := &JoinRef{Type: jt, Left: left, Right: right}
		if jt != JoinCross {
			if err := p.expectKw("ON"); err != nil {
				return nil, err
			}
			on, err := p.expr()
			if err != nil {
				return nil, err
			}
			j.On = on
		}
		left = j
	}
}

func (p *parser) simpleTableRef() (TableRef, error) {
	if p.acceptOp("(") {
		sel, err := p.selectStmt()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		p.acceptKw("AS")
		alias, err := p.identLike()
		if err != nil {
			return nil, fmt.Errorf("parse: derived table requires an alias: %w", err)
		}
		return &SubqueryRef{Select: sel, Alias: alias}, nil
	}
	return p.tableName()
}

// tableName parses up to three dotted parts: [server.[database.]]table,
// plus an optional alias.
func (p *parser) tableName() (*TableName, error) {
	var parts []string
	for {
		id, err := p.identLike()
		if err != nil {
			return nil, err
		}
		parts = append(parts, id)
		if !p.acceptOp(".") {
			break
		}
		if len(parts) == 3 {
			return nil, p.errf("too many name qualifiers")
		}
	}
	tn := &TableName{}
	switch len(parts) {
	case 1:
		tn.Name = parts[0]
	case 2:
		tn.Database, tn.Name = parts[0], parts[1]
	case 3:
		tn.Server, tn.Database, tn.Name = parts[0], parts[1], parts[2]
	}
	if p.acceptKw("AS") {
		a, err := p.identLike()
		if err != nil {
			return nil, err
		}
		tn.Alias = a
	} else if p.peek().kind == tokIdent {
		tn.Alias = p.advance().text
	}
	return tn, nil
}

func (p *parser) insertStmt() (Statement, error) {
	p.advance() // INSERT
	p.acceptKw("INTO")
	tn, err := p.tableName()
	if err != nil {
		return nil, err
	}
	ins := &InsertStmt{Table: tn}
	if p.acceptOp("(") {
		for {
			c, err := p.identLike()
			if err != nil {
				return nil, err
			}
			ins.Columns = append(ins.Columns, c)
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
	}
	if p.acceptKw("VALUES") {
		for {
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			var row []Expr
			for {
				e, err := p.expr()
				if err != nil {
					return nil, err
				}
				row = append(row, e)
				if !p.acceptOp(",") {
					break
				}
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			ins.Rows = append(ins.Rows, row)
			if !p.acceptOp(",") {
				break
			}
		}
		return ins, nil
	}
	if p.peek().kind == tokKeyword && p.peek().text == "SELECT" {
		sel, err := p.selectStmt()
		if err != nil {
			return nil, err
		}
		ins.Select = sel
		return ins, nil
	}
	return nil, p.errf("expected VALUES or SELECT")
}

func (p *parser) updateStmt() (Statement, error) {
	p.advance() // UPDATE
	tn, err := p.tableName()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("SET"); err != nil {
		return nil, err
	}
	u := &UpdateStmt{Table: tn}
	for {
		col, err := p.identLike()
		if err != nil {
			return nil, err
		}
		// allow table-qualified column in SET
		if p.acceptOp(".") {
			col, err = p.identLike()
			if err != nil {
				return nil, err
			}
		}
		if err := p.expectOp("="); err != nil {
			return nil, err
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		u.Set = append(u.Set, Assignment{Column: col, Expr: e})
		if !p.acceptOp(",") {
			break
		}
	}
	if p.acceptKw("WHERE") {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		u.Where = e
	}
	return u, nil
}

func (p *parser) deleteStmt() (Statement, error) {
	p.advance() // DELETE
	p.acceptKw("FROM")
	tn, err := p.tableName()
	if err != nil {
		return nil, err
	}
	d := &DeleteStmt{Table: tn}
	if p.acceptKw("WHERE") {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		d.Where = e
	}
	return d, nil
}

func (p *parser) createStmt() (Statement, error) {
	p.advance() // CREATE
	switch {
	case p.acceptKw("TABLE"):
		return p.createTable()
	case p.acceptKw("UNIQUE"):
		if err := p.expectKw("INDEX"); err != nil {
			return nil, err
		}
		return p.createIndex(true)
	case p.acceptKw("INDEX"):
		return p.createIndex(false)
	case p.acceptKw("CACHED"):
		if err := p.expectKw("VIEW"); err != nil {
			return nil, err
		}
		return p.createView(true, false)
	case p.acceptKw("MATERIALIZED"):
		if err := p.expectKw("VIEW"); err != nil {
			return nil, err
		}
		return p.createView(false, true)
	case p.acceptKw("VIEW"):
		return p.createView(false, false)
	case p.acceptKw("PROCEDURE"), p.acceptKw("PROC"):
		return p.createProc()
	}
	return nil, p.errf("unsupported CREATE")
}

func (p *parser) createTable() (Statement, error) {
	name, err := p.identLike()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	ct := &CreateTableStmt{Name: name}
	for {
		if p.acceptKw("PRIMARY") {
			if err := p.expectKw("KEY"); err != nil {
				return nil, err
			}
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			for {
				c, err := p.identLike()
				if err != nil {
					return nil, err
				}
				ct.PrimaryKey = append(ct.PrimaryKey, c)
				if !p.acceptOp(",") {
					break
				}
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
		} else {
			col, err := p.columnDef()
			if err != nil {
				return nil, err
			}
			ct.Columns = append(ct.Columns, col)
		}
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return ct, nil
}

func (p *parser) columnDef() (ColumnDef, error) {
	name, err := p.identLike()
	if err != nil {
		return ColumnDef{}, err
	}
	tname, err := p.identLike()
	if err != nil {
		return ColumnDef{}, fmt.Errorf("parse: column %s: %w", name, err)
	}
	// consume optional (n) or (p,s) length spec
	if p.acceptOp("(") {
		for !p.acceptOp(")") {
			if p.peek().kind == tokEOF {
				return ColumnDef{}, p.errf("unterminated type length")
			}
			p.advance()
		}
	}
	kind, err := types.ParseKind(tname)
	if err != nil {
		return ColumnDef{}, fmt.Errorf("parse: column %s: %w", name, err)
	}
	col := ColumnDef{Name: name, Type: kind}
	for {
		switch {
		case p.acceptKw("NOT"):
			if err := p.expectKw("NULL"); err != nil {
				return ColumnDef{}, err
			}
			col.NotNull = true
		case p.acceptKw("NULL"):
			// explicit nullable; nothing to record
		case p.acceptKw("PRIMARY"):
			if err := p.expectKw("KEY"); err != nil {
				return ColumnDef{}, err
			}
			col.PrimaryKey = true
			col.NotNull = true
		case p.acceptKw("DEFAULT"):
			e, err := p.primaryExpr()
			if err != nil {
				return ColumnDef{}, err
			}
			col.Default = e
		default:
			return col, nil
		}
	}
}

func (p *parser) createIndex(unique bool) (Statement, error) {
	name, err := p.identLike()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("ON"); err != nil {
		return nil, err
	}
	table, err := p.identLike()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	ci := &CreateIndexStmt{Name: name, Table: table, Unique: unique}
	for {
		c, err := p.identLike()
		if err != nil {
			return nil, err
		}
		ci.Columns = append(ci.Columns, c)
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return ci, nil
}

func (p *parser) createView(cached, materialized bool) (Statement, error) {
	name, err := p.identLike()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("AS"); err != nil {
		return nil, err
	}
	sel, err := p.selectStmt()
	if err != nil {
		return nil, err
	}
	return &CreateViewStmt{Name: name, Cached: cached, Materialized: materialized, Select: sel}, nil
}

func (p *parser) createProc() (Statement, error) {
	name, err := p.identLike()
	if err != nil {
		return nil, err
	}
	cp := &CreateProcStmt{Name: name}
	paren := p.acceptOp("(")
	if p.peek().kind == tokParam {
		for {
			t := p.advance()
			tname, err := p.identLike()
			if err != nil {
				return nil, err
			}
			if p.acceptOp("(") {
				for !p.acceptOp(")") {
					if p.peek().kind == tokEOF {
						return nil, p.errf("unterminated type length")
					}
					p.advance()
				}
			}
			kind, err := types.ParseKind(tname)
			if err != nil {
				return nil, err
			}
			cp.Params = append(cp.Params, ProcParam{Name: t.text, Type: kind})
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if paren {
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKw("AS"); err != nil {
		return nil, err
	}
	hasBegin := p.acceptKw("BEGIN")
	for {
		for p.acceptOp(";") {
		}
		if hasBegin && p.acceptKw("END") {
			break
		}
		if p.peek().kind == tokEOF {
			if hasBegin {
				return nil, p.errf("expected END")
			}
			break
		}
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		cp.Body = append(cp.Body, s)
		if !hasBegin {
			// without BEGIN/END the body is a single statement
			break
		}
	}
	if len(cp.Body) == 0 {
		return nil, p.errf("empty procedure body")
	}
	return cp, nil
}

func (p *parser) execStmt() (Statement, error) {
	p.advance() // EXEC
	name, err := p.identLike()
	if err != nil {
		return nil, err
	}
	ex := &ExecStmt{Proc: name}
	// arguments until ; or EOF
	if p.peek().kind == tokEOF || p.peek().kind == tokOp && p.peek().text == ";" {
		return ex, nil
	}
	for {
		var arg ExecArg
		if p.peek().kind == tokParam && p.peek2().kind == tokOp && p.peek2().text == "=" {
			arg.Name = p.advance().text
			p.advance() // =
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		arg.Expr = e
		ex.Args = append(ex.Args, arg)
		if !p.acceptOp(",") {
			break
		}
	}
	return ex, nil
}

func (p *parser) dropStmt() (Statement, error) {
	p.advance() // DROP
	var what string
	switch {
	case p.acceptKw("TABLE"):
		what = "TABLE"
	case p.acceptKw("VIEW"):
		what = "VIEW"
	case p.acceptKw("INDEX"):
		what = "INDEX"
	case p.acceptKw("PROCEDURE"), p.acceptKw("PROC"):
		what = "PROCEDURE"
	default:
		return nil, p.errf("unsupported DROP")
	}
	name, err := p.identLike()
	if err != nil {
		return nil, err
	}
	return &DropStmt{What: what, Name: name}, nil
}

// ---- expressions ----

// expr parses with precedence: OR < AND < NOT < comparison < add < mul < unary.
func (p *parser) expr() (Expr, error) { return p.orExpr() }

func (p *parser) orExpr() (Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("OR") {
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: OpOr, L: l, R: r}
	}
	return l, nil
}

func (p *parser) andExpr() (Expr, error) {
	l, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("AND") {
		r, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: OpAnd, L: l, R: r}
	}
	return l, nil
}

func (p *parser) notExpr() (Expr, error) {
	if p.acceptKw("NOT") {
		x, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: OpNot, X: x}, nil
	}
	return p.comparison()
}

func (p *parser) comparison() (Expr, error) {
	l, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	// IS [NOT] NULL
	if p.acceptKw("IS") {
		not := p.acceptKw("NOT")
		if err := p.expectKw("NULL"); err != nil {
			return nil, err
		}
		return &IsNullExpr{X: l, Not: not}, nil
	}
	not := p.acceptKw("NOT")
	switch {
	case p.acceptKw("LIKE"):
		pat, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		return &LikeExpr{X: l, Pattern: pat, Not: not}, nil
	case p.acceptKw("IN"):
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		in := &InExpr{X: l, Not: not}
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			in.List = append(in.List, e)
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return in, nil
	case p.acceptKw("BETWEEN"):
		lo, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("AND"); err != nil {
			return nil, err
		}
		hi, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{X: l, Lo: lo, Hi: hi, Not: not}, nil
	}
	if not {
		return nil, p.errf("expected LIKE, IN or BETWEEN after NOT")
	}
	for _, op := range []struct {
		text string
		op   BinOp
	}{{"=", OpEQ}, {"<>", OpNE}, {"<=", OpLE}, {">=", OpGE}, {"<", OpLT}, {">", OpGT}} {
		if p.acceptOp(op.text) {
			r, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			return &BinaryExpr{Op: op.op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *parser) addExpr() (Expr, error) {
	l, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for {
		var op BinOp
		switch {
		case p.acceptOp("+"):
			op = OpAdd
		case p.acceptOp("-"):
			op = OpSub
		default:
			return l, nil
		}
		r, err := p.mulExpr()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: op, L: l, R: r}
	}
}

func (p *parser) mulExpr() (Expr, error) {
	l, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		var op BinOp
		switch {
		case p.acceptOp("*"):
			op = OpMul
		case p.acceptOp("/"):
			op = OpDiv
		case p.acceptOp("%"):
			op = OpMod
		default:
			return l, nil
		}
		r, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: op, L: l, R: r}
	}
}

func (p *parser) unaryExpr() (Expr, error) {
	if p.acceptOp("-") {
		x, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		if lit, ok := x.(*Literal); ok {
			switch lit.Val.K {
			case types.KindInt:
				return &Literal{Val: types.NewInt(-lit.Val.Int())}, nil
			case types.KindFloat:
				return &Literal{Val: types.NewFloat(-lit.Val.Float())}, nil
			}
		}
		return &UnaryExpr{Op: OpNeg, X: x}, nil
	}
	return p.primaryExpr()
}

func (p *parser) primaryExpr() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.advance()
		if strings.ContainsAny(t.text, ".eE") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, p.errf("bad number %q", t.text)
			}
			return &Literal{Val: types.NewFloat(f)}, nil
		}
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad number %q", t.text)
		}
		return &Literal{Val: types.NewInt(i)}, nil
	case tokString:
		p.advance()
		return &Literal{Val: types.NewString(t.text)}, nil
	case tokParam:
		p.advance()
		return &Param{Name: t.text}, nil
	case tokKeyword:
		switch t.text {
		case "NULL":
			p.advance()
			return &Literal{Val: types.Null}, nil
		case "TRUE":
			p.advance()
			return &Literal{Val: types.NewBool(true)}, nil
		case "FALSE":
			p.advance()
			return &Literal{Val: types.NewBool(false)}, nil
		case "CASE":
			return p.caseExpr()
		}
		return nil, p.errf("unexpected keyword %s in expression", t.text)
	case tokIdent:
		p.advance()
		// function call?
		if p.peek().kind == tokOp && p.peek().text == "(" {
			return p.funcCall(t.text)
		}
		// qualified column t.c
		if p.acceptOp(".") {
			col, err := p.identLike()
			if err != nil {
				return nil, err
			}
			return &ColumnRef{Table: t.text, Name: col}, nil
		}
		return &ColumnRef{Name: t.text}, nil
	case tokOp:
		if t.text == "(" {
			p.advance()
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errf("unexpected token in expression")
}

func (p *parser) funcCall(name string) (Expr, error) {
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	fc := &FuncCall{Name: upperASCII(name)}
	if p.peek().kind == tokOp && p.peek().text == "*" {
		p.advance()
		fc.Star = true
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return fc, nil
	}
	if p.acceptOp(")") {
		return fc, nil
	}
	if p.acceptKw("DISTINCT") {
		fc.Distinct = true
	}
	for {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		fc.Args = append(fc.Args, e)
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return fc, nil
}

func (p *parser) caseExpr() (Expr, error) {
	p.advance() // CASE
	ce := &CaseExpr{}
	for p.acceptKw("WHEN") {
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("THEN"); err != nil {
			return nil, err
		}
		then, err := p.expr()
		if err != nil {
			return nil, err
		}
		ce.Whens = append(ce.Whens, CaseWhen{Cond: cond, Then: then})
	}
	if len(ce.Whens) == 0 {
		return nil, p.errf("CASE requires at least one WHEN")
	}
	if p.acceptKw("ELSE") {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		ce.Else = e
	}
	if err := p.expectKw("END"); err != nil {
		return nil, err
	}
	return ce, nil
}
