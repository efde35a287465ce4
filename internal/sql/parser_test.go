package sql

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"mtcache/internal/types"
)

func TestParseSimpleSelect(t *testing.T) {
	s := MustParseSelect("SELECT cid, cname FROM customer WHERE cid <= 1000")
	if len(s.Columns) != 2 {
		t.Fatalf("columns: %d", len(s.Columns))
	}
	if s.Columns[0].Expr.(*ColumnRef).Name != "cid" {
		t.Error("first column should be cid")
	}
	tn := s.From[0].(*TableName)
	if tn.Name != "customer" {
		t.Errorf("table: %s", tn.Name)
	}
	be := s.Where.(*BinaryExpr)
	if be.Op != OpLE {
		t.Errorf("where op: %v", be.Op)
	}
	if be.R.(*Literal).Val.Int() != 1000 {
		t.Error("literal 1000 expected")
	}
}

func TestParseParameterizedQuery(t *testing.T) {
	s := MustParseSelect("SELECT cid, cname, caddress FROM customer WHERE cid = @cid")
	be := s.Where.(*BinaryExpr)
	p, ok := be.R.(*Param)
	if !ok || p.Name != "cid" {
		t.Fatalf("expected param @cid, got %#v", be.R)
	}
}

func TestParsePaperExampleDistributedQuery(t *testing.T) {
	// The paper's §2.1 example (adapted to three-part names).
	q := `Select ol.id, ps.name, ol.qty
	      From orderline ol, PartServer.catdb.part ps
	      Where ol.id = ps.id And ol.qty > 500 And ps.type = 'Tire'`
	s := MustParseSelect(q)
	if len(s.From) != 2 {
		t.Fatalf("from items: %d", len(s.From))
	}
	remote := s.From[1].(*TableName)
	if remote.Server != "PartServer" || remote.Database != "catdb" || remote.Name != "part" || remote.Alias != "ps" {
		t.Errorf("remote table parsed wrong: %+v", remote)
	}
}

func TestParseJoins(t *testing.T) {
	s := MustParseSelect(`SELECT c.name, o.total FROM customer c INNER JOIN orders o ON c.ckey = o.ckey WHERE c.ckey <= @key`)
	j, ok := s.From[0].(*JoinRef)
	if !ok {
		t.Fatal("expected join")
	}
	if j.Type != JoinInner || j.On == nil {
		t.Error("inner join with ON expected")
	}
	// left join
	s = MustParseSelect(`SELECT a.x FROM a LEFT OUTER JOIN b ON a.x = b.x`)
	if s.From[0].(*JoinRef).Type != JoinLeft {
		t.Error("left join expected")
	}
}

func TestParseAggregatesAndGrouping(t *testing.T) {
	s := MustParseSelect(`SELECT TOP 50 i_id, COUNT(*) AS cnt, SUM(ol_qty) FROM order_line GROUP BY i_id HAVING COUNT(*) > 2 ORDER BY cnt DESC, i_id`)
	if s.Top.(*Literal).Val.Int() != 50 {
		t.Error("TOP 50")
	}
	fc := s.Columns[1].Expr.(*FuncCall)
	if fc.Name != "COUNT" || !fc.Star {
		t.Error("COUNT(*)")
	}
	if len(s.GroupBy) != 1 || s.Having == nil {
		t.Error("group/having")
	}
	if len(s.OrderBy) != 2 || !s.OrderBy[0].Desc || s.OrderBy[1].Desc {
		t.Error("order by")
	}
}

func TestParseInBetweenLikeIsNull(t *testing.T) {
	s := MustParseSelect(`SELECT * FROM item WHERE i_subject IN ('ARTS','BIOGRAPHIES') AND i_cost BETWEEN 5 AND 10 AND i_title LIKE '%god%' AND i_pub_date IS NOT NULL AND i_id NOT IN (1,2)`)
	conj := collectConjuncts(s.Where)
	if len(conj) != 5 {
		t.Fatalf("conjuncts: %d", len(conj))
	}
	if in := conj[0].(*InExpr); len(in.List) != 2 || in.Not {
		t.Error("IN list")
	}
	if bt := conj[1].(*BetweenExpr); bt.Not {
		t.Error("BETWEEN")
	}
	if lk := conj[2].(*LikeExpr); lk.Not {
		t.Error("LIKE")
	}
	if isn := conj[3].(*IsNullExpr); !isn.Not {
		t.Error("IS NOT NULL")
	}
	if in := conj[4].(*InExpr); !in.Not {
		t.Error("NOT IN")
	}
}

func collectConjuncts(e Expr) []Expr {
	if b, ok := e.(*BinaryExpr); ok && b.Op == OpAnd {
		return append(collectConjuncts(b.L), collectConjuncts(b.R)...)
	}
	return []Expr{e}
}

func TestParseInsertUpdateDelete(t *testing.T) {
	ins := MustParse(`INSERT INTO customer (cid, cname) VALUES (1, 'Ann'), (2, 'Bob')`).(*InsertStmt)
	if len(ins.Rows) != 2 || len(ins.Columns) != 2 {
		t.Error("insert shape")
	}
	up := MustParse(`UPDATE item SET i_cost = i_cost * 1.1, i_pub_date = '2003-06-09' WHERE i_id = @id`).(*UpdateStmt)
	if len(up.Set) != 2 || up.Where == nil {
		t.Error("update shape")
	}
	del := MustParse(`DELETE FROM shopping_cart_line WHERE scl_sc_id = 7`).(*DeleteStmt)
	if del.Where == nil {
		t.Error("delete shape")
	}
}

func TestParseInsertSelect(t *testing.T) {
	ins := MustParse(`INSERT INTO archive (id, total) SELECT o_id, o_total FROM orders WHERE o_id < 100`).(*InsertStmt)
	if ins.Select == nil {
		t.Fatal("insert-select")
	}
}

func TestParseCreateTable(t *testing.T) {
	ct := MustParse(`CREATE TABLE customer (
		c_id INT PRIMARY KEY,
		c_uname VARCHAR(20) NOT NULL,
		c_balance FLOAT DEFAULT 0,
		c_since DATETIME
	)`).(*CreateTableStmt)
	if len(ct.Columns) != 4 {
		t.Fatalf("columns: %d", len(ct.Columns))
	}
	if !ct.Columns[0].PrimaryKey || ct.Columns[0].Type != types.KindInt {
		t.Error("pk column")
	}
	if !ct.Columns[1].NotNull || ct.Columns[1].Type != types.KindString {
		t.Error("not null varchar")
	}
	if ct.Columns[2].Default == nil {
		t.Error("default")
	}
}

func TestParseCompositePrimaryKey(t *testing.T) {
	ct := MustParse(`CREATE TABLE order_line (ol_id INT, ol_o_id INT, ol_qty INT, PRIMARY KEY (ol_id, ol_o_id))`).(*CreateTableStmt)
	if len(ct.PrimaryKey) != 2 {
		t.Fatal("composite pk")
	}
}

func TestParseCreateCachedView(t *testing.T) {
	cv := MustParse(`CREATE CACHED VIEW Cust1000 AS SELECT cid, cname, caddress FROM customer WHERE cid <= 1000`).(*CreateViewStmt)
	if !cv.Cached || cv.Materialized {
		t.Error("cached flag")
	}
	if cv.Select.Where == nil {
		t.Error("view predicate")
	}
	mv := MustParse(`CREATE MATERIALIZED VIEW mv1 AS SELECT a FROM t`).(*CreateViewStmt)
	if !mv.Materialized || mv.Cached {
		t.Error("materialized flag")
	}
}

func TestParseCreateProcedure(t *testing.T) {
	cp := MustParse(`CREATE PROCEDURE getCustomer @cid INT AS BEGIN
		SELECT cid, cname FROM customer WHERE cid = @cid;
	END`).(*CreateProcStmt)
	if cp.Name != "getCustomer" || len(cp.Params) != 1 || len(cp.Body) != 1 {
		t.Fatalf("proc shape: %+v", cp)
	}
	if cp.Params[0].Name != "cid" || cp.Params[0].Type != types.KindInt {
		t.Error("param")
	}
	// multi-statement body
	cp = MustParse(`CREATE PROC addLine @o INT, @i INT, @q INT AS BEGIN
		INSERT INTO order_line (ol_o_id, ol_i_id, ol_qty) VALUES (@o, @i, @q);
		UPDATE item SET i_stock = i_stock - @q WHERE i_id = @i;
	END`).(*CreateProcStmt)
	if len(cp.Body) != 2 {
		t.Fatalf("multi body: %d", len(cp.Body))
	}
}

func TestParseExec(t *testing.T) {
	ex := MustParse(`EXEC getCustomer @cid = 42`).(*ExecStmt)
	if ex.Proc != "getCustomer" || len(ex.Args) != 1 || ex.Args[0].Name != "cid" {
		t.Fatalf("exec shape: %+v", ex)
	}
	ex = MustParse(`EXEC getBestSellers 'ARTS', 50`).(*ExecStmt)
	if len(ex.Args) != 2 || ex.Args[0].Name != "" {
		t.Error("positional args")
	}
}

func TestParseScriptMultipleStatements(t *testing.T) {
	stmts, err := ParseScript(`
		CREATE TABLE t (a INT PRIMARY KEY, b VARCHAR(10));
		INSERT INTO t (a, b) VALUES (1, 'x');
		SELECT * FROM t;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("statements: %d", len(stmts))
	}
}

func TestParseComments(t *testing.T) {
	s := MustParseSelect("SELECT a -- trailing\nFROM t /* block\ncomment */ WHERE a > 1")
	if s.Where == nil {
		t.Error("comments should be skipped")
	}
}

func TestParseStringEscapes(t *testing.T) {
	s := MustParseSelect(`SELECT * FROM t WHERE name = 'O''Brien'`)
	lit := s.Where.(*BinaryExpr).R.(*Literal)
	if lit.Val.Str() != "O'Brien" {
		t.Errorf("escape: %q", lit.Val.Str())
	}
}

func TestParseCaseExpr(t *testing.T) {
	s := MustParseSelect(`SELECT CASE WHEN a > 0 THEN 'pos' WHEN a < 0 THEN 'neg' ELSE 'zero' END FROM t`)
	ce := s.Columns[0].Expr.(*CaseExpr)
	if len(ce.Whens) != 2 || ce.Else == nil {
		t.Error("case shape")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELEC a FROM t",
		"SELECT FROM",
		"SELECT a FROM t WHERE",
		"INSERT INTO t VALUES (1,",
		"CREATE TABLE t (a BLOB)",
		"SELECT a FROM t WHERE a NOT 5",
		"SELECT 'unterminated",
		"CREATE PROCEDURE p AS BEGIN END",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestDeparseRoundTrip(t *testing.T) {
	queries := []string{
		"SELECT cid, cname FROM customer WHERE cid <= 1000",
		"SELECT TOP 50 i_id, COUNT(*) AS cnt FROM order_line GROUP BY i_id ORDER BY cnt DESC",
		"SELECT c.name, o.total FROM customer AS c INNER JOIN orders AS o ON c.ckey = o.ckey",
		"SELECT * FROM item WHERE i_title LIKE '%SQL%' AND i_cost BETWEEN 1 AND 100",
		"SELECT a FROM t WHERE x IN (1, 2, 3) OR y IS NULL",
		"SELECT cid FROM customer WHERE cid = @cid",
		"INSERT INTO t (a, b) VALUES (1, 'x')",
		"UPDATE t SET a = (a + 1) WHERE b = 2",
		"DELETE FROM t WHERE a < 10",
		"SELECT ps.name FROM srv.db.part AS ps WHERE ps.type = 'Tire'",
		"SELECT x FROM (SELECT x FROM t WHERE x > 1) AS d WHERE x < 10",
	}
	for _, q := range queries {
		s1, err := Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		text := Deparse(s1)
		s2, err := Parse(text)
		if err != nil {
			t.Fatalf("reparse of %q -> %q: %v", q, text, err)
		}
		text2 := Deparse(s2)
		if text != text2 {
			t.Errorf("deparse not stable:\n  1: %s\n  2: %s", text, text2)
		}
	}
}

func TestDeparseQuotesStrings(t *testing.T) {
	s := MustParse(`INSERT INTO t (a) VALUES ('O''Brien')`)
	text := Deparse(s)
	if !strings.Contains(text, "'O''Brien'") {
		t.Errorf("deparse should re-escape quotes: %s", text)
	}
}

func TestCloneExprIndependence(t *testing.T) {
	e := MustParseSelect("SELECT a FROM t WHERE a > 5 AND b LIKE 'x%'").Where
	c := CloneExpr(e)
	// mutate clone
	c.(*BinaryExpr).L.(*BinaryExpr).Op = OpLT
	if e.(*BinaryExpr).L.(*BinaryExpr).Op != OpGT {
		t.Error("clone aliases original")
	}
}

func TestBinOpHelpers(t *testing.T) {
	if OpLT.Negate() != OpGE || OpEQ.Negate() != OpNE {
		t.Error("negate")
	}
	if OpLT.Flip() != OpGT || OpEQ.Flip() != OpEQ {
		t.Error("flip")
	}
	if !OpLE.IsComparison() || OpAdd.IsComparison() {
		t.Error("is comparison")
	}
}

func TestWalkExprVisitsAll(t *testing.T) {
	e := MustParseSelect("SELECT a FROM t WHERE a + 1 > 5 AND b IN (1,2)").Where
	count := 0
	WalkExpr(e, func(Expr) bool { count++; return true })
	// AND, >, +, a, 1, 5, IN, b, 1, 2 = 10 nodes
	if count != 10 {
		t.Errorf("visited %d nodes, want 10", count)
	}
}

// TestCallShapeIsDeterministic: one call is one EXEC text. The arguments
// arrive in a map, so building the text by ranging over it gave a different
// statement from run to run; they are ordered by name instead. The text names
// the parameters only — the values travel beside it in the named-parameter
// map — so every call with the same names is the same text, and a warm one
// costs no allocation.
func TestCallShapeIsDeterministic(t *testing.T) {
	params := map[string]types.Value{
		"c_id": types.NewInt(7), "title": types.NewString("it's"), "a": types.Null,
		"qty": types.NewInt(3), "cost": types.NewFloat(1.5), "z": types.NewBool(true),
	}
	const want = "EXEC getBook @a = @a, @c_id = @c_id, @cost = @cost, @qty = @qty, @title = @title, @z = @z"
	for i := 0; i < 20; i++ {
		if got := CallShape("getBook", params); got != want {
			t.Fatalf("run %d:\n got %s\nwant %s", i, got, want)
		}
	}
	other := map[string]types.Value{"c_id": types.NewInt(8), "title": types.NewString("x"), "a": types.NewInt(1),
		"qty": types.Null, "cost": types.NewInt(2), "z": types.NewBool(false)}
	if got := CallShape("getBook", other); got != want {
		t.Fatalf("other values, same names: %s", got)
	}
	if got := CallShape("noArgs", nil); got != "EXEC noArgs" {
		t.Fatalf("no arguments: %q", got)
	}
	// The memo tells (procedure, names) pairs apart that run together.
	if a, b := CallShape("ab", map[string]types.Value{"c": types.Null}), CallShape("a", map[string]types.Value{"bc": types.Null}); a == b {
		t.Fatalf("two calls share a shape: %s", a)
	}
	stmt, err := Parse(want)
	if err != nil {
		t.Fatal(err)
	}
	call, ok := stmt.(*ExecStmt)
	if !ok || len(call.Args) != len(params) || call.Args[1].Name != "c_id" {
		t.Fatalf("EXEC text does not parse back to the call: %#v", stmt)
	}
	if p, isParam := call.Args[1].Expr.(*Param); !isParam || p.Name != "c_id" {
		t.Fatalf("argument @c_id is %#v, want the parameter @c_id", call.Args[1].Expr)
	}
	if avg := testing.AllocsPerRun(200, func() { CallShape("getBook", params) }); avg != 0 {
		t.Errorf("warm CallShape: %.1f allocs, want 0", avg)
	}
}

// TestCallShapeConcurrently: the memo behind CallShape is shared by every
// session of every router in the process. Eight goroutines render 600 name
// sets each — more than the memo holds, so it is cleared under them — and
// every text each gets back is the one for its own call.
func TestCallShapeConcurrently(t *testing.T) {
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 600; i++ {
				a, b := fmt.Sprintf("a%d", i), fmt.Sprintf("g%d", g)
				want := fmt.Sprintf("EXEC p%d @%s = @%s, @%s = @%s", i%3, a, a, b, b)
				if got := CallShape(fmt.Sprintf("p%d", i%3), map[string]types.Value{b: types.Null, a: types.Null}); got != want {
					errs <- fmt.Sprintf("goroutine %d: got %s, want %s", g, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestReadOnly pins the one idempotency rule: a text is a read when its first
// keyword, after the spaces and comments the lexer skips, is SELECT or
// EXPLAIN, in any case. Everything else, including an EXEC, the empty text and
// text whose only content is a comment, is a write. The check allocates
// nothing.
func TestReadOnly(t *testing.T) {
	for _, c := range []struct {
		text string
		want bool
	}{
		{"SELECT 1", true},
		{"select * from part", true},
		{"SeLeCt 1", true},
		{"  \t\r\n SELECT 1", true},
		{"-- a note\nSELECT 1", true},
		{"/* c */ SELECT 1", true},
		{"/* c */ -- d\n /**/SELECT 1", true},
		{"SELECT(1)", true},
		{"EXPLAIN SELECT 1", true},
		{"EXPLAIN ANALYZE SELECT 1", true},
		{"explain analyze select 1", true},
		{"/* unterminated SELECT 1", false},
		{"-- SELECT 1", false},
		{"SELECTED 1", false},
		{"EXEC getBook 17", false},
		{"EXECUTE getBook 17", false},
		{"EXEC p @a = @a", false},
		{"INSERT INTO part VALUES (1)", false},
		{"UPDATE part SET qty = 0", false},
		{"/* c */ UPDATE part SET qty = 0", false},
		{"DELETE FROM part", false},
		{"CREATE TABLE t (a INT)", false},
		{"", false},
		{"   ", false},
		{"(SELECT 1)", false},
	} {
		if got := ReadOnly(c.text); got != c.want {
			t.Errorf("ReadOnly(%q) = %v, want %v", c.text, got, c.want)
		}
	}
	if avg := testing.AllocsPerRun(200, func() {
		ReadOnly("/* c */ select * from part")
		ReadOnly("  EXPLAIN ANALYZE SELECT 1")
		ReadOnly("UPDATE part SET qty = 0")
	}); avg != 0 {
		t.Errorf("ReadOnly: %.1f allocs, want 0", avg)
	}
}
