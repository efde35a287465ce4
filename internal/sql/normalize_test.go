package sql

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"mtcache/internal/types"
)

func normalize(t *testing.T, src string) (string, []types.Value) {
	t.Helper()
	var n Normalizer
	key, args, ok := n.Normalize(src)
	if !ok {
		t.Fatalf("Normalize(%q) not ok", src)
	}
	return string(key), args
}

func TestNormalizeRewritesLiterals(t *testing.T) {
	cases := []struct {
		src  string
		key  string
		args []types.Value
	}{
		{
			"SELECT i_title FROM item WHERE i_id = 42",
			"SELECT i_title FROM item WHERE i_id = @__p0",
			[]types.Value{types.NewInt(42)},
		},
		{
			"select   name from part where type='Tire' and qty > 10",
			"SELECT name FROM part WHERE type = @__p0 AND qty > @__p1",
			[]types.Value{types.NewString("Tire"), types.NewInt(10)},
		},
		{
			"SELECT a + 1.5 FROM t -- trailing\nWHERE b = 2e3",
			"SELECT a + @__p0 FROM t WHERE b = @__p1",
			[]types.Value{types.NewFloat(1.5), types.NewFloat(2000)},
		},
		{
			"SELECT * FROM t WHERE name = 'O''Brien'",
			"SELECT * FROM t WHERE name = @__p0",
			[]types.Value{types.NewString("O'Brien")},
		},
		{
			// Explicit user parameters pass through untouched; literals
			// around them still parameterize.
			"SELECT a FROM t WHERE a = @id AND b != 7",
			"SELECT a FROM t WHERE a = @id AND b <> @__p0",
			[]types.Value{types.NewInt(7)},
		},
		{
			// Function names upper-case (the parser stores them that way);
			// other identifiers keep their written case.
			"SELECT count(*), Upper(cname) FROM Customer GROUP BY cname",
			"SELECT COUNT ( * ) , UPPER ( cname ) FROM Customer GROUP BY cname",
			nil,
		},
		{
			"SELECT x FROM t WHERE s IN ('a', 'b', 'c')",
			"SELECT x FROM t WHERE s IN ( @__p0 , @__p1 , @__p2 )",
			[]types.Value{types.NewString("a"), types.NewString("b"), types.NewString("c")},
		},
		{
			// A call: the procedure name keeps its case, arguments parameterize.
			"EXEC getBook @id = 1",
			"EXEC getBook @id = @__p0",
			[]types.Value{types.NewInt(1)},
		},
		{
			// A sign where an argument starts is part of the value, as the
			// parser folds it; NULL stays a keyword; named and positional mix.
			"execute getBook -5, @x = -1.5, NULL, 'it''s', @y = - /* sign */ 2",
			"EXECUTE getBook @__p0 , @x = @__p1 , NULL , @__p2 , @y = @__p3",
			[]types.Value{types.NewInt(-5), types.NewFloat(-1.5), types.NewString("it's"), types.NewInt(-2)},
		},
		{
			// Inside an expression a minus is an operator (the binding refuses
			// the expression either way); after "(" it starts a value again.
			"EXEC p 3 -5, (-7)",
			"EXEC p @__p0 - @__p1 , ( @__p2 )",
			[]types.Value{types.NewInt(3), types.NewInt(5), types.NewInt(-7)},
		},
		{
			// An INSERT's target keeps its case before its column list; after
			// VALUES a name before "(" is a function again.
			"insert into dbo.Item (i_id, i_title) values (7, upper('x')), (-8, NULL)",
			"INSERT INTO dbo . Item ( i_id , i_title ) VALUES ( @__p0 , UPPER ( @__p1 ) ) , ( - @__p2 , NULL )",
			[]types.Value{types.NewInt(7), types.NewString("x"), types.NewInt(8)},
		},
		{
			"INSERT Item(i_id) SELECT abs(a) FROM t WHERE b = 'y'",
			"INSERT Item ( i_id ) SELECT ABS ( a ) FROM t WHERE b = @__p0",
			[]types.Value{types.NewString("y")},
		},
		{
			"update item set i_stock = 7 where i_id = 1417",
			"UPDATE item SET i_stock = @__p0 WHERE i_id = @__p1",
			[]types.Value{types.NewInt(7), types.NewInt(1417)},
		},
		{
			"DELETE FROM t WHERE a IN (1, 2) AND b LIKE 'x%'",
			"DELETE FROM t WHERE a IN ( @__p0 , @__p1 ) AND b LIKE @__p2",
			[]types.Value{types.NewInt(1), types.NewInt(2), types.NewString("x%")},
		},
	}
	for _, c := range cases {
		key, args := normalize(t, c.src)
		if key != c.key {
			t.Errorf("key(%q)\n got %q\nwant %q", c.src, key, c.key)
		}
		if len(args) != len(c.args) {
			t.Errorf("args(%q) = %v, want %v", c.src, args, c.args)
			continue
		}
		for i := range args {
			if types.Compare(args[i], c.args[i]) != 0 || args[i].K != c.args[i].K {
				t.Errorf("args[%d](%q) = %v (%v), want %v (%v)", i, c.src, args[i], args[i].K, c.args[i], c.args[i].K)
			}
		}
	}
}

func TestNormalizeBails(t *testing.T) {
	var n Normalizer
	for _, src := range []string{
		"",
		"EXPLAIN SELECT a FROM t",
		"CREATE TABLE t (a INT)",
		"DROP TABLE t",
		"EXEC",                  // no procedure
		"EXEC SELECT",           // a keyword is not a procedure name
		"EXEC 5",                // nor a number
		"EXEC getBook - -5",     // a sign the parser folds twice
		"EXEC getBook -(5)",     // ... through parentheses
		"EXEC getBook @x = -@y", // ... or cannot fold
		"EXEC getBook -'a'",
		"EXEC getBook 0 = (0)", // one argument, "0 = 0" — not one named __p0
		"42 + 1",
		"name FROM t", // ident first
		"SELECT a FROM t WHERE a = @__p0 AND b = 1",   // explicit auto-param name, then a literal: collides
		"SELECT a FROM t WHERE b = 'x' AND a = @__p1", // a literal, then an explicit auto-param name
		"SELECT a FROM t WHERE a = @",                 // lone @
		"SELECT 'unterminated",                        // unterminated string
		"SELECT [unterminated FROM t",                 // unterminated bracket ident
		"SELECT a FROM t WHERE x ? 1",                 // unknown operator
		"UPDATE t SET a = @__p0 WHERE b = 1",          // a write collides too
	} {
		if _, _, ok := n.Normalize(src); ok {
			t.Errorf("Normalize(%q) ok, want bail", src)
		}
	}
	// A bail must not poison the next call.
	if key, _ := normalize(t, "SELECT a FROM t"); key != "SELECT a FROM t" {
		t.Fatalf("normalizer state leaked across calls: %q", key)
	}
}

// A text whose only parameters-to-be are explicit @__pN — what a cache ships
// for the remote part of a shared plan — normalizes to its own canonical
// form with nothing extracted, so the backend resolves it through the shape
// cache and binds @__pN from the named-parameter map.
func TestNormalizeForwardedShapePassesThrough(t *testing.T) {
	var n Normalizer
	for _, c := range []struct{ src, key string }{
		{"SELECT a FROM t WHERE a = @__p0", "SELECT a FROM t WHERE a = @__p0"},
		{"select  t.a from t where t.b >= @__p0 and t.b < @__p1 and t.c = @x",
			"SELECT t . a FROM t WHERE t . b >= @__p0 AND t . b < @__p1 AND t . c = @x"},
		{"SELECT TOP @__p1 a FROM t WHERE b IN (@__p0, @__p2)", "SELECT TOP @__p1 a FROM t WHERE b IN ( @__p0 , @__p2 )"},
		// A routed call (sql.CallShape), and a cache forwarding a literal one.
		{"EXEC getBook @i_id = @i_id, @x = @x", "EXEC getBook @i_id = @i_id , @x = @x"},
		{"EXEC getBook @__p0, @y = @__p1", "EXEC getBook @__p0 , @y = @__p1"},
	} {
		key, args, ok := n.Normalize(c.src)
		if !ok || string(key) != c.key || len(args) != 0 {
			t.Errorf("Normalize(%q) = %q, %d args, ok=%v; want %q, 0 args", c.src, key, len(args), ok, c.key)
		}
		if again, _, _ := n.Normalize(string(key)); string(again) != c.key {
			t.Errorf("key %q is not a fixed point: %q", c.key, again)
		}
		if avg := testing.AllocsPerRun(200, func() { n.Normalize(c.src) }); avg != 0 {
			t.Errorf("Normalize(%q): %.1f allocs/op, want 0", c.src, avg)
		}
	}
}

// Property: the normalized key is itself parseable SQL, and substituting the
// extracted literals back into the parsed key yields a statement identical
// (by deparse) to parsing the original text. This is the correctness
// contract the engine relies on: executing the cached shape with @__pN bound
// to args IS executing the original query.
func TestNormalizeKeyParsesAndSubstitutesBack(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 400; i++ {
		src := randomSelect(r)
		switch i % 4 {
		case 2:
			src, _ = randomWrite(r)
		case 3:
			src = randomExec(r)
		}
		var n Normalizer
		key, args, ok := n.Normalize(src)
		if !ok {
			t.Fatalf("Normalize(%q) not ok", src)
		}
		orig, err := Parse(src)
		if err != nil {
			t.Fatalf("original does not parse: %v\n%s", err, src)
		}
		shaped, err := Parse(string(key))
		if err != nil {
			t.Fatalf("key does not parse: %v\nsrc: %s\nkey: %s", err, src, key)
		}
		restored := substAutoParams(t, shaped, args)
		if got, want := Deparse(restored), Deparse(orig); got != want {
			t.Fatalf("substitution mismatch\nsrc:  %s\nkey:  %s\ngot:  %s\nwant: %s", src, key, got, want)
		}
	}
}

// Property: two texts normalize to the same key iff they have the same shape
// — identical canonical statements modulo literal values.
func TestNormalizeKeysEqualIffShapesEqual(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		src, more := randomSelect(r), " AND zz9 = 1"
		if i%2 == 1 {
			src, more = randomWrite(r)
		}
		key1, _ := normalize(t, src)
		// Same shape, different literal spellings/whitespace: same key.
		variant := relitter(r, src)
		key2, _ := normalize(t, variant)
		if key1 != key2 {
			t.Fatalf("same shape, different keys\nsrc: %s\nvar: %s\nk1: %s\nk2: %s", src, variant, key1, key2)
		}
		// Different shape (one extra predicate or row): different key.
		other := src + more
		key3, _ := normalize(t, other)
		if key1 == key3 {
			t.Fatalf("different shapes share a key: %s", key1)
		}
	}
}

// TestNormalizeZeroAlloc is the allocation regression gate for cache-hit key
// computation: after warm-up a Normalize pass performs zero allocations.
func TestNormalizeZeroAlloc(t *testing.T) {
	queries := []string{
		"SELECT i_title, i_cost FROM item WHERE i_id = 424242",
		"SELECT name FROM part WHERE type = 'Tire' AND qty > 10 ORDER BY name",
		"SELECT TOP 50 i_id, COUNT(*) AS cnt FROM order_line GROUP BY i_id ORDER BY cnt DESC",
		"EXEC doSubjectSearch @subject = 'ARTS', @n = -50",
		"UPDATE item SET i_stock = 7 WHERE i_id = 1417",
	}
	var n Normalizer
	for _, q := range queries {
		n.Normalize(q) // warm the buffers
		if avg := testing.AllocsPerRun(200, func() {
			if _, _, ok := n.Normalize(q); !ok {
				t.Fatal("not ok")
			}
		}); avg != 0 {
			t.Errorf("Normalize(%q): %.1f allocs/op, want 0", q, avg)
		}
	}
}

func TestAutoParamNameIndexRoundTrip(t *testing.T) {
	for _, i := range []int{0, 1, 9, 63, 64, 1000} {
		name := AutoParamName(i)
		got, ok := AutoParamIndex(name)
		if !ok || got != i {
			t.Fatalf("AutoParamIndex(AutoParamName(%d)) = %d, %v", i, got, ok)
		}
	}
	for _, name := range []string{"id", "__p", "__px", "__p1x", "p0", ""} {
		if _, ok := AutoParamIndex(name); ok {
			t.Fatalf("AutoParamIndex(%q) ok, want false", name)
		}
	}
}

// randomSelect builds a parseable SELECT with randomized literals,
// whitespace and keyword case.
func randomSelect(r *rand.Rand) string {
	var b strings.Builder
	kw := func(w string) string {
		if r.Intn(2) == 0 {
			return strings.ToLower(w)
		}
		return w
	}
	b.WriteString(kw("SELECT"))
	b.WriteString(" a, b + ")
	fmt.Fprintf(&b, "%d", r.Intn(1000))
	b.WriteString("  ")
	b.WriteString(kw("FROM"))
	b.WriteString(" t ")
	b.WriteString(kw("WHERE"))
	fmt.Fprintf(&b, " c = '%s'", randomIdent(r))
	if r.Intn(2) == 0 {
		fmt.Fprintf(&b, " AND d > %d.%d", r.Intn(100), r.Intn(100))
	}
	if r.Intn(2) == 0 {
		fmt.Fprintf(&b, " AND e IN (%d, %d)", r.Intn(10), r.Intn(10))
	}
	if r.Intn(3) == 0 {
		b.WriteString(" ORDER BY a")
	}
	return b.String()
}

// randomWrite builds a parseable INSERT, UPDATE or DELETE with randomized
// literals — signed numbers among them — keyword case and target spelling,
// and returns with it a suffix that makes it another shape: one more row, or
// one more predicate. An INSERT has a column list or none, and one or more
// VALUES rows or a SELECT; a WHERE mixes =, IN, LIKE and BETWEEN.
func randomWrite(r *rand.Rand) (src, more string) {
	var b strings.Builder
	kw := func(w string) string {
		if r.Intn(2) == 0 {
			return strings.ToLower(w)
		}
		return w
	}
	value := func() string {
		switch r.Intn(6) {
		case 0:
			return fmt.Sprintf("-%d", r.Intn(1000))
		case 1:
			return fmt.Sprintf("'%s'", randomIdent(r))
		case 2:
			return fmt.Sprintf("- %d.%d", r.Intn(100), r.Intn(100))
		case 3:
			return fmt.Sprintf("upper('%s')", randomIdent(r))
		case 4:
			return "NULL"
		}
		return fmt.Sprintf("%d", r.Intn(1000))
	}
	where := func() {
		b.WriteString(" " + kw("WHERE"))
		fmt.Fprintf(&b, " id = %d", r.Intn(1000))
		if r.Intn(2) == 0 {
			fmt.Fprintf(&b, " %s c %s '%s%%'", kw("AND"), kw("LIKE"), randomIdent(r))
		}
		if r.Intn(2) == 0 {
			fmt.Fprintf(&b, " %s d %s %d %s %d", kw("AND"), kw("BETWEEN"), r.Intn(10), kw("AND"), 10+r.Intn(10))
		}
		if r.Intn(2) == 0 {
			fmt.Fprintf(&b, " %s e %s (%d, %s)", kw("AND"), kw("IN"), r.Intn(10), value())
		}
	}
	target := []string{"t", "Item", "dbo.Item", "[order line]"}[r.Intn(4)]
	switch r.Intn(3) {
	case 0:
		fmt.Fprintf(&b, "%s %s %s", kw("INSERT"), kw("INTO"), target)
		if r.Intn(2) == 0 {
			b.WriteString(" (a, b, c)")
		}
		if r.Intn(3) == 0 {
			fmt.Fprintf(&b, " %s a, b + %d, c %s s", kw("SELECT"), r.Intn(100), kw("FROM"))
			where()
			return b.String(), " AND zz9 = 1"
		}
		b.WriteString(" " + kw("VALUES"))
		for i, n := 0, 1+r.Intn(3); i < n; i++ {
			if i > 0 {
				b.WriteString(",")
			}
			fmt.Fprintf(&b, " (%s, %s, %s)", value(), value(), value())
		}
		return b.String(), ", (1, 2, 3)"
	case 1:
		fmt.Fprintf(&b, "%s %s %s a = %s", kw("UPDATE"), target, kw("SET"), value())
		if r.Intn(2) == 0 {
			fmt.Fprintf(&b, ", b = b - %d", r.Intn(100))
		}
	default:
		b.WriteString(kw("DELETE"))
		if r.Intn(2) == 0 {
			b.WriteString(" " + kw("FROM"))
		}
		b.WriteString(" " + target)
	}
	where()
	return b.String(), " AND zz9 = 1"
}

// randomExec builds a parseable EXEC whose arguments are literals — signed
// numbers, strings, NULL — and parameters, positional and named, with
// randomized keyword case.
func randomExec(r *rand.Rand) string {
	var b strings.Builder
	b.WriteString([]string{"EXEC", "exec", "Execute"}[r.Intn(3)])
	b.WriteString(" getItem")
	for i, n := 0, r.Intn(5); i < n; i++ {
		if i > 0 {
			b.WriteString(",")
		}
		b.WriteString(" ")
		if r.Intn(2) == 0 {
			fmt.Fprintf(&b, "@a%d = ", i)
		}
		switch r.Intn(6) {
		case 0:
			fmt.Fprintf(&b, "%d", r.Intn(1000))
		case 1:
			fmt.Fprintf(&b, "-%d", r.Intn(1000))
		case 2:
			fmt.Fprintf(&b, "- %d.%d", r.Intn(100), r.Intn(100))
		case 3:
			fmt.Fprintf(&b, "'%s''s'", randomIdent(r))
		case 4:
			b.WriteString("NULL")
		default:
			fmt.Fprintf(&b, "@v%d", i)
		}
	}
	return b.String()
}

// relitter rewrites src with different literal values, random keyword case
// and extra whitespace/comments — a shape-preserving transformation.
func relitter(r *rand.Rand, src string) string {
	var n Normalizer
	key, args, ok := n.Normalize(src)
	if !ok {
		panic("relitter: not normalizable: " + src)
	}
	out := string(key)
	// Replace each placeholder with a fresh literal of the same kind.
	for i := len(args) - 1; i >= 0; i-- {
		var lit string
		switch args[i].K {
		case types.KindString:
			lit = "'" + randomIdent(r) + "'"
		case types.KindFloat:
			lit = fmt.Sprintf("%d.%02d", r.Intn(500), r.Intn(100))
		default:
			lit = fmt.Sprintf("%d", r.Intn(100000))
		}
		out = strings.Replace(out, "@"+AutoParamName(i), lit, 1)
	}
	out = strings.ReplaceAll(out, " WHERE ", " /* hint */ where\n\t")
	return out
}

// substAutoParams replaces every @__pN parameter in the statement — a SELECT,
// an EXEC, an INSERT, an UPDATE or a DELETE — with the corresponding literal
// from args (test helper for the substitution property).
func substAutoParams(t *testing.T, stmt Statement, args []types.Value) Statement {
	t.Helper()
	var rewrite func(e Expr) Expr
	rewrite = func(e Expr) Expr {
		switch x := e.(type) {
		case nil:
			return nil
		case *Param:
			// With nothing extracted, any @__pN is the source's own spelling.
			if i, ok := AutoParamIndex(x.Name); ok && len(args) > 0 {
				if i >= len(args) {
					t.Fatalf("param %s out of range (%d args)", x.Name, len(args))
				}
				return &Literal{Val: args[i]}
			}
			return x
		case *BinaryExpr:
			return &BinaryExpr{Op: x.Op, L: rewrite(x.L), R: rewrite(x.R)}
		case *UnaryExpr:
			in := rewrite(x.X)
			// Mirror the parser's -literal folding: the original text parses
			// "-5" straight to a negative literal, while the key keeps the
			// negation around the parameter.
			if lit, isLit := in.(*Literal); isLit && x.Op == OpNeg {
				switch lit.Val.K {
				case types.KindInt:
					return &Literal{Val: types.NewInt(-lit.Val.Int())}
				case types.KindFloat:
					return &Literal{Val: types.NewFloat(-lit.Val.Float())}
				}
			}
			return &UnaryExpr{Op: x.Op, X: in}
		case *LikeExpr:
			return &LikeExpr{X: rewrite(x.X), Pattern: rewrite(x.Pattern), Not: x.Not}
		case *InExpr:
			out := &InExpr{X: rewrite(x.X), Not: x.Not}
			for _, a := range x.List {
				out.List = append(out.List, rewrite(a))
			}
			return out
		case *BetweenExpr:
			return &BetweenExpr{X: rewrite(x.X), Lo: rewrite(x.Lo), Hi: rewrite(x.Hi), Not: x.Not}
		case *IsNullExpr:
			return &IsNullExpr{X: rewrite(x.X), Not: x.Not}
		case *CaseExpr:
			out := &CaseExpr{Else: rewrite(x.Else)}
			for _, w := range x.Whens {
				out.Whens = append(out.Whens, CaseWhen{Cond: rewrite(w.Cond), Then: rewrite(w.Then)})
			}
			return out
		case *FuncCall:
			out := &FuncCall{Name: x.Name, Star: x.Star, Distinct: x.Distinct}
			for _, a := range x.Args {
				out.Args = append(out.Args, rewrite(a))
			}
			return out
		}
		return e
	}
	rewriteSelect := func(sel *SelectStmt) *SelectStmt {
		if sel == nil {
			return nil
		}
		out := &SelectStmt{
			Top:       rewrite(sel.Top),
			Distinct:  sel.Distinct,
			From:      sel.From,
			Where:     rewrite(sel.Where),
			Having:    rewrite(sel.Having),
			Freshness: rewrite(sel.Freshness),
		}
		for _, c := range sel.Columns {
			c.Expr = rewrite(c.Expr)
			out.Columns = append(out.Columns, c)
		}
		for _, g := range sel.GroupBy {
			out.GroupBy = append(out.GroupBy, rewrite(g))
		}
		for _, o := range sel.OrderBy {
			o.Expr = rewrite(o.Expr)
			out.OrderBy = append(out.OrderBy, o)
		}
		return out
	}
	switch x := stmt.(type) {
	case *ExecStmt:
		out := &ExecStmt{Proc: x.Proc}
		for _, a := range x.Args {
			out.Args = append(out.Args, ExecArg{Name: a.Name, Expr: rewrite(a.Expr)})
		}
		return out
	case *InsertStmt:
		out := &InsertStmt{Table: x.Table, Columns: x.Columns, Select: rewriteSelect(x.Select)}
		for _, row := range x.Rows {
			var vals []Expr
			for _, e := range row {
				vals = append(vals, rewrite(e))
			}
			out.Rows = append(out.Rows, vals)
		}
		return out
	case *UpdateStmt:
		out := &UpdateStmt{Table: x.Table, Where: rewrite(x.Where)}
		for _, a := range x.Set {
			out.Set = append(out.Set, Assignment{Column: a.Column, Expr: rewrite(a.Expr)})
		}
		return out
	case *DeleteStmt:
		return &DeleteStmt{Table: x.Table, Where: rewrite(x.Where)}
	}
	return rewriteSelect(stmt.(*SelectStmt))
}

// FuzzNormalize checks the normalizer's contract against the parser on
// arbitrary input: it must never panic, and whenever it accepts an input
// that the parser also accepts, the key must parse — to the text's own
// statement kind: a SELECT, an EXEC, an INSERT, an UPDATE or a DELETE — and
// substituting the literals back must reproduce the original statement.
func FuzzNormalize(f *testing.F) {
	seeds := []string{
		"SELECT i_title FROM item WHERE i_id = 42",
		"select name from part where type='Tire' and qty > 10",
		"SELECT * FROM t WHERE name = 'O''Brien' -- c",
		"SELECT TOP 5 a FROM t WHERE b IN (1, 2, 3) ORDER BY a DESC",
		"SELECT a FROM t WHERE b = @id",
		"SELECT CASE WHEN a > 0 THEN 'pos' ELSE 'neg' END FROM t",
		"SELECT 1.5e3 FROM t WHERE x BETWEEN 1 AND 2",
		"SELECT [a b] FROM t",
		"SELECT 'unterminated",
		"",
		"SELECT a FROM t WHERE b = @__p0 AND c < @__p1",
		"SELECT a FROM t WHERE b = @__p0 AND c < 5",
		"EXEC getBook @i_id = 42",
		"EXEC getBook @i_id = @i_id, @x = @x",
		"exec p -5, @x = -1.5, NULL, 'it''s', (-2)",
		"EXEC p - -5",
		"EXEC p 1 - 2, f(-3)",
		"INSERT INTO item (i_id, i_title) VALUES (7, 'x'), (-8, upper('y'))",
		"insert dbo.Item(a) select abs(b) from t where c = 'z'",
		"UPDATE item SET i_stock = 7 WHERE i_id = 1417",
		"update t set a = -1.5, b = b + 2 where c in (1, 2) and d like 'x%' and e between 1 and 9",
		"DELETE FROM t WHERE a = @__p0",
		"DELETE t WHERE a = 'q' OR b IS NULL",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		var n Normalizer
		key, args, ok := n.Normalize(input)
		if !ok {
			return
		}
		orig, origErr := Parse(input)
		shaped, keyErr := Parse(string(key))
		if origErr != nil {
			// The normalizer is purely lexical: it may accept token streams
			// the grammar rejects. Then the key must be rejected too.
			if keyErr == nil {
				t.Fatalf("original rejected (%v) but key parses\nsrc: %q\nkey: %q", origErr, input, key)
			}
			return
		}
		if keyErr != nil {
			t.Fatalf("original parses but key does not: %v\nsrc: %q\nkey: %q", keyErr, input, key)
		}
		switch orig.(type) {
		case *SelectStmt, *ExecStmt, *InsertStmt, *UpdateStmt, *DeleteStmt:
		default:
			t.Fatalf("normalizer accepted a %T: %q", orig, input)
		}
		if fmt.Sprintf("%T", shaped) != fmt.Sprintf("%T", orig) {
			t.Fatalf("key parsed to a %T, the text to a %T: %q -> %q", shaped, orig, input, key)
		}
		restored := substAutoParams(t, shaped, args)
		if got, want := Deparse(restored), Deparse(orig); got != want {
			t.Fatalf("substitution mismatch\nsrc:  %q\nkey:  %q\ngot:  %q\nwant: %q", input, key, got, want)
		}
	})
}

// TestOneTokenizer pins the token rules the parser's lexer and the normalizer
// share, on the edge cases each used to spell out for itself: what the lexer
// makes of a text (kind:text@offset per token, or its error) and what the
// normalizer makes of the same text (key and literals, or a refusal). Where
// both accept, the key must lex to the text's own tokens with each literal
// replaced by its parameter.
func TestOneTokenizer(t *testing.T) {
	str, num, i := types.NewString, types.NewFloat, types.NewInt
	cases := []struct {
		src  string
		toks string // lexer tokens, or "error: ..." for a lex error
		key  string // normalized key, "" when the normalizer refuses
		args []types.Value
	}{
		{"SELECT 'it''s', ''''", "K:SELECT@0 S:it's@7 O:,@14 S:'@16", "SELECT @__p0 , @__p1", []types.Value{str("it's"), str("'")}},
		{"SELECT '', 'a' 'b'", "K:SELECT@0 S:@7 O:,@9 S:a@11 S:b@15", "SELECT @__p0 , @__p1 @__p2", []types.Value{str(""), str("a"), str("b")}},
		{"SELECT .5, 5., 1.2.3", "K:SELECT@0 N:.5@7 O:,@9 N:5.@11 O:,@13 N:1.2@15 N:.3@18", "SELECT @__p0 , @__p1 , @__p2 @__p3", []types.Value{num(.5), num(5), num(1.2), num(.3)}},
		{"SELECT 1e-5, 2E+3, 4e2, 7e, 8e-", "K:SELECT@0 N:1e-5@7 O:,@11 N:2E+3@13 O:,@17 N:4e2@19 O:,@22 N:7@24 I:e@25 O:,@26 N:8e-@28", "", nil},
		{"SELECT 7e, 1 . 2", "K:SELECT@0 N:7@7 I:e@8 O:,@9 N:1@11 O:.@13 N:2@15", "SELECT @__p0 e , @__p1 . @__p2", []types.Value{i(7), i(1), i(2)}},
		{"SELECT a -- to the end", "K:SELECT@0 I:a@7", "SELECT a", nil},
		{"SELECT a--x\n- -1 --", "K:SELECT@0 I:a@7 O:-@12 O:-@14 N:1@15", "SELECT a - - @__p0", []types.Value{i(1)}},
		{"SELECT a /* never closed", "K:SELECT@0 I:a@7", "SELECT a", nil},
		{"/**/SELECT/* */a/ *b", "K:SELECT@4 I:a@15 O:/@16 O:*@18 I:b@19", "SELECT a / * b", nil},
		{"SELECT a != b == c <> d <= e >= f < = g", "K:SELECT@0 I:a@7 O:<>@9 I:b@12 O:=@14 I:c@17 O:<>@19 I:d@22 O:<=@24 I:e@27 O:>=@29 I:f@32 O:<@34 O:=@36 I:g@38", "SELECT a <> b = c <> d <= e >= f < = g", nil},
		{"SELECT [a b], [], [select] FROM [t]", "K:SELECT@0 I:a b@7 O:,@12 I:@14 O:,@16 I:select@18 K:FROM@27 I:t@32", "SELECT [a b] , [] , [select] FROM [t]", nil},
		{"SELECT @a, @_1$#", "K:SELECT@0 P:a@7 O:,@9 P:_1$#@11", "SELECT @a , @_1$#", nil},
		{"select SeLeCt #t, _x$", "K:SELECT@0 K:SELECT@7 I:#t@14 O:,@16 I:_x$@18", "SELECT SELECT #t , _x$", nil},
		// Case folding is ASCII-only: a byte ≥ 0x80 an identifier carries —
		// here ones that are not even UTF-8 — stays as written through the
		// keyword lookup and in the key.
		{"select a\xe2, \xb5m", "K:SELECT@0 I:a\xe2@7 O:,@9 I:\xb5m@11", "SELECT a\xe2 , \xb5m", nil},
		{"SELECT @", "error: lex: lone @ at offset 7", "", nil},
		{"SELECT @ a", "error: lex: lone @ at offset 7", "", nil},
		{"SELECT 'never closed''", "error: lex: unterminated string at offset 7", "", nil},
		{"SELECT [never closed", "error: lex: unterminated [identifier at offset 7", "", nil},
		{"SELECT a ! b", "error: lex: unexpected character '!' at offset 9", "", nil},
		{"SELECT a ] b", "error: lex: unexpected character ']' at offset 9", "", nil},
	}
	render := func(toks []token) string {
		var parts []string
		for _, tok := range toks[:len(toks)-1] { // all but EOF
			parts = append(parts, fmt.Sprintf("%c:%s@%d", "EIKNSPO"[tok.kind], tok.text, tok.pos))
		}
		return strings.Join(parts, " ")
	}
	for _, c := range cases {
		toks, err := lex(c.src)
		got := ""
		if err != nil {
			got = "error: " + err.Error()
		} else {
			got = render(toks)
		}
		if got != c.toks {
			t.Errorf("lex(%q)\n got %s\nwant %s", c.src, got, c.toks)
		}
		var n Normalizer
		key, args, ok := n.Normalize(c.src)
		if string(key) != c.key || ok != (c.key != "") {
			t.Errorf("Normalize(%q) = %q, %v; want %q", c.src, key, ok, c.key)
			continue
		}
		if len(args) != len(c.args) {
			t.Errorf("Normalize(%q) literals %v, want %v", c.src, args, c.args)
			continue
		}
		for k := range args {
			if !types.Identical(args[k], c.args[k]) {
				t.Errorf("Normalize(%q) literal %d = %v (%v), want %v (%v)", c.src, k, args[k], args[k].K, c.args[k], c.args[k].K)
			}
		}
		if !ok || err != nil {
			continue
		}
		keyToks, err := lex(string(key))
		if err != nil {
			t.Errorf("key %q of %q does not lex: %v", key, c.src, err)
			continue
		}
		lit := 0
		for k, tok := range toks {
			want := tok
			if tok.kind == tokNumber || tok.kind == tokString {
				want = token{kind: tokParam, text: AutoParamName(lit)}
				lit++
			}
			if k >= len(keyToks) || keyToks[k].kind != want.kind || keyToks[k].text != want.text {
				t.Errorf("key %q of %q: token %d differs from the text's", key, c.src, k)
				break
			}
		}
	}
}
