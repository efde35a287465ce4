package exec

import (
	"strings"
	"testing"

	"mtcache/internal/catalog"
	"mtcache/internal/sql"
	"mtcache/internal/storage"
	"mtcache/internal/types"
)

// newTestStore builds a store with table nums(a INT PRIMARY KEY, b VARCHAR)
// holding n rows (i, name_i%5).
func newTestStore(t *testing.T, n int64) *storage.Store {
	t.Helper()
	s := storage.NewStore()
	meta := &catalog.Table{
		Name: "nums",
		Columns: []catalog.Column{
			{Name: "a", Type: types.KindInt},
			{Name: "b", Type: types.KindString},
		},
		PrimaryKey: []int{0},
	}
	if err := s.CreateTable(meta); err != nil {
		t.Fatal(err)
	}
	tx := s.Begin(true)
	names := []string{"red", "green", "blue", "cyan", "teal"}
	for i := int64(0); i < n; i++ {
		if _, err := tx.Insert("nums", types.Row{types.NewInt(i), types.NewString(names[i%5])}); err != nil {
			t.Fatal(err)
		}
	}
	tx.Commit()
	return s
}

func numsCols() []ColInfo {
	return []ColInfo{{Table: "nums", Name: "a", Kind: types.KindInt}, {Table: "nums", Name: "b", Kind: types.KindString}}
}

func runOp(t *testing.T, s *storage.Store, op Operator, params Params) *ResultSet {
	t.Helper()
	tx := s.Begin(false)
	defer tx.Abort()
	ctx := &Ctx{Params: params, Txn: tx, Counters: &Counters{}}
	rs, err := Run(op, ctx)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func TestScanAll(t *testing.T) {
	s := newTestStore(t, 10)
	rs := runOp(t, s, &Scan{TableName: "nums", Cols: numsCols()}, nil)
	if len(rs.Rows) != 10 {
		t.Fatalf("rows %d", len(rs.Rows))
	}
}

func TestFilterPredicate(t *testing.T) {
	s := newTestStore(t, 100)
	op := &Filter{
		Input: &Scan{TableName: "nums", Cols: numsCols()},
		Pred:  &BinExpr{Op: sql.OpLT, L: &ColExpr{I: 0}, R: &ConstExpr{V: types.NewInt(10)}},
	}
	rs := runOp(t, s, op, nil)
	if len(rs.Rows) != 10 {
		t.Fatalf("rows %d", len(rs.Rows))
	}
}

func TestIndexScanRange(t *testing.T) {
	s := newTestStore(t, 100)
	op := &IndexScan{
		TableName: "nums", IndexName: "__pk", Cols: numsCols(),
		Lo: []Expr{&ConstExpr{V: types.NewInt(20)}},
		Hi: []Expr{&ConstExpr{V: types.NewInt(29)}},
	}
	tx := s.Begin(false)
	defer tx.Abort()
	ctr := &Counters{}
	rs, err := Run(op, &Ctx{Txn: tx, Counters: ctr})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 10 {
		t.Fatalf("rows %d", len(rs.Rows))
	}
	if ctr.RowsScanned != 10 {
		t.Errorf("index scan touched %d rows, want 10", ctr.RowsScanned)
	}
}

func TestIndexScanParameterizedBound(t *testing.T) {
	s := newTestStore(t, 100)
	op := &IndexScan{
		TableName: "nums", IndexName: "__pk", Cols: numsCols(),
		Lo: []Expr{&ParamExpr{Name: "k"}},
		Hi: []Expr{&ParamExpr{Name: "k"}},
	}
	rs := runOp(t, s, op, Params{"k": types.NewInt(42)})
	if len(rs.Rows) != 1 || rs.Rows[0][0].Int() != 42 {
		t.Fatalf("param seek: %v", rs.Rows)
	}
}

func TestProjectComputes(t *testing.T) {
	s := newTestStore(t, 3)
	op := &Project{
		Input: &Scan{TableName: "nums", Cols: numsCols()},
		Exprs: []Expr{&BinExpr{Op: sql.OpMul, L: &ColExpr{I: 0}, R: &ConstExpr{V: types.NewInt(2)}}},
		Cols:  []ColInfo{{Name: "a2", Kind: types.KindInt}},
	}
	rs := runOp(t, s, op, nil)
	if rs.Rows[2][0].Int() != 4 {
		t.Fatalf("projection: %v", rs.Rows)
	}
}

func TestLimitAndSort(t *testing.T) {
	s := newTestStore(t, 50)
	op := &Limit{
		N: &ConstExpr{V: types.NewInt(3)},
		Input: &Sort{
			Input: &Scan{TableName: "nums", Cols: numsCols()},
			Keys:  []SortKey{{E: &ColExpr{I: 0}, Desc: true}},
		},
	}
	rs := runOp(t, s, op, nil)
	if len(rs.Rows) != 3 || rs.Rows[0][0].Int() != 49 || rs.Rows[2][0].Int() != 47 {
		t.Fatalf("top-3 desc: %v", rs.Rows)
	}
}

func TestSortMultiKeyStable(t *testing.T) {
	s := newTestStore(t, 10)
	op := &Sort{
		Input: &Scan{TableName: "nums", Cols: numsCols()},
		Keys:  []SortKey{{E: &ColExpr{I: 1}}, {E: &ColExpr{I: 0}, Desc: true}},
	}
	rs := runOp(t, s, op, nil)
	// first group is "blue" (b sorted asc), within it a desc
	if rs.Rows[0][1].Str() != "blue" || rs.Rows[0][0].Int() != 7 {
		t.Fatalf("multi-key sort: %v", rs.Rows[0])
	}
}

func TestHashJoinInner(t *testing.T) {
	s := newTestStore(t, 10)
	// self join on a = a
	op := &HashJoin{
		Left:      &Scan{TableName: "nums", Cols: numsCols()},
		Right:     &Scan{TableName: "nums", Cols: numsCols()},
		LeftKeys:  []Expr{&ColExpr{I: 0}},
		RightKeys: []Expr{&ColExpr{I: 0}},
	}
	rs := runOp(t, s, op, nil)
	if len(rs.Rows) != 10 {
		t.Fatalf("join rows %d", len(rs.Rows))
	}
	if len(rs.Rows[0]) != 4 {
		t.Fatalf("join width %d", len(rs.Rows[0]))
	}
}

func TestHashJoinLeftOuter(t *testing.T) {
	s := newTestStore(t, 10)
	// join a with a+100: no matches, all left rows padded
	op := &HashJoin{
		Left:      &Scan{TableName: "nums", Cols: numsCols()},
		Right:     &Scan{TableName: "nums", Cols: numsCols()},
		LeftKeys:  []Expr{&ColExpr{I: 0}},
		RightKeys: []Expr{&BinExpr{Op: sql.OpAdd, L: &ColExpr{I: 0}, R: &ConstExpr{V: types.NewInt(100)}}},
		LeftOuter: true,
	}
	rs := runOp(t, s, op, nil)
	if len(rs.Rows) != 10 {
		t.Fatalf("left join rows %d", len(rs.Rows))
	}
	if !rs.Rows[0][2].IsNull() || !rs.Rows[0][3].IsNull() {
		t.Fatal("unmatched right side should be NULL")
	}
}

func TestNestedLoopThetaJoin(t *testing.T) {
	s := newTestStore(t, 5)
	op := &NestedLoop{
		Left:  &Scan{TableName: "nums", Cols: numsCols()},
		Right: &Scan{TableName: "nums", Cols: numsCols()},
		Pred:  &BinExpr{Op: sql.OpLT, L: &ColExpr{I: 0}, R: &ColExpr{I: 2}},
	}
	rs := runOp(t, s, op, nil)
	// pairs (i,j) with i<j among 5 rows = 10
	if len(rs.Rows) != 10 {
		t.Fatalf("theta join rows %d", len(rs.Rows))
	}
}

func TestHashAggGrouped(t *testing.T) {
	s := newTestStore(t, 50)
	op := &HashAgg{
		Input:   &Scan{TableName: "nums", Cols: numsCols()},
		GroupBy: []Expr{&ColExpr{I: 1}},
		Aggs: []AggSpec{
			{Func: AggCountStar},
			{Func: AggSum, Arg: &ColExpr{I: 0}},
			{Func: AggMin, Arg: &ColExpr{I: 0}},
			{Func: AggMax, Arg: &ColExpr{I: 0}},
		},
		Cols: make([]ColInfo, 5),
	}
	rs := runOp(t, s, op, nil)
	if len(rs.Rows) != 5 {
		t.Fatalf("groups %d", len(rs.Rows))
	}
	for _, row := range rs.Rows {
		if row[1].Int() != 10 {
			t.Errorf("group %v count %d", row[0], row[1].Int())
		}
	}
}

func TestHashAggGlobalEmptyInput(t *testing.T) {
	s := newTestStore(t, 0)
	op := &HashAgg{
		Input: &Scan{TableName: "nums", Cols: numsCols()},
		Aggs:  []AggSpec{{Func: AggCountStar}, {Func: AggSum, Arg: &ColExpr{I: 0}}},
		Cols:  make([]ColInfo, 2),
	}
	rs := runOp(t, s, op, nil)
	if len(rs.Rows) != 1 {
		t.Fatalf("global agg over empty input must yield one row, got %d", len(rs.Rows))
	}
	if rs.Rows[0][0].Int() != 0 || !rs.Rows[0][1].IsNull() {
		t.Fatalf("COUNT=0, SUM=NULL expected: %v", rs.Rows[0])
	}
}

func TestAggDistinct(t *testing.T) {
	s := newTestStore(t, 50)
	op := &HashAgg{
		Input: &Scan{TableName: "nums", Cols: numsCols()},
		Aggs:  []AggSpec{{Func: AggCount, Arg: &ColExpr{I: 1}, Distinct: true}},
		Cols:  make([]ColInfo, 1),
	}
	rs := runOp(t, s, op, nil)
	if rs.Rows[0][0].Int() != 5 {
		t.Fatalf("count distinct: %v", rs.Rows[0])
	}
}

func TestStartupFilterPrunesInput(t *testing.T) {
	s := newTestStore(t, 10)
	ctr := &Counters{}
	tx := s.Begin(false)
	defer tx.Abort()
	// guard: @k <= 5 — false for k=7, so the scan must never open
	op := &StartupFilter{
		Guard: &BinExpr{Op: sql.OpLE, L: &ParamExpr{Name: "k"}, R: &ConstExpr{V: types.NewInt(5)}},
		Input: &Scan{TableName: "nums", Cols: numsCols()},
	}
	rs, err := Run(op, &Ctx{Txn: tx, Params: Params{"k": types.NewInt(7)}, Counters: ctr})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 0 {
		t.Fatal("pruned branch produced rows")
	}
	if ctr.StartupPruned != 1 {
		t.Error("startup prune not counted")
	}
	if ctr.RowsScanned != 0 {
		t.Error("pruned input was scanned")
	}
}

func TestChoosePlanShape(t *testing.T) {
	// UnionAll of two StartupFilters with complementary guards: exactly one
	// branch runs (paper figure 2b).
	s := newTestStore(t, 10)
	guard := &BinExpr{Op: sql.OpLE, L: &ParamExpr{Name: "k"}, R: &ConstExpr{V: types.NewInt(5)}}
	notGuard := &NotExpr{X: guard}
	local := &StartupFilter{Guard: guard, Input: &Scan{TableName: "nums", Cols: numsCols()}}
	remoteStub := &StartupFilter{Guard: notGuard, Input: &Values{
		Cols: numsCols(),
		Rows: [][]Expr{{&ConstExpr{V: types.NewInt(-1)}, &ConstExpr{V: types.NewString("remote")}}},
	}}
	op := &UnionAll{Inputs: []Operator{local, remoteStub}}

	rs := runOp(t, s, op, Params{"k": types.NewInt(3)})
	if len(rs.Rows) != 10 {
		t.Fatalf("local branch: %d rows", len(rs.Rows))
	}
	rs = runOp(t, s, op, Params{"k": types.NewInt(9)})
	if len(rs.Rows) != 1 || rs.Rows[0][1].Str() != "remote" {
		t.Fatalf("remote branch: %v", rs.Rows)
	}
}

type fakeRemote struct {
	queries []string
	result  *ResultSet
}

func (f *fakeRemote) Query(sqlText string, _ Params) (*ResultSet, error) {
	f.queries = append(f.queries, sqlText)
	return f.result, nil
}

func (f *fakeRemote) Exec(string, Params) (int64, error) { return 0, nil }

func TestRemoteOperator(t *testing.T) {
	s := newTestStore(t, 0)
	fr := &fakeRemote{result: &ResultSet{
		Cols: numsCols(),
		Rows: []types.Row{{types.NewInt(1), types.NewString("x")}},
	}}
	tx := s.Begin(false)
	defer tx.Abort()
	ctr := &Counters{}
	op := &Remote{SQLText: "SELECT a, b FROM nums", Cols: numsCols()}
	rs, err := Run(op, &Ctx{Txn: tx, Remote: fr, Counters: ctr})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 || fr.queries[0] != "SELECT a, b FROM nums" {
		t.Fatalf("remote round trip: %v / %v", rs.Rows, fr.queries)
	}
	if ctr.RemoteQueries != 1 || ctr.RowsRemote != 1 {
		t.Error("remote counters")
	}
}

func TestRemoteWithoutClientFails(t *testing.T) {
	s := newTestStore(t, 0)
	tx := s.Begin(false)
	defer tx.Abort()
	op := &Remote{SQLText: "SELECT 1"}
	if _, err := Run(op, &Ctx{Txn: tx}); err == nil {
		t.Fatal("remote without client should fail")
	}
}

func TestDistinct(t *testing.T) {
	s := newTestStore(t, 50)
	op := &Distinct{Input: &Project{
		Input: &Scan{TableName: "nums", Cols: numsCols()},
		Exprs: []Expr{&ColExpr{I: 1}},
		Cols:  []ColInfo{{Name: "b", Kind: types.KindString}},
	}}
	rs := runOp(t, s, op, nil)
	if len(rs.Rows) != 5 {
		t.Fatalf("distinct rows %d", len(rs.Rows))
	}
}

func TestLikeMatching(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%llo", true},
		{"hello", "h_llo", true},
		{"hello", "h_go", false},
		{"hello", "%", true},
		{"", "%", true},
		{"", "_", false},
		{"abc", "%b%", true},
		{"SQL Server", "%sql%", true}, // case-insensitive
		{"aXb", "a%c", false},
	}
	for _, c := range cases {
		if got := likeMatch(c.s, c.p); got != c.want {
			t.Errorf("likeMatch(%q,%q)=%v want %v", c.s, c.p, got, c.want)
		}
	}
}

// likeRef is the matcher likeFold replaced, kept as the reference: recursion
// once per % per position over lower-cased strings.
func likeRef(s, p string) bool {
	for len(p) > 0 {
		switch p[0] {
		case '%':
			for i := 0; i <= len(s); i++ {
				if likeRef(s[i:], p[1:]) {
					return true
				}
			}
			return false
		case '_':
			if len(s) == 0 {
				return false
			}
		default:
			if len(s) == 0 || s[0] != p[0] {
				return false
			}
		}
		s, p = s[1:], p[1:]
	}
	return len(s) == 0
}

// TestLikeAgainstReference: the iterative matcher agrees with the recursive
// one on every short string over an alphabet that has both cases, both
// wildcards and a multi-byte letter whose lower case is shorter (K, the
// Kelvin sign, lower-cases to k).
func TestLikeAgainstReference(t *testing.T) {
	alphabet := []string{"a", "A", "b", "%", "_", "\u212a"}
	var words []string
	var gen func(prefix string, n int)
	gen = func(prefix string, n int) {
		words = append(words, prefix)
		if n == 0 {
			return
		}
		for _, c := range alphabet {
			gen(prefix+c, n-1)
		}
	}
	gen("", 4)
	for _, s := range words {
		if strings.ContainsAny(s, "%_") {
			continue // subjects are plain text here; wildcards in them are covered below
		}
		for _, p := range words {
			want := likeRef(strings.ToLower(s), strings.ToLower(p))
			if got := likeMatch(s, p); got != want {
				t.Fatalf("likeMatch(%q,%q)=%v, reference says %v", s, p, got, want)
			}
		}
	}
	for _, c := range []struct {
		s, p string
		want bool
	}{
		{"100%", "100%", true}, {"100%", "%\u212a", false}, {"50%_off", "50%off", true},
		{"\u0130stanbul", "i%", true}, // İ lower-cases to a shorter string
		{"\u212aelvin", "k_lvin", true},
		{"na\u00efve", "NA%VE", true},
		{"na\u00efve", "na_ve", false}, // _ is one byte, as before
	} {
		if got := likeMatch(c.s, c.p); got != c.want {
			t.Errorf("likeMatch(%q,%q)=%v want %v", c.s, c.p, got, c.want)
		}
	}
}

// TestLikeAdversarialPatternReturns: ten %a groups against 2 000 a's with no
// b to find made the recursive matcher try every way of splitting the subject
// (it did not return); the iterative one is O(len(s)·len(p)).
func TestLikeAdversarialPatternReturns(t *testing.T) {
	s := strings.Repeat("a", 2000)
	if likeMatch(s, "%a%a%a%a%a%a%a%a%a%a%b") {
		t.Error("matched a b that is not there")
	}
	if !likeMatch(s+"b", "%a%a%a%a%a%a%a%a%a%a%b") || !likeMatch(s, "%a%a%a%a%a%a%a%a%a%a%") {
		t.Error("adversarial pattern should match when its tail is present")
	}
}

// TestLikeASCIIAllocatesNothing: folding case inside the comparison replaced
// two strings.ToLower calls per tested row.
func TestLikeASCIIAllocatesNothing(t *testing.T) {
	s, p := "The SQL Server Handbook", "%SERVER h%"
	if !likeMatch(s, p) {
		t.Fatal("should match")
	}
	if n := testing.AllocsPerRun(100, func() { likeMatch(s, p) }); n != 0 {
		t.Errorf("ASCII LIKE allocates %v times per call, want 0", n)
	}
}

func TestThreeValuedLogic(t *testing.T) {
	null := &ConstExpr{V: types.Null}
	tru := &ConstExpr{V: types.NewBool(true)}
	fls := &ConstExpr{V: types.NewBool(false)}

	// NULL AND FALSE = FALSE; NULL AND TRUE = NULL
	v, _ := (&BinExpr{Op: sql.OpAnd, L: null, R: fls}).Eval(nil, nil)
	if v.IsNull() || v.Bool() {
		t.Error("NULL AND FALSE should be FALSE")
	}
	v, _ = (&BinExpr{Op: sql.OpAnd, L: null, R: tru}).Eval(nil, nil)
	if !v.IsNull() {
		t.Error("NULL AND TRUE should be NULL")
	}
	// NULL OR TRUE = TRUE; NULL OR FALSE = NULL
	v, _ = (&BinExpr{Op: sql.OpOr, L: null, R: tru}).Eval(nil, nil)
	if v.IsNull() || !v.Bool() {
		t.Error("NULL OR TRUE should be TRUE")
	}
	v, _ = (&BinExpr{Op: sql.OpOr, L: null, R: fls}).Eval(nil, nil)
	if !v.IsNull() {
		t.Error("NULL OR FALSE should be NULL")
	}
	// comparisons with NULL are NULL
	v, _ = (&BinExpr{Op: sql.OpEQ, L: null, R: &ConstExpr{V: types.NewInt(1)}}).Eval(nil, nil)
	if !v.IsNull() {
		t.Error("NULL = 1 should be NULL")
	}
}

func TestDivisionByZero(t *testing.T) {
	e := &BinExpr{Op: sql.OpDiv, L: &ConstExpr{V: types.NewInt(1)}, R: &ConstExpr{V: types.NewInt(0)}}
	if _, err := e.Eval(nil, nil); err == nil {
		t.Error("int division by zero should error")
	}
}

func TestScalarFunctions(t *testing.T) {
	upper := &ScalarFunc{Name: "UPPER", Args: []Expr{&ConstExpr{V: types.NewString("abc")}}}
	v, err := upper.Eval(nil, nil)
	if err != nil || v.Str() != "ABC" {
		t.Errorf("UPPER: %v %v", v, err)
	}
	sub := &ScalarFunc{Name: "SUBSTRING", Args: []Expr{
		&ConstExpr{V: types.NewString("hello")}, &ConstExpr{V: types.NewInt(2)}, &ConstExpr{V: types.NewInt(3)},
	}}
	v, _ = sub.Eval(nil, nil)
	if v.Str() != "ell" {
		t.Errorf("SUBSTRING: %v", v)
	}
	co := &ScalarFunc{Name: "COALESCE", Args: []Expr{&ConstExpr{V: types.Null}, &ConstExpr{V: types.NewInt(5)}}}
	v, _ = co.Eval(nil, nil)
	if v.Int() != 5 {
		t.Errorf("COALESCE: %v", v)
	}
}

func TestMissingParamError(t *testing.T) {
	e := &ParamExpr{Name: "missing"}
	if _, err := e.Eval(nil, &Env{Named: Params{}}); err == nil {
		t.Error("missing parameter should error")
	}
}

func TestInMatchNullSemantics(t *testing.T) {
	// 5 IN (1, NULL) = NULL (unknown)
	in := &InMatch{X: &ConstExpr{V: types.NewInt(5)}, List: []Expr{
		&ConstExpr{V: types.NewInt(1)}, &ConstExpr{V: types.Null},
	}}
	v, _ := in.Eval(nil, nil)
	if !v.IsNull() {
		t.Error("IN with NULL list member and no match should be NULL")
	}
	// 1 IN (1, NULL) = TRUE
	in2 := &InMatch{X: &ConstExpr{V: types.NewInt(1)}, List: in.List}
	v, _ = in2.Eval(nil, nil)
	if v.IsNull() || !v.Bool() {
		t.Error("IN should find the match despite NULLs")
	}
}
