package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"mtcache/internal/catalog"
	"mtcache/internal/sql"
	"mtcache/internal/storage"
	"mtcache/internal/types"
)

// The join differential: a lookup join and a hash join building on either
// side must all return the multiset a naive nested loop over the generated rows computes, over inner tables indexed
// every way the planner may meet — unique, non-unique, composite with only a
// prefix bound, NULL keys, duplicate keys and empty sides.

// joinTableMeta is t(id INT PRIMARY KEY, k INT, k2 INT, v INT) with a
// non-unique index on k and a composite one on (k, k2).
func joinTableMeta(name string) *catalog.Table {
	return &catalog.Table{
		Name: name,
		Columns: []catalog.Column{
			{Name: "id", Type: types.KindInt},
			{Name: "k", Type: types.KindInt},
			{Name: "k2", Type: types.KindInt},
			{Name: "v", Type: types.KindInt},
		},
		PrimaryKey: []int{0},
		Indexes: []*catalog.Index{
			{Name: "ix_k", Table: name, Columns: []int{1}},
			{Name: "ix_k_k2", Table: name, Columns: []int{1, 2}},
		},
	}
}

func joinCols(table string) []ColInfo {
	out := make([]ColInfo, 4)
	for i, n := range []string{"id", "k", "k2", "v"} {
		out[i] = ColInfo{Table: table, Name: n, Kind: types.KindInt}
	}
	return out
}

// newJoinStore fills l and r with nl and nr random rows: keys drawn from a
// small domain (duplicates on both sides), roughly one in six NULL. It also
// returns the rows it inserted, l then r.
func newJoinStore(t testing.TB, rng *rand.Rand, nl, nr int) (*storage.Store, []types.Row, []types.Row) {
	t.Helper()
	s := storage.NewStore()
	for _, name := range []string{"l", "r"} {
		if err := s.CreateTable(joinTableMeta(name)); err != nil {
			t.Fatal(err)
		}
	}
	key := func() types.Value {
		if rng.Intn(6) == 0 {
			return types.Value{}
		}
		return types.NewInt(int64(rng.Intn(8)))
	}
	tx := s.Begin(true)
	fill := func(name string, n int) []types.Row {
		rows := make([]types.Row, n)
		for i := range rows {
			rows[i] = types.Row{types.NewInt(int64(i)), key(), key(), types.NewInt(int64(rng.Intn(20)))}
			if _, err := tx.Insert(name, rows[i]); err != nil {
				t.Fatal(err)
			}
		}
		return rows
	}
	l, r := fill("l", nl), fill("r", nr)
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return s, l, r
}

func scanOf(table string) *Scan {
	return &Scan{TableName: table, Cols: joinCols(table)}
}

func colsExprs(ords ...int) []Expr {
	out := make([]Expr, len(ords))
	for i, o := range ords {
		out[i] = &ColExpr{I: o}
	}
	return out
}

// joinCase is one equi-join of l (outer) with r (inner) on the listed
// column ordinals, through the named index of r.
type joinCase struct {
	name  string
	index string
	lKeys []int // ordinals in l
	rKeys []int // ordinals in r, a prefix of the index key
}

var joinCases = []joinCase{
	{"pk", "__pk", []int{1}, []int{0}},
	{"nonunique", "ix_k", []int{1}, []int{1}},
	{"composite-prefix", "ix_k_k2", []int{1}, []int{1}},
	{"composite-full", "ix_k_k2", []int{1, 2}, []int{1, 2}},
}

// naiveJoin is the differential's reference: every l row against every r
// row that passes innerPred, joined when all key pairs are non-NULL and
// equal and the residual holds over l ++ r; a LEFT JOIN pads unmatched l
// rows with NULLs.
func naiveJoin(t *testing.T, l, r []types.Row, jc joinCase, innerPred, residual Expr, leftOuter bool) []types.Row {
	t.Helper()
	holds := func(e Expr, row types.Row) bool {
		ok, err := EvalBool(e, row, &Env{})
		if err != nil {
			t.Fatal(err)
		}
		return ok
	}
	var out []types.Row
	for _, lr := range l {
		matched := false
	inner:
		for _, rr := range r {
			if !holds(innerPred, rr) {
				continue
			}
			for i := range jc.lKeys {
				lk, rk := lr[jc.lKeys[i]], rr[jc.rKeys[i]]
				if lk.IsNull() || rk.IsNull() || types.Compare(lk, rk) != 0 {
					continue inner
				}
			}
			joined := append(append(types.Row{}, lr...), rr...)
			if holds(residual, joined) {
				matched = true
				out = append(out, joined)
			}
		}
		if !matched && leftOuter {
			out = append(out, append(append(types.Row{}, lr...), make(types.Row, 4)...))
		}
	}
	return out
}

func TestIndexJoinDifferential(t *testing.T) {
	// l.v < r.v + 10 over l ++ r, and r.v < 15 over r alone.
	residual := &BinExpr{Op: sql.OpLT, L: &ColExpr{I: 3}, R: &BinExpr{Op: sql.OpAdd, L: &ColExpr{I: 7}, R: &ConstExpr{V: types.NewInt(10)}}}
	innerPred := &BinExpr{Op: sql.OpLT, L: &ColExpr{I: 3}, R: &ConstExpr{V: types.NewInt(15)}}
	sizes := [][2]int{{0, 12}, {12, 0}, {1, 40}, {40, 1}, {25, 25}, {150, 9}, {9, 150}}
	joined := 0
	for seed, size := range sizes {
		rng := rand.New(rand.NewSource(int64(seed) + 1))
		s, lRows, rRows := newJoinStore(t, rng, size[0], size[1])
		for _, jc := range joinCases {
			for _, outer := range []bool{false, true} {
				name := fmt.Sprintf("%s/l%d-r%d/leftouter=%v", jc.name, size[0], size[1], outer)
				filteredR := &Filter{Input: scanOf("r"), Pred: innerPred}
				want := naiveJoin(t, lRows, rRows, jc, innerPred, residual, outer)
				joined += len(want)

				variants := map[string]Operator{
					"hash-build-right": &HashJoin{
						Left: scanOf("l"), Right: filteredR,
						LeftKeys: colsExprs(jc.lKeys...), RightKeys: colsExprs(jc.rKeys...),
						Residual: residual, LeftOuter: outer,
					},
					"lookup": &IndexJoin{
						Outer: scanOf("l"), OuterKeys: colsExprs(jc.lKeys...),
						TableName: "r", IndexName: jc.index,
						InnerCols: joinCols("r"), Proj: []int{0, 1, 2, 3},
						Pred: innerPred, Residual: residual, LeftOuter: outer,
					},
				}
				if !outer {
					// Build on l, probe with r, then restore the l ++ r order:
					// the reoriented join the planner picks for a small l.
					swapped := &BinExpr{Op: sql.OpLT, L: &ColExpr{I: 7}, R: &BinExpr{Op: sql.OpAdd, L: &ColExpr{I: 3}, R: &ConstExpr{V: types.NewInt(10)}}}
					variants["hash-build-left"] = &Project{
						Input: &HashJoin{
							Left: &Filter{Input: scanOf("r"), Pred: innerPred}, Right: scanOf("l"),
							LeftKeys: colsExprs(jc.rKeys...), RightKeys: colsExprs(jc.lKeys...),
							Residual: swapped,
						},
						Exprs: colsExprs(4, 5, 6, 7, 0, 1, 2, 3),
						Cols:  append(joinCols("l"), joinCols("r")...),
					}
				}
				for vname, op := range variants {
					got := runOp(t, s, op, nil).Rows
					if len(got) != len(want) {
						t.Fatalf("%s %s: %d rows, want %d", name, vname, len(got), len(want))
					}
					requireSameRows(t, got, want)
				}
			}
		}
	}
	if joined < 1000 {
		t.Fatalf("the generated cases joined only %d rows; the differential checks nothing", joined)
	}
}

// TestIndexJoinProjectsAndCounts: the inner projection is applied inside the
// operator, rows fetched through the index are counted as scanned, and the
// seek count is reported for EXPLAIN ANALYZE.
func TestIndexJoinProjectsAndCounts(t *testing.T) {
	s := newTestStore(t, 100)
	outer := &Values{
		Cols: []ColInfo{{Name: "x", Kind: types.KindInt}},
		Rows: [][]Expr{
			{&ConstExpr{V: types.NewInt(7)}},
			{&ConstExpr{V: types.NewInt(500)}}, // no such key
			{&ConstExpr{V: types.Value{}}},     // NULL joins nothing, seeks nothing
			{&ConstExpr{V: types.NewInt(42)}},
		},
	}
	op := &IndexJoin{
		Outer: outer, OuterKeys: colsExprs(0),
		TableName: "nums", IndexName: "__pk",
		InnerCols: []ColInfo{{Table: "nums", Name: "b", Kind: types.KindString}}, Proj: []int{1},
	}
	tx := s.Begin(false)
	defer tx.Abort()
	ctr := &Counters{}
	rs, err := drain(op, &Ctx{Txn: tx, Counters: ctr})
	if err != nil {
		t.Fatal(err)
	}
	rows := rs.Rows
	if len(rows) != 2 || len(rows[0]) != 2 {
		t.Fatalf("rows %v", rows)
	}
	if rows[0][0].Int() != 7 || rows[0][1].Str() != "blue" || rows[1][0].Int() != 42 || rows[1][1].Str() != "blue" {
		t.Errorf("rows %v", rows)
	}
	if ctr.RowsScanned != 2 {
		t.Errorf("RowsScanned %d, want 2", ctr.RowsScanned)
	}
	if op.Seeks() != 3 {
		t.Errorf("Seeks %d, want 3", op.Seeks())
	}
}

// TestIndexJoinFiltersStaleIndexEntries: an update that moves a row to a new
// key leaves its old index entry behind until GC; a seek on the old key must
// not surface the row, and a seek on the new key must surface it once.
func TestIndexJoinFiltersStaleIndexEntries(t *testing.T) {
	s := storage.NewStore()
	if err := s.CreateTable(joinTableMeta("r")); err != nil {
		t.Fatal(err)
	}
	tx := s.Begin(true)
	rid, err := tx.Insert("r", types.Row{types.NewInt(1), types.NewInt(5), types.NewInt(0), types.NewInt(0)})
	if err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	old := s.Begin(false) // pins the k=5 image
	defer old.Abort()
	tx = s.Begin(true)
	if err := tx.Update("r", rid, types.Row{types.NewInt(1), types.NewInt(6), types.NewInt(0), types.NewInt(0)}); err != nil {
		t.Fatal(err)
	}
	tx.Commit()

	probe := func(txn *storage.Txn, key int64) int {
		op := &IndexJoin{
			Outer:     &Values{Cols: []ColInfo{{Name: "x", Kind: types.KindInt}}, Rows: [][]Expr{{&ConstExpr{V: types.NewInt(key)}}}},
			OuterKeys: colsExprs(0), TableName: "r", IndexName: "ix_k",
			InnerCols: joinCols("r"), Proj: []int{0, 1, 2, 3},
		}
		rs, err := drain(op, &Ctx{Txn: txn})
		if err != nil {
			t.Fatal(err)
		}
		return len(rs.Rows)
	}
	now := s.Begin(false)
	defer now.Abort()
	if n := probe(now, 5); n != 0 {
		t.Errorf("current snapshot, old key: %d rows, want 0", n)
	}
	if n := probe(now, 6); n != 1 {
		t.Errorf("current snapshot, new key: %d rows, want 1", n)
	}
	if n := probe(old, 5); n != 1 {
		t.Errorf("old snapshot, old key: %d rows, want 1", n)
	}
	if n := probe(old, 6); n != 0 {
		t.Errorf("old snapshot, new key: %d rows, want 0", n)
	}
}
