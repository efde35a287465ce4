package exec

import (
	"testing"

	"mtcache/internal/storage"
	"mtcache/internal/types"
)

// Join microbenchmarks at operator level, one sub-benchmark per physical
// join the planner chooses between, so benchstat shows what each choice
// costs on the shapes that dominate TPC-W: a point lookup into a dimension
// table (getBook, getRelated), a fan-out through a non-unique index
// (getBestSellers: items of a subject → their order lines), and an
// equi-join no index serves (build side only).

// newBenchJoinStore loads l with nl rows and r with nr rows; r.k takes
// nr/perKey distinct values, so a seek on ix_k finds perKey rows.
func newBenchJoinStore(b *testing.B, nl, nr, perKey int) *storage.Store {
	b.Helper()
	s := storage.NewStore()
	for _, name := range []string{"l", "r"} {
		if err := s.CreateTable(joinTableMeta(name)); err != nil {
			b.Fatal(err)
		}
	}
	tx := s.Begin(true)
	for i := 0; i < nl; i++ {
		// l.k walks r's ids and, modulo, r's k values.
		k := int64(i * (nr / nl))
		if _, err := tx.Insert("l", types.Row{types.NewInt(int64(i)), types.NewInt(k), types.NewInt(0), types.NewInt(int64(i))}); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < nr; i++ {
		if _, err := tx.Insert("r", types.Row{types.NewInt(int64(i)), types.NewInt(int64(i / perKey)), types.NewInt(0), types.NewInt(int64(i))}); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
	return s
}

var benchRows int

func benchJoin(b *testing.B, s *storage.Store, op Operator, wantRows int) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := s.Begin(false)
		rs, err := drain(CloneOperator(op), &Ctx{Txn: tx})
		tx.Abort()
		if err != nil {
			b.Fatal(err)
		}
		benchRows = len(rs.Rows)
	}
	if benchRows != wantRows {
		b.Fatalf("joined %d rows, want %d", benchRows, wantRows)
	}
}

func hashJoinOn(probe, build Operator, probeKey, buildKey int) Operator {
	return &HashJoin{Left: probe, Right: build, LeftKeys: colsExprs(probeKey), RightKeys: colsExprs(buildKey)}
}

func lookupJoinOn(outer Operator, outerKey int, index string) Operator {
	return &IndexJoin{
		Outer: outer, OuterKeys: colsExprs(outerKey),
		TableName: "r", IndexName: index, InnerCols: joinCols("r"), Proj: []int{0, 1, 2, 3},
	}
}

// BenchmarkJoinPointLookup joins the one row l.id = 3 to r by primary key.
func BenchmarkJoinPointLookup(b *testing.B) {
	s := newBenchJoinStore(b, 10, 1000, 1)
	one := func() Operator {
		k := []Expr{&ConstExpr{V: types.NewInt(3)}}
		return &IndexScan{TableName: "l", IndexName: "__pk", Cols: joinCols("l"), Lo: k, Hi: k}
	}
	b.Run("lookup", func(b *testing.B) { benchJoin(b, s, lookupJoinOn(one(), 1, "__pk"), 1) })
	b.Run("hash", func(b *testing.B) { benchJoin(b, s, hashJoinOn(one(), scanOf("r"), 1, 0), 1) })
}

// BenchmarkJoinFanout joins 40 outer rows to 8 inner rows each, out of 8000.
func BenchmarkJoinFanout(b *testing.B) {
	s := newBenchJoinStore(b, 40, 8000, 8)
	// l.k is a multiple of 200 below 8000; r.k ranges over 0..999.
	outer := func() Operator {
		return &Project{
			Input: scanOf("l"), Cols: joinCols("l"),
			Exprs: []Expr{&ColExpr{I: 0}, &ColExpr{I: 0}, &ColExpr{I: 2}, &ColExpr{I: 3}}, // k := id
		}
	}
	b.Run("lookup", func(b *testing.B) { benchJoin(b, s, lookupJoinOn(outer(), 1, "ix_k"), 320) })
	b.Run("hash-build-big", func(b *testing.B) { benchJoin(b, s, hashJoinOn(outer(), scanOf("r"), 1, 1), 320) })
	b.Run("hash-build-small", func(b *testing.B) { benchJoin(b, s, hashJoinOn(scanOf("r"), outer(), 1, 1), 320) })
}

// BenchmarkJoinNoIndex joins 40 rows to 8000 on r.v, which no index covers:
// the only choice is which side the hash table is built on.
func BenchmarkJoinNoIndex(b *testing.B) {
	s := newBenchJoinStore(b, 40, 8000, 8)
	b.Run("hash-build-small", func(b *testing.B) { benchJoin(b, s, hashJoinOn(scanOf("r"), scanOf("l"), 3, 3), 40) })
	b.Run("hash-build-big", func(b *testing.B) { benchJoin(b, s, hashJoinOn(scanOf("l"), scanOf("r"), 3, 3), 40) })
}
