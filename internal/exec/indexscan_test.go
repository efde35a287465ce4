package exec

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"mtcache/internal/catalog"
	"mtcache/internal/sql"
	"mtcache/internal/storage"
	"mtcache/internal/types"
)

// TestIndexScanUpperBoundOnly: a scan with Hi and no Lo returns the rows at
// or below the bound. It used to return every row of the table.
func TestIndexScanUpperBoundOnly(t *testing.T) {
	s := newTestStore(t, 100)
	op := &IndexScan{
		TableName: "nums", IndexName: "__pk", Cols: numsCols(),
		Hi: []Expr{&ConstExpr{V: types.NewInt(10)}},
	}
	rs := runOp(t, s, op, nil)
	if len(rs.Rows) != 11 {
		t.Fatalf("a <= 10 through the index: %d rows, want 11", len(rs.Rows))
	}
	for i, row := range rs.Rows {
		if row[0].Int() != int64(i) {
			t.Fatalf("row %d is %v", i, row)
		}
	}
}

// endpointStore is e(id INT PRIMARY KEY, k INT) with an index on k, churned
// so that the index holds NULL keys, duplicate keys, entries left under old
// keys by updates and entries of deleted rows. old is a snapshot taken before
// the churn and before the newest inserts.
func endpointStore(t *testing.T, rng *rand.Rand, n int) (s *storage.Store, old *storage.Txn) {
	t.Helper()
	s = storage.NewStore()
	meta := &catalog.Table{
		Name:       "e",
		Columns:    []catalog.Column{{Name: "id", Type: types.KindInt}, {Name: "k", Type: types.KindInt}},
		PrimaryKey: []int{0},
		Indexes:    []*catalog.Index{{Name: "ix_k", Table: "e", Columns: []int{1}}},
	}
	if err := s.CreateTable(meta); err != nil {
		t.Fatal(err)
	}
	key := func() types.Value {
		if rng.Intn(5) == 0 {
			return types.Null
		}
		return types.NewInt(int64(rng.Intn(30)))
	}
	commit := func(tx *storage.Txn) {
		t.Helper()
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	tx := s.Begin(true)
	for i := 0; i < n; i++ {
		if _, err := tx.Insert("e", types.Row{types.NewInt(int64(i)), key()}); err != nil {
			t.Fatal(err)
		}
	}
	commit(tx)
	old = s.Begin(false)
	for round := 0; round < 2; round++ {
		tx = s.Begin(true)
		tv := tx.Table("e")
		for i := 0; i < n; i++ {
			rid := tv.PKLookup(types.Row{types.NewInt(int64(i))})
			if rid < 0 {
				continue
			}
			var err error
			switch rng.Intn(4) {
			case 0:
				err = tx.Delete("e", rid)
			case 1:
				err = tx.Update("e", rid, types.Row{types.NewInt(int64(i)), key()})
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		commit(tx)
	}
	// Newer than old, with keys above and below everything old can see.
	tx = s.Begin(true)
	for i, k := range []int64{-5, 99, 40} {
		if _, err := tx.Insert("e", types.Row{types.NewInt(int64(n + i)), types.NewInt(k)}); err != nil {
			t.Fatal(err)
		}
	}
	commit(tx)
	return s, old
}

// TestIndexEndpointMatchesScanAggregate: MIN and MAX read off the end of an
// index — an aggregate over an IndexScan with Limit 1, descending for MAX —
// are what the same aggregate over a filtered scan of the table computes, and
// a read with a larger limit is the head of the sorted scan; over tables with
// NULL, duplicate, stale and deleted index entries, from a snapshot older
// than the newest rows, from inside a transaction that has written rows of
// its own and not committed, and over an empty table.
func TestIndexEndpointMatchesScanAggregate(t *testing.T) {
	cols := []ColInfo{{Table: "e", Name: "id", Kind: types.KindInt}, {Table: "e", Name: "k", Kind: types.KindInt}}
	run := func(tx *storage.Txn, op Operator) []types.Row {
		t.Helper()
		rs, err := Run(op, &Ctx{Txn: tx, Counters: &Counters{}})
		if err != nil {
			t.Fatal(err)
		}
		return rs.Rows
	}
	checked := 0
	for seed, n := range []int{0, 1, 7, 200, 1500} {
		rng := rand.New(rand.NewSource(int64(seed) + 40))
		s, old := endpointStore(t, rng, n)
		writer := s.Begin(true)
		for i, k := range []types.Value{types.NewInt(-9), types.NewInt(120), types.Null} {
			if _, err := writer.Insert("e", types.Row{types.NewInt(int64(n + 10 + i)), k}); err != nil {
				t.Fatal(err)
			}
		}
		if rid := writer.Table("e").PKLookup(types.Row{types.NewInt(int64(n))}); rid >= 0 {
			if err := writer.Delete("e", rid); err != nil { // the committed minimum
				t.Fatal(err)
			}
		}
		now := s.Begin(false)
		for name, tx := range map[string]*storage.Txn{"old": old, "now": now, "writer": writer} {
			for trial := 0; trial < 24; trial++ {
				var lo, hi []Expr
				var conj Expr = &ConstExpr{V: types.NewBool(true)}
				bound := func(op sql.BinOp) []Expr {
					v := types.NewInt(int64(rng.Intn(36) - 3))
					if rng.Intn(8) == 0 {
						v = types.Null
					}
					conj = &BinExpr{Op: sql.OpAnd, L: conj, R: &BinExpr{Op: op, L: &ColExpr{I: 1}, R: &ConstExpr{V: v}}}
					return []Expr{&ConstExpr{V: v}}
				}
				if trial&1 != 0 {
					lo = bound(sql.OpGE)
				}
				if trial&2 != 0 {
					hi = bound(sql.OpLE)
				}
				reference := func() Operator { return &Filter{Input: &Scan{TableName: "e", Cols: cols}, Pred: conj} }
				for _, fn := range []AggFunc{AggMin, AggMax} {
					agg := func(in Operator) Operator {
						return &HashAgg{Input: in, Aggs: []AggSpec{{Func: fn, Arg: &ColExpr{I: 1}}}, Cols: intCols("m")}
					}
					got := run(tx, agg(&IndexScan{TableName: "e", IndexName: "ix_k", Cols: cols, Lo: lo, Hi: hi, Desc: fn == AggMax, Limit: 1}))
					want := run(tx, agg(reference()))
					if len(got) != 1 || len(want) != 1 || got[0][0] != want[0][0] {
						t.Fatalf("n=%d %s trial %d: aggregate %d off the index end is %v, over a scan %v", n, name, trial, fn, got, want)
					}
					checked++
				}
				// A longer read: the first (or last) k non-NULL keys, in order.
				k := 1 + rng.Intn(9)
				desc := trial%3 == 0
				var keys []int64
				for _, row := range run(tx, reference()) {
					if !row[1].IsNull() {
						keys = append(keys, row[1].Int())
					}
				}
				sort.Slice(keys, func(i, j int) bool { return (keys[i] < keys[j]) != desc })
				if len(keys) > k {
					keys = keys[:k]
				}
				var gotKeys []int64
				for _, row := range run(tx, &IndexScan{TableName: "e", IndexName: "ix_k", Cols: cols, Lo: lo, Hi: hi, Desc: desc, Limit: k}) {
					gotKeys = append(gotKeys, row[1].Int())
				}
				if fmt.Sprint(gotKeys) != fmt.Sprint(keys) {
					t.Fatalf("n=%d %s trial %d: the %d keys from the end (desc=%v) are %v, a sorted scan gives %v", n, name, trial, k, desc, gotKeys, keys)
				}
				// And without a limit a descending read is the ascending one reversed.
				up := run(tx, &IndexScan{TableName: "e", IndexName: "ix_k", Cols: cols, Lo: lo, Hi: hi})
				down := run(tx, &IndexScan{TableName: "e", IndexName: "ix_k", Cols: cols, Lo: lo, Hi: hi, Desc: true})
				if len(up) != len(down) {
					t.Fatalf("n=%d %s trial %d: %d rows up, %d down", n, name, trial, len(up), len(down))
				}
				for i := range up {
					if mirror := down[len(down)-1-i]; up[i][1] != mirror[1] {
						t.Fatalf("n=%d %s trial %d: row %d up has key %v, its mirror %v", n, name, trial, i, up[i][1], mirror[1])
					}
				}
			}
		}
		old.Abort()
		now.Abort()
		writer.Abort()
	}
	if checked < 600 {
		t.Fatalf("only %d aggregates compared", checked)
	}
}

// TestIndexEndpointReadsOneRow: the point of the endpoint read. MAX over a
// 5 000-row table examines one row.
func TestIndexEndpointReadsOneRow(t *testing.T) {
	s := newTestStore(t, 5000)
	tx := s.Begin(false)
	defer tx.Abort()
	ctx := &Ctx{Txn: tx, Counters: &Counters{}}
	rs, err := Run(&HashAgg{
		Input: &IndexScan{TableName: "nums", IndexName: "__pk", Cols: numsCols(), Desc: true, Limit: 1},
		Aggs:  []AggSpec{{Func: AggMax, Arg: &ColExpr{I: 0}}}, Cols: intCols("m"),
	}, ctx)
	if err != nil || len(rs.Rows) != 1 || rs.Rows[0][0].Int() != 4999 {
		t.Fatalf("MAX(a) = %v, %v", rs, err)
	}
	if ctx.Counters.RowsScanned != 1 {
		t.Errorf("the endpoint read scanned %d rows", ctx.Counters.RowsScanned)
	}
}
