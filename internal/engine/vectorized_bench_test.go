package engine

import (
	"fmt"
	"strings"
	"testing"

	"mtcache/internal/types"
)

// benchDB builds the fact/dim pair the execution benchmarks run against: a
// backend, which has no result cache, so a repeated text is executed every
// time.
func benchDB(tb testing.TB, rows int) *Database {
	tb.Helper()
	db := New(Config{Name: "bench", Role: Backend})
	err := db.ExecScript(`
		CREATE TABLE big (
			b_id INT PRIMARY KEY,
			b_grp INT,
			b_dim INT,
			b_val FLOAT,
			b_pad VARCHAR(40)
		);
		CREATE TABLE dim (d_id INT PRIMARY KEY, d_name VARCHAR(20));
	`)
	if err != nil {
		tb.Fatal(err)
	}
	pad := strings.Repeat("x", 32)
	facts := make([]types.Row, 0, rows)
	for i := 0; i < rows; i++ {
		facts = append(facts, types.Row{
			types.NewInt(int64(i)),
			types.NewInt(int64(i % 64)),
			types.NewInt(int64(i % 256)),
			types.NewFloat(float64(i % 1000)),
			types.NewString(pad),
		})
	}
	if err := db.BulkLoad("big", facts); err != nil {
		tb.Fatal(err)
	}
	dims := make([]types.Row, 0, 256)
	for i := 0; i < 256; i++ {
		dims = append(dims, types.Row{types.NewInt(int64(i)), types.NewString(fmt.Sprintf("d%d", i))})
	}
	if err := db.BulkLoad("dim", dims); err != nil {
		tb.Fatal(err)
	}
	if err := db.Analyze(); err != nil {
		tb.Fatal(err)
	}
	return db
}

const benchRows = 20000

const (
	benchScanSQL = "SELECT b_id, b_val FROM big WHERE b_val >= 900.0"
	benchJoinSQL = "SELECT COUNT(*) AS c FROM big, dim WHERE b_dim = d_id AND b_val >= 500.0"
	benchAggSQL  = "SELECT b_grp, COUNT(*) AS c, SUM(b_val) AS s, AVG(b_val) AS a FROM big GROUP BY b_grp"
)

// benchQuery times gen's statements.
func benchQuery(b *testing.B, gen func(i int) string) {
	b.Helper()
	db := benchDB(b, benchRows)
	for i := 0; i < 16; i++ { // warm the plan cache
		if _, err := db.Exec(gen(i), nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec(gen(i%benchRows), nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPointQuery(b *testing.B) {
	benchQuery(b, func(i int) string { return fmt.Sprintf("SELECT b_id, b_val FROM big WHERE b_id = %d", i) })
}

// benchStatement times one statement run over and over.
func benchStatement(b *testing.B, query string) {
	benchQuery(b, func(int) string { return query })
}

func BenchmarkScan(b *testing.B) { benchStatement(b, benchScanSQL) }
func BenchmarkJoin(b *testing.B) { benchStatement(b, benchJoinSQL) }
func BenchmarkAgg(b *testing.B)  { benchStatement(b, benchAggSQL) }

// TestExecAllocGate bounds what one warm execution of the scan, join and
// aggregation shapes allocates over the 20 000-row fact table. Batch
// execution allocates per batch of result rows and per distinct build key,
// never per input row, and a warm execution runs on the instance the plan
// kept from the one before, so its batch windows, arenas, aggregate table,
// context, parameter slots and read transaction are already there, its views
// are values, its statement's record comes from a pool with a numeric trace
// ID, and its Result, released here, comes from a pool with the row slice it
// kept: 33, 258 and 1 measured (35, 261 and 4 with a new Result, row slice
// and read transaction per execution; 37, 263 and 6 with a new record and a
// text ID per statement; 46, 274 and 11 when every Open bound its views by
// pointer and compiled its filter; 85, 512 and 524 on a fresh clone per
// execution), ceilings 15 % above. An operator that goes back to one make per
// row, or an instance that is not reused, overshoots them several times
// over.
func TestExecAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	db := benchDB(t, benchRows)
	for _, g := range []struct {
		name, sql string
		ceiling   float64
	}{
		{"scan", benchScanSQL, 38},
		{"join", benchJoinSQL, 297},
		{"agg", benchAggSQL, 2},
	} {
		run := func() {
			res, err := db.Exec(g.sql, nil)
			if err != nil {
				t.Fatal(err)
			}
			res.Release()
		}
		run() // warm the plan cache
		avg := testing.AllocsPerRun(20, run)
		t.Logf("%s: %.0f allocs per execution", g.name, avg)
		if avg > g.ceiling {
			t.Errorf("%s: %.0f allocs per execution, ceiling %.0f", g.name, avg, g.ceiling)
		}
	}
}
