package engine

import (
	"fmt"
	"strings"
	"testing"

	"mtcache/internal/querystore"
	"mtcache/internal/types"
)

// benchDB builds the fact/dim pair the execution benchmarks run against:
// serial plans only, and the intermediate-result cache off so a repeated
// text is executed every time instead of answered from its cached result.
func benchDB(tb testing.TB, rows int) *Database {
	tb.Helper()
	db := New(Config{Name: "bench", Role: Backend})
	db.SetIMCacheEnabled(false)
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
	opts := db.Options()
	opts.MaxDOP = 1
	db.SetOptions(opts)
	return db
}

const benchRows = 20000

const (
	benchScanSQL = "SELECT b_id, b_val FROM big WHERE b_val >= 900.0"
	benchJoinSQL = "SELECT COUNT(*) AS c FROM big, dim WHERE b_dim = d_id AND b_val >= 500.0"
	benchAggSQL  = "SELECT b_grp, COUNT(*) AS c, SUM(b_val) AS s, AVG(b_val) AS a FROM big GROUP BY b_grp"
)

// benchQuery times gen's statements under the given MaxDOP; above 1 the
// optimizer may put an Exchange in the plan (it picks the degree itself,
// bounded by the host's cores), 1 is the serial path.
func benchQuery(b *testing.B, maxDOP int, gen func(i int) string) {
	b.Helper()
	db := benchDB(b, benchRows)
	opts := db.Options()
	opts.MaxDOP = maxDOP
	db.SetOptions(opts)
	for i := 0; i < 16; i++ { // warm plan + shape caches
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
	benchQuery(b, 1, func(i int) string { return fmt.Sprintf("SELECT b_id, b_val FROM big WHERE b_id = %d", i) })
}

// benchSerialAndParallel runs one statement as dop=1 and dop=4
// sub-benchmarks; pass -cpu to give the exchange workers cores to run on.
func benchSerialAndParallel(b *testing.B, query string) {
	for _, dop := range []int{1, 4} {
		b.Run(fmt.Sprintf("dop=%d", dop), func(b *testing.B) {
			benchQuery(b, dop, func(int) string { return query })
		})
	}
}

func BenchmarkScan(b *testing.B) { benchSerialAndParallel(b, benchScanSQL) }
func BenchmarkJoin(b *testing.B) { benchSerialAndParallel(b, benchJoinSQL) }
func BenchmarkAgg(b *testing.B)  { benchSerialAndParallel(b, benchAggSQL) }

// TestExecAllocGate bounds what one warm execution of the scan, join and
// aggregation shapes allocates over the 20 000-row fact table. Batch
// execution allocates per batch of result rows and per distinct build key,
// never per input row, and a warm execution runs on the instance the plan
// kept from the one before, so its batch windows, arenas and aggregate table
// are already there: 56, 284 and 21 measured (85, 512 and 524 on a fresh
// clone per execution), ceilings 15 % above. An operator that goes back to
// one make per row, or an instance that is not reused, overshoots them
// several times over.
func TestExecAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	db := benchDB(t, benchRows)
	for _, g := range []struct {
		name, sql string
		ceiling   float64
	}{
		{"scan", benchScanSQL, 65},
		{"join", benchJoinSQL, 327},
		{"agg", benchAggSQL, 25},
	} {
		run := func() {
			if _, err := db.Exec(g.sql, nil); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm plan + shape caches
		if avg := testing.AllocsPerRun(20, run); avg > g.ceiling {
			t.Errorf("%s: %.0f allocs per execution, ceiling %.0f", g.name, avg, g.ceiling)
		}
	}
}

// TestQueryStoreAllocBudget bounds what the query store adds to one warm,
// plan-cached point query: allocations with the store enabled minus
// allocations with it disabled (0–1 measured). A count, so it holds on a
// loaded 1-core box where a wall-clock overhead ratio does not.
func TestQueryStoreAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	resetQueryStore(t)
	db := benchDB(t, 2000)
	run := func() {
		if _, err := db.Exec("SELECT b_id, b_val FROM big WHERE b_id = 7", nil); err != nil {
			t.Fatal(err)
		}
	}
	measure := func(enabled bool) float64 {
		querystore.Default.SetEnabled(enabled)
		run() // warm plan + shape caches, and the store's slot for this shape
		return testing.AllocsPerRun(200, run)
	}
	off := measure(false)
	on := measure(true)
	if on-off > 2 {
		t.Errorf("query store adds %.0f allocs per point query (%.0f enabled, %.0f disabled), budget 2", on-off, on, off)
	}
}
