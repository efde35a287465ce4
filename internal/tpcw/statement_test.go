package tpcw

import (
	"fmt"
	"testing"
)

// TestStatementAllocBudget: what a cached point statement allocates between
// arriving as text and leaving as rows, with everything that measures it
// switched on. The statement is the one PR 23 profiled — a literal-text point
// SELECT on a TPC-W cache, answered from cv_item by a pooled plan instance,
// result cache off so every run executes, its query-store statistics
// recorded on the shape's plan-cache entry (there is no switch to turn them
// off; recording a repeated shape allocates nothing) — and 14 of the
// objects it allocated there (28 by this count, 29 in the profile) were
// instrumentation: a trace, four spans and their attribute and child slices,
// a trace ID formatted twice over, a plan label and a copy of the
// subscriber's view list. The record that replaced them is one object and its
// ID another, 16 in all. Since the pooled plan instance keeps its context, its
// parameter slots and Run's window, shares the compiled predicate with the
// plan, and binds table and index views that are values, and a snapshot's
// reader count is a map value, it allocated 6: its Result, the result's row
// slice and its one row, the read transaction, and the record and its ID.
// With the record from a pool and its ID a number it allocated 4. Now the plan
// instance keeps its read transaction, and the Result, which the caller
// releases here, comes from a pool with the row slice it kept, so what the
// statement allocates is its one row: 1. The ceiling is that count plus
// three, the margin it has had since the record.
func TestStatementAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	_, c := loadedPair(t, DefaultConfig())
	c.DB.SetIMCacheEnabled(false)
	texts := make([]string, 500)
	for i := range texts {
		texts[i] = fmt.Sprintf("SELECT i_title, i_cost, i_srp FROM item WHERE i_id = %d", i+1)
	}
	next := 0
	run := func() {
		next++
		res, err := c.DB.Exec(texts[next%len(texts)], nil)
		if err != nil || len(res.Rows) != 1 || res.Counters.RemoteQueries != 0 || res.TraceID == 0 {
			t.Fatalf("%s: %+v, %v", texts[next%len(texts)], res, err)
		}
		res.Release()
	}
	run() // warm the shape and plan caches
	const ceiling = 1 + 3
	avg := testing.AllocsPerRun(500, run)
	t.Logf("cached point statement: %.0f allocs", avg)
	if avg > ceiling {
		t.Errorf("cached point statement: %.0f allocs, ceiling %d", avg, ceiling)
	}
}
