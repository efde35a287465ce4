package tpcw

import (
	"fmt"
	"testing"

	"mtcache/internal/querystore"
)

// TestStatementAllocBudget: what a cached point statement allocates between
// arriving as text and leaving as rows, with everything that measures it
// switched on. The statement is the one PR 23 profiled — a literal-text point
// SELECT on a TPC-W cache, answered from cv_item by a pooled plan instance,
// result cache off so every run executes, query store on — and 14 of the
// objects it allocated there (28 by this count, 29 in the profile) were
// instrumentation: a trace, four spans and their attribute and child slices,
// a trace ID formatted twice over, a plan label and a copy of the
// subscriber's view list. The record that replaced them is one object and its
// ID another, 16 in all; the ceiling is the parent's count less nine.
func TestStatementAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	_, c := loadedPair(t, DefaultConfig())
	c.DB.SetIMCacheEnabled(false)
	if !querystore.Default.Enabled() {
		t.Fatal("the query store is on by default")
	}
	texts := make([]string, 500)
	for i := range texts {
		texts[i] = fmt.Sprintf("SELECT i_title, i_cost, i_srp FROM item WHERE i_id = %d", i+1)
	}
	next := 0
	run := func() {
		next++
		res, err := c.DB.Exec(texts[next%len(texts)], nil)
		if err != nil || len(res.Rows) != 1 || res.Counters.RemoteQueries != 0 || res.TraceID == "" {
			t.Fatalf("%s: %+v, %v", texts[next%len(texts)], res, err)
		}
	}
	run() // warm the shape and plan caches
	const ceiling = 19
	avg := testing.AllocsPerRun(500, run)
	t.Logf("cached point statement: %.0f allocs", avg)
	if avg > ceiling {
		t.Errorf("cached point statement: %.0f allocs, ceiling %d", avg, ceiling)
	}
}
