package tpcw

import (
	"testing"

	"mtcache/internal/core"
	"mtcache/internal/exec"
	"mtcache/internal/types"
)

// TestWriteAllocBudget pins what a one-row write costs a loaded backend that
// has no materialized view: finding that out is one lookup in the catalog's
// per-relation list, not a sorted copy of the catalog per modified row. The
// ceilings are the PR 23 counts (31 and 61) less two.
func TestWriteAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	b := core.NewBackend("backend")
	if err := Load(b, DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	cart := int64(1 << 20)
	for _, g := range []struct {
		proc   string
		params func() exec.Params
		allocs float64
	}{
		{"addCartLine", func() exec.Params { // a one-row INSERT
			cart++
			return exec.Params{"sc_id": types.NewInt(cart), "i_id": types.NewInt(417), "qty": types.NewInt(1)}
		}, 29},
		{"adminUpdate", func() exec.Params { // a one-row UPDATE by key
			return exec.Params{"i_id": types.NewInt(417), "cost": types.NewFloat(9.5), "related": types.NewInt(7)}
		}, 59},
	} {
		call := func() {
			if _, err := b.DB.CallProcedure(g.proc, g.params()); err != nil {
				t.Fatalf("%s: %v", g.proc, err)
			}
		}
		call() // warm the plan cache
		allocs := testing.AllocsPerRun(200, call)
		t.Logf("%s: %.0f allocs per call", g.proc, allocs)
		if allocs > g.allocs {
			t.Errorf("%s: %.0f allocs per call, want at most %.0f", g.proc, allocs, g.allocs)
		}
	}
}
