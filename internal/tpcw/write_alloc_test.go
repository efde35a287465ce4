package tpcw

import (
	"testing"

	"mtcache/internal/core"
	"mtcache/internal/engine"
	"mtcache/internal/exec"
	"mtcache/internal/types"
)

// TestWriteAllocBudget pins what a one-row write costs a loaded backend that
// has no materialized view: finding that out is one lookup in the catalog's
// per-relation list, not a sorted copy of the catalog per modified row; the
// procedure is looked up once, without lower-casing its name into a new
// string; an UPDATE builds an index key only for an index whose columns it
// changes, and an INSERT builds a unique index's key once for the check and
// the entry; an index insert copies only the arrays it changes, and the redo
// record holds the rows the new versions hold, not copies; a procedure body's
// write is planned once, its plan kept on its plan-cache entry; an UPDATE or
// DELETE binds one table view, a value, to find its rows and write them,
// seeking the index the read planner's chooser picks into stack buffers; the
// body runs on the caller's map, which binds each parameter to itself. A
// call is measured as CallProcedure makes it: Exec of the call's shape with
// the values in the named map, through the front door and the statement's
// record, which comes from a pool and carries its trace ID as a number; the
// call's Result comes from a pool too, and the caller releases it; the
// write transaction comes from a pool as well, begun again
// (Store.BeginWrite), and keeps one change log with its latches, whose
// arrays it reuses; its heap slot comes from a chunk, an INSERT cuts all of
// its index keys from one slab, a unique check or a primary-key lookup stops
// at the first live entry instead of collecting them, the redo record is
// built once, exactly sized, at a logged commit; an INSERT's version and key
// slab, an UPDATE's changed keys, the redo record and the commit's snapshot
// mark are carved from chunks the store keeps. The ceilings are 6, 5 and 5
// for addCartLine, adminUpdate and updateCartLine, and 8 for clearCart on a
// one-line cart, which seeks the key's first column where it scanned every
// cart (10, 7, 7 and 10 while the version, the keys, the redo record and the
// mark were objects of their own; 11, 8, 8 and 11 while each write allocated its transaction; the
// first three were 16, 13 and 13 while the transaction kept
// four per-change lists; 17, 14 and 14 while the write body's Result was a
// new object; 19, 16 and 16 while each
// record was a new object with a text ID; 21, 18 and
// 18 while the call bound its arguments into a map of its own; 21, 20 and
// 20 when a keyed write made two views; 27, 46 and 42 when every call
// compiled its body's statement); called past the front door the first two
// were 23 and 42 (26 and 44 before the index-insert change; 28 and 58 before
// the first). An UPDATE by key sent as literal text takes the same path from
// the front door on: its literals lifted out, its shape's entry keeps its
// write plan, and its ceiling is 5, as adminUpdate's is (7 before the
// carved redo record and mark, 8 before the pooled transaction); while the
// text was parsed and its
// write plan built on every execution it was 54.
func TestWriteAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	b := core.NewBackend("backend")
	if err := Load(b, DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	if err := b.DB.Analyze(); err != nil {
		t.Fatal(err)
	}
	cart, cleared := int64(1<<20), int64(1<<20)
	for _, g := range []struct {
		proc   string // or, when params is nil, the text Exec runs
		params func() exec.Params
		allocs float64
	}{
		{"addCartLine", func() exec.Params { // a one-row INSERT
			cart++
			return exec.Params{"sc_id": types.NewInt(cart), "i_id": types.NewInt(417), "qty": types.NewInt(1)}
		}, 6},
		{"adminUpdate", func() exec.Params { // a one-row UPDATE by key
			return exec.Params{"i_id": types.NewInt(417), "cost": types.NewFloat(9.5), "related": types.NewInt(7)}
		}, 5},
		{"updateCartLine", func() exec.Params { // a one-row UPDATE by a two-column key
			return exec.Params{"sc_id": types.NewInt(1<<20 + 1), "i_id": types.NewInt(417), "qty": types.NewInt(2)}
		}, 5},
		{"clearCart", func() exec.Params { // a DELETE by a key prefix: the one-line carts addCartLine made, in turn
			cleared++
			return exec.Params{"sc_id": types.NewInt(cleared)}
		}, 8},
		{"UPDATE item SET i_stock = 5 WHERE i_id = 417", nil, 5}, // a one-row UPDATE by key, as text
	} {
		call := func() {
			var res *engine.Result
			var err error
			if g.params == nil {
				res, err = b.DB.Exec(g.proc, nil)
			} else {
				res, err = b.DB.CallProcedure(g.proc, g.params())
			}
			if err != nil || res.RowsAffected != 1 {
				t.Fatalf("%s: %+v, %v", g.proc, res, err)
			}
			res.Release()
		}
		call() // warm the plan cache
		allocs := testing.AllocsPerRun(200, call)
		t.Logf("%s: %.0f allocs per call", g.proc, allocs)
		if allocs > g.allocs {
			t.Errorf("%s: %.0f allocs per call, want at most %.0f", g.proc, allocs, g.allocs)
		}
	}
}
