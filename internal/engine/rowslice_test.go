package engine

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"mtcache/internal/exec"
	"mtcache/internal/types"
)

// TestRangeAnswerRecyclesItsRowSlice: a range shape's plan is cached for the
// shape, so it estimates without the bounds — 320 of span's 2 000 rows. A
// 100-row range then fills the row slice its Result recycled: once the plan's
// instance has run, exec.Run makes no row slice, neither to presize nor to
// grow one (sized by the bare estimate, every execution made a 320-row slice
// that Release then dropped). A 252-row range, too large for a Result to keep,
// makes one slice per execution, sized to the rows its instance has returned
// rather than to the estimate, and never grows it.
func TestRangeAnswerRecyclesItsRowSlice(t *testing.T) {
	if raceEnabled {
		t.Skip("a sync.Pool drops what it is given at random under -race")
	}
	db := New(Config{Name: "backend", Role: Backend})
	if err := db.ExecScript(`CREATE TABLE span (s_id INT PRIMARY KEY, s_v INT)`); err != nil {
		t.Fatal(err)
	}
	rows := make([]types.Row, 0, 2000)
	for i := 1; i <= 2000; i++ {
		rows = append(rows, types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 7))})
	}
	if err := db.BulkLoad("span", rows); err != nil {
		t.Fatal(err)
	}
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	const rowBytes = int64(unsafe.Sizeof(types.Row{}))
	for _, c := range []struct {
		cols         string // one shape per case: each has a plan and instances of its own
		rows         int
		slices, size int64 // row slices exec.Run may make per warm execution, and their bytes
	}{
		{"s_id, s_v", 100, 0, 0},
		{"s_v, s_id", 252, 1, 256 * rowBytes}, // 252 rows' size class
	} {
		var texts [64]string // literal ranges of one shape
		for i := range texts {
			lo := 1 + i*13
			texts[i] = fmt.Sprintf("SELECT %s FROM span WHERE s_id >= %d AND s_id < %d", c.cols, lo, lo+c.rows)
		}
		next := 0
		run := func() {
			next = (next + 1) % len(texts)
			res, err := db.Exec(texts[next], nil)
			if err != nil || len(res.Rows) != c.rows {
				t.Fatalf("%s: %d rows, %v", texts[next], len(res.Rows), err)
			}
			res.Release()
		}
		run() // the first execution plans the shape and makes the slice
		e, _, _, norm, ok := db.autoParse(texts[0], nil)
		if !ok || e.plan.Load() == nil {
			t.Fatalf("%s: no cached plan", texts[0])
		}
		normPool.Put(norm)
		if card := e.plan.Load().Card; card <= float64(c.rows) || card <= exec.KeepRows {
			t.Fatalf("%s: the plan estimates %.0f rows, want more than %d and %d", texts[0], card, c.rows, exec.KeepRows)
		}
		const runs = 200
		made, bytes := madeBy(runs, run, "mtcache/internal/exec.Run")
		if made != c.slices*runs || bytes > c.size*runs {
			t.Errorf("%d-row range: exec.Run made %d row slices, %d bytes, in %d warm executions; want %d, at most %d bytes each",
				c.rows, made, bytes, runs, c.slices*runs, c.size)
		}
	}
}

// madeBy runs run n times with every allocation profiled and returns the
// objects and bytes allocated in the functions named fns: those whose first
// frame outside the runtime is one of fns. Like testing.AllocsPerRun it runs
// on one P, so that what a sync.Pool hands back is what the run before put
// in, after one run that is not counted.
func madeBy(n int, run func(), fns ...string) (objects, bytes int64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	run()
	objects0, bytes0 := profiled(fns)
	for range n {
		run()
	}
	objects, bytes = profiled(fns)
	return objects - objects0, bytes - bytes0
}

// profiled sums the profiled allocations made in fns so far.
func profiled(fns []string) (objects, bytes int64) {
	runtime.GC() // publishes the profile of every allocation made before it
	var recs []runtime.MemProfileRecord
	for n, ok := runtime.MemProfile(nil, true); !ok; {
		recs = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(recs, true)
		recs = recs[:n]
	}
	for _, r := range recs {
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			if f.Function != "" && !strings.HasPrefix(f.Function, "runtime.") {
				if slices.Contains(fns, f.Function) {
					objects += r.AllocObjects
					bytes += r.AllocBytes
				}
				break
			}
			if !more {
				break
			}
		}
	}
	return objects, bytes
}

// TestServedAnswerRecyclesItsValues: the rows a plan's operators build for
// the answer take their values from the slab the answer's Result owns, and a
// released Result hands it back for the next execution. A warm TOP-50
// procedure over a cached view (Top over a Project, as the TPC-W browsing
// procedures run), released after each call, makes no value storage for its
// answer: no arena chunk, and no slab, in 200 calls with the result cache
// off so that every call executes.
func TestServedAnswerRecyclesItsValues(t *testing.T) {
	if raceEnabled {
		t.Skip("a sync.Pool drops what it is given at random under -race")
	}
	db, _ := imTestDB(t, nil)
	db.SetIMCacheEnabled(false)
	if err := db.CopyProcedureFrom(`CREATE PROCEDURE top50 @g INT AS
		SELECT TOP 50 id, grp, v, w FROM t WHERE grp >= @g ORDER BY id`); err != nil {
		t.Fatal(err)
	}
	if plan, err := db.Explain("SELECT TOP 50 id, grp, v, w FROM t WHERE grp >= 3 ORDER BY id"); err != nil ||
		!strings.Contains(plan, "Top\n  Project") || !strings.Contains(plan, "cv_t") {
		t.Fatalf("the procedure's statement no longer reads the cached view through Top over Project:\n%s%v", plan, err)
	}
	next := 0
	run := func() {
		next = (next + 1) % 8
		res, err := db.CallProcedure("top50", exec.Params{"g": types.NewInt(int64(next))})
		if err != nil || len(res.Rows) != 50 {
			t.Fatalf("top50 %d: %d rows, %v", next, len(res.Rows), err)
		}
		res.Release()
	}
	for range 8 {
		run() // plans the statement, sizes the slab and the instance's own arenas
	}
	const runs = 200
	if made, bytes := madeBy(runs, run, "mtcache/internal/exec.(*rowArena).alloc",
		"mtcache/internal/exec.(*Slab).carve", "mtcache/internal/exec.(*Slab).Reset"); made != 0 {
		t.Errorf("%d warm calls made %d value chunks or slabs for their answers (%d bytes); want none", runs, made, bytes)
	}
}
