package exec

import (
	"math/rand"
	"sync"
	"testing"
	"unsafe"

	"mtcache/internal/types"
)

// TestRecycledAnswerTakesTheHighWaterSize: the sizing rule of Answer.Reserve.
// The first answer decoded into an Answer gets arrays of exactly its
// lengths, even where an execution left row headers (Hold); once some Answer
// has held a 300-value answer, a recycled Answer that meets an answer longer
// than its arrays makes one array of each kind, of the high-water size, and
// no more for any answer up to it; an answer past KeepRows, KeepVals or
// KeepStrs gets an exact array and leaves the marks where they are; and
// every slice Reserve returns has its answer's exact length. Decoders on
// several goroutines, each with an Answer of its own, share the marks: each
// regrows each kind at most once, and a highWater raised from all of them at
// once ends at the largest answer.
func TestRecycledAnswerTakesTheHighWaterSize(t *testing.T) {
	const heldRows, heldVals, heldStrs = 40, 300, 3000
	reserve := func(a *Answer, rows, vals, strBytes int) ([]types.Row, []types.Value, []byte) {
		t.Helper()
		rs, vs, strs := a.Reserve(rows, vals, strBytes)
		if len(rs) != rows || len(vs) != vals || len(strs) != 0 || cap(strs) < strBytes {
			t.Fatalf("Reserve(%d, %d, %d) returned lengths %d, %d, %d (room %d)", rows, vals, strBytes, len(rs), len(vs), len(strs), cap(strs))
		}
		return rs, vs, strs
	}

	var first, served Answer
	if rs, vs, strs := reserve(&first, 5, 9, 13); cap(rs) != 5 || cap(vs) != 9 || cap(strs) != 13 {
		t.Errorf("a first Reserve(5, 9, 13) made arrays of %d, %d and %d", cap(rs), cap(vs), cap(strs))
	}

	var held Answer
	reserve(&held, heldRows, heldVals, heldStrs)
	rowsAt, valsAt, strsAt := int(rowMark.mark.Load()), int(valMark.mark.Load()), int(strMark.mark.Load())
	if rowsAt < heldRows || valsAt < heldVals || strsAt < heldStrs {
		t.Fatalf("after a %d-row, %d-value, %d-byte answer the marks are %d, %d and %d", heldRows, heldVals, heldStrs, rowsAt, valsAt, strsAt)
	}

	served.Hold(make([]types.Row, 0, 2)) // the row headers an execution left
	served.Reset()
	if rs, vs, strs := reserve(&served, 6, 10, 14); cap(rs) != 6 || cap(vs) != 10 || cap(strs) != 14 {
		t.Errorf("the first answer decoded where an execution left 2 row headers made arrays of %d, %d and %d, want 6, 10 and 14",
			cap(rs), cap(vs), cap(strs))
	}

	first.Reset()
	rs, vs, strs := reserve(&first, 6, 10, 14)
	if cap(rs) != rowsAt || cap(vs) != valsAt || cap(strs) != strsAt {
		t.Errorf("a recycled Answer meeting a longer answer made arrays of %d, %d and %d, want the marks %d, %d and %d",
			cap(rs), cap(vs), cap(strs), rowsAt, valsAt, strsAt)
	}
	for _, n := range []int{1, heldRows / 2, heldRows} {
		first.Reset()
		rs2, vs2, strs2 := reserve(&first, n, n*heldVals/heldRows, n*heldStrs/heldRows)
		if unsafe.SliceData(rs2) != unsafe.SliceData(rs) || unsafe.SliceData(vs2) != unsafe.SliceData(vs) || unsafe.SliceData(strs2) != unsafe.SliceData(strs) {
			t.Errorf("a %d-row answer within the marks made a new array", n)
		}
	}

	first.Reset()
	rs, vs, strs = reserve(&first, KeepRows+1, KeepVals+1, KeepStrs+1)
	if cap(rs) != KeepRows+1 || cap(vs) != KeepVals+1 || cap(strs) != KeepStrs+1 {
		t.Errorf("an answer past the bounds made arrays of %d, %d and %d, want exactly %d, %d and %d",
			cap(rs), cap(vs), cap(strs), KeepRows+1, KeepVals+1, KeepStrs+1)
	}
	if r, v, s := int(rowMark.mark.Load()), int(valMark.mark.Load()), int(strMark.mark.Load()); r != rowsAt || v != valsAt || s != strsAt {
		t.Errorf("an answer past the bounds moved the marks from %d, %d, %d to %d, %d, %d", rowsAt, valsAt, strsAt, r, v, s)
	}

	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			var a Answer
			var arrays [3]unsafe.Pointer
			regrown := [3]int{-1, -1, -1} // the first array of each kind is not a regrowth
			for range 200 {
				rows := 1 + rng.Intn(heldRows)
				vals, strBytes := rows+rng.Intn(heldVals-rows+1), rng.Intn(heldStrs+1)
				rs, vs, strs := a.Reserve(rows, vals, strBytes)
				if len(rs) != rows || len(vs) != vals || len(strs) != 0 || cap(strs) < strBytes {
					t.Errorf("decoder %d: Reserve(%d, %d, %d) returned lengths %d, %d, %d", g, rows, vals, strBytes, len(rs), len(vs), len(strs))
					return
				}
				for i, p := range [3]unsafe.Pointer{unsafe.Pointer(unsafe.SliceData(rs)), unsafe.Pointer(unsafe.SliceData(vs)), unsafe.Pointer(unsafe.SliceData(strs))} {
					if p != arrays[i] {
						arrays[i] = p
						regrown[i]++
					}
				}
				for i := range vs {
					vs[i] = types.NewInt(int64(i))
				}
				for i := range rs {
					rs[i] = vs[i : i+1 : i+1]
				}
				strs = strs[:strBytes]
				for i := range strs {
					strs[i] = byte(g)
				}
				a.Reset()
			}
			if regrown[0] > 1 || regrown[1] > 1 || regrown[2] > 1 {
				t.Errorf("decoder %d regrew its rows, values and strings %d, %d and %d times", g, regrown[0], regrown[1], regrown[2])
			}
		}()
	}
	h := highWater{bound: 1000}
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := g; n <= 1200; n += 4 {
				h.size(n, 0, true)
			}
		}()
	}
	wg.Wait()
	if m := h.mark.Load(); m != 1000 {
		t.Errorf("a mark raised to every length up to 1200 from four goroutines at once reads %d, want its bound 1000", m)
	}
}
