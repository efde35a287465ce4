package storage

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"mtcache/internal/types"
)

// TestHeapGrowsUnderConcurrentReaders: readers call Scan, Cap, At and Get
// while one writer inserts across slot-chunk and directory-growth
// boundaries, then deletes as many rows as it inserts so that GC frees slots
// and later inserts take them back. The writer keeps the visible ids a
// contiguous range, each row (id, the id's letter), so every snapshot must
// show one: the same rows through Scan, through At over Cap and through Get,
// none missing, none torn.
func TestHeapGrowsUnderConcurrentReaders(t *testing.T) {
	s := newCustStore(t)
	const (
		perTxn = 7
		grow   = 12 * slotChunk // past the directory doublings at 2, 4 and 8 chunks
		slide  = 6 * slotChunk
	)
	row := func(id int64) types.Row {
		return types.Row{types.NewInt(id), types.NewString(string(rune('a' + id%26)))}
	}

	var done atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan string, 1)
	fail := func(msg string) {
		select {
		case errs <- msg:
		default: // one report is enough
		}
	}
	check := func() {
		tx := s.Begin(false)
		defer tx.Abort()
		tv := view(tx, "customer")
		var scanned []types.Row
		tv.Scan(func(_ RowID, r types.Row) bool {
			scanned = append(scanned, r)
			return true
		})
		n := tv.Cap()
		var at, got []types.Row
		for i := 0; i < n; i++ {
			if r := tv.At(i); r != nil {
				at = append(at, r)
			}
			if r := tv.Get(RowID(i)); r != nil {
				got = append(got, r)
			}
		}
		if len(at) != len(scanned) || len(got) != len(scanned) {
			fail("Scan, At and Get disagree on the row count")
			return
		}
		lo, hi := int64(1<<62), int64(-1)
		for i, r := range scanned {
			if !sameRows(at[i], r) || !sameRows(got[i], r) {
				fail("Scan, At and Get disagree on a row")
				return
			}
			id := r[0].Int()
			if r[1].Str() != string(rune('a'+id%26)) {
				fail("a row is torn")
				return
			}
			lo, hi = min(lo, id), max(hi, id)
		}
		if len(scanned) > 0 && hi-lo+1 != int64(len(scanned)) {
			fail("a snapshot shows a range of ids with holes")
		}
	}
	var starts [2]atomic.Int64 // checks each reader has begun
	for i := range starts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				starts[i].Add(1)
				check()
			}
		}()
	}
	stop := func() {
		done.Store(true)
		wg.Wait()
	}
	defer stop() // on a failed write too

	// The writer: ids [first, next) are visible after each commit.
	first, next := int64(0), int64(0)
	step := func(del bool) {
		tx := s.Begin(true)
		tv := view(tx, "customer")
		for range perTxn {
			if _, err := tx.Insert("customer", row(next)); err != nil {
				t.Fatal(err)
			}
			next++
			if del {
				if err := tx.Delete("customer", tv.PKLookup(types.Row{types.NewInt(first)})); err != nil {
					t.Fatal(err)
				}
				first++
			}
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if next%(4*perTxn) == 0 {
			runtime.Gosched() // let the readers in between commits, even on one CPU
		}
	}
	for next < grow {
		step(false)
	}
	for next < grow+slide {
		step(true)
		if next%(3*perTxn) == 0 {
			s.GC() // frees what no pinned snapshot still sees
		}
	}

	// Once each reader has begun a check after the last delete, no pinned
	// snapshot sees a deleted row: GC frees the slot of every one not freed
	// yet, and as many inserts, made while the readers go on, take those
	// slots back instead of growing the heap.
	begun := [2]int64{starts[0].Load(), starts[1].Load()}
	for starts[0].Load() == begun[0] || starts[1].Load() == begun[1] {
		runtime.Gosched()
	}
	s.GC()
	td := s.Table("customer")
	free, slots := len(td.free), td.nslots.Load()
	if free == 0 {
		t.Fatal("GC freed no deleted row's slot")
	}
	tx := s.Begin(true)
	for range free {
		if _, err := tx.Insert("customer", row(next)); err != nil {
			t.Fatal(err)
		}
		next++
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := td.nslots.Load(); got != slots {
		t.Errorf("the heap grew from %d to %d slots with %d GC'd slots free: they were not reused", slots, got, free)
	}

	stop()
	check()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
