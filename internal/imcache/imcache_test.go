package imcache

import (
	"fmt"
	"testing"
	"time"
	"unsafe"

	"mtcache/internal/exec"
	"mtcache/internal/metrics"
	"mtcache/internal/types"
)

func intCols() []exec.ColInfo {
	return []exec.ColInfo{{Name: "n", Kind: types.KindInt}}
}

func intRows(n int) []types.Row {
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i))}
	}
	return rows
}

func obs(key string, rows int, costNs int64, lineage ...string) Observation {
	return Observation{
		Key:     key,
		Shape:   "SELECT " + key,
		Cols:    intCols(),
		Rows:    intRows(rows),
		Lineage: lineage,
		LSN:     7,
		CostNs:  costNs,
	}
}

func TestAdmitAfterThreshold(t *testing.T) {
	c := New(Options{AdmitAfter: 3})
	now := time.Unix(1000, 0)
	for i := 0; i < 2; i++ {
		if c.Observe(obs("k1", 4, 100, "item"), now) {
			t.Fatalf("admitted on execution %d, want threshold 3", i+1)
		}
		if _, ok := c.Lookup("k1", now, 0); ok {
			t.Fatal("lookup hit before admission")
		}
	}
	if !c.Observe(obs("k1", 4, 100, "item"), now) {
		t.Fatal("not admitted at threshold")
	}
	hit, ok := c.Lookup("k1", now, 0)
	if !ok || len(hit.Rows) != 4 || hit.LSN != 7 || hit.Staleness != 0 {
		t.Fatalf("bad hit after admission: ok=%v hit=%+v", ok, hit)
	}
}

func TestInvalidateByLineageAndFreshnessWindow(t *testing.T) {
	c := New(Options{AdmitAfter: 1, MaxStaleAge: time.Minute})
	now := time.Unix(1000, 0)
	c.Observe(obs("k1", 2, 50, "item", "author"), now)
	c.Observe(obs("k2", 2, 50, "orders"), now)

	if n := c.Invalidate("AUTHOR", now); n != 1 {
		t.Fatalf("invalidated %d entries, want 1 (lineage is case-insensitive)", n)
	}
	if _, ok := c.Lookup("k1", now, 0); ok {
		t.Fatal("fresh-only lookup served a stale entry")
	}
	// Under a freshness budget the stale entry stays usable.
	later := now.Add(10 * time.Second)
	if hit, ok := c.Lookup("k1", later, 30*time.Second); !ok || hit.Staleness != 10*time.Second {
		t.Fatalf("bounded-stale lookup: ok=%v staleness=%v", ok, hit.Staleness)
	}
	if _, ok := c.Lookup("k1", later, 5*time.Second); ok {
		t.Fatal("lookup served an entry staler than its budget")
	}
	// The untouched entry is unaffected.
	if _, ok := c.Lookup("k2", later, 0); !ok {
		t.Fatal("invalidation leaked onto an unrelated lineage")
	}
	// Beyond MaxStaleAge the entry is dropped even for generous budgets.
	expired := now.Add(2 * time.Minute)
	if _, ok := c.Lookup("k1", expired, time.Hour); ok {
		t.Fatal("lookup served an entry beyond MaxStaleAge")
	}
}

func TestRefreshClearsStaleness(t *testing.T) {
	c := New(Options{AdmitAfter: 1})
	now := time.Unix(1000, 0)
	c.Observe(obs("k1", 2, 50, "item"), now)
	c.Invalidate("item", now)
	// Recomputation (the miss path re-ran the query) refreshes in place.
	re := obs("k1", 3, 60, "item")
	re.Stamp = c.Stamp()
	if !c.Observe(re, now.Add(time.Second)) {
		t.Fatal("refresh observation not accepted")
	}
	hit, ok := c.Lookup("k1", now.Add(2*time.Second), 0)
	if !ok || len(hit.Rows) != 3 || hit.Staleness != 0 {
		t.Fatalf("refresh did not clear staleness: ok=%v hit=%+v", ok, hit)
	}
}

// TestObserveDropsResultComputedBeforeInvalidation drives the stale-as-fresh
// interleaving: a query stamps and computes its rows, a write to a lineage
// table invalidates, and only then does the query observe. The pre-write
// rows must neither be admitted (no entry yet) nor refresh the now-stale
// entry; the next execution, stamped after the invalidation, is accepted.
func TestObserveDropsResultComputedBeforeInvalidation(t *testing.T) {
	now := time.Unix(1000, 0)
	for _, arm := range []string{"admit", "refresh"} {
		t.Run(arm, func(t *testing.T) {
			c := New(Options{AdmitAfter: 2})
			c.Observe(obs("k1", 2, 50, "Item", "author"), now) // the next one admits
			if arm == "refresh" {
				c.Observe(obs("k1", 2, 50, "Item", "author"), now)
			}

			old := obs("k1", 2, 50, "Item", "author")
			old.Stamp = c.Stamp()     // the query misses and stamps,
			c.Invalidate("item", now) // a write lands while it runs,
			if c.Observe(old, now) {  // and it observes pre-write rows
				t.Fatal("observation older than its lineage's invalidation was accepted")
			}
			if _, ok := c.Lookup("k1", now, 0); ok {
				t.Fatal("pre-invalidation rows are served as fresh")
			}

			fresh := obs("k1", 3, 50, "Item", "author")
			fresh.Stamp = c.Stamp()
			c.Invalidate("orders", now) // outside the lineage: does not age the stamp
			if !c.Observe(fresh, now) {
				t.Fatal("post-invalidation observation refused")
			}
			if hit, ok := c.Lookup("k1", now, 0); !ok || len(hit.Rows) != 3 {
				t.Fatalf("want the post-invalidation rows: ok=%v rows=%d", ok, len(hit.Rows))
			}
		})
	}

	// A dropped observation does not count toward AdmitAfter.
	c := New(Options{AdmitAfter: 2})
	old := obs("k2", 2, 50, "item")
	c.Invalidate("item", now)
	c.Observe(old, now) // Stamp 0 < 1: dropped
	fresh := obs("k2", 2, 50, "item")
	fresh.Stamp = c.Stamp()
	if c.Observe(fresh, now) {
		t.Fatal("admitted on the first counted execution: the dropped one was counted")
	}
	if !c.Observe(fresh, now) {
		t.Fatal("not admitted on the second counted execution")
	}
}

func TestEvictionUnderPressurePrefersLowBenefit(t *testing.T) {
	// Budget fits roughly two of the three entries; the cheap-to-recompute
	// one must go first.
	rowBytes := estimateBytes(intCols(), intRows(100))
	c := New(Options{AdmitAfter: 1, MaxBytes: 2*rowBytes + rowBytes/2, MaxEntryBytes: rowBytes * 2})
	now := time.Unix(1000, 0)
	c.Observe(obs("cheap", 100, 10, "a"), now)
	c.Observe(obs("costly", 100, 10_000_000, "b"), now)
	// Hit the costly entry to raise its benefit further.
	c.Lookup("costly", now, 0)
	c.Observe(obs("new", 100, 5_000_000, "c"), now)

	if _, ok := c.Lookup("cheap", now, 0); ok {
		t.Fatal("low-benefit entry survived eviction pressure")
	}
	if _, ok := c.Lookup("costly", now, 0); !ok {
		t.Fatal("high-benefit entry was evicted")
	}
	if _, ok := c.Lookup("new", now, 0); !ok {
		t.Fatal("newly admitted entry was evicted instead of the cheap one")
	}
	if c.Bytes() > c.Options().MaxBytes {
		t.Fatalf("bytes %d exceed budget %d", c.Bytes(), c.Options().MaxBytes)
	}
}

func TestStaleEvictedFirst(t *testing.T) {
	rowBytes := estimateBytes(intCols(), intRows(100))
	c := New(Options{AdmitAfter: 1, MaxBytes: 2*rowBytes + rowBytes/2, MaxEntryBytes: rowBytes * 2})
	now := time.Unix(1000, 0)
	c.Observe(obs("stale", 100, 10_000_000, "a"), now)
	c.Observe(obs("fresh", 100, 10, "b"), now)
	c.Invalidate("a", now)
	c.Observe(obs("new", 100, 10, "c"), now)
	if _, ok := c.Lookup("stale", now, time.Hour); ok {
		t.Fatal("stale entry survived pressure ahead of fresh ones")
	}
	if _, ok := c.Lookup("fresh", now, 0); !ok {
		t.Fatal("fresh entry evicted while a stale one existed")
	}
}

func TestOversizeEntryNeverAdmitted(t *testing.T) {
	small := estimateBytes(intCols(), intRows(10))
	c := New(Options{AdmitAfter: 1, MaxBytes: 100 * small, MaxEntryBytes: small})
	now := time.Unix(1000, 0)
	for i := 0; i < 5; i++ {
		if c.Observe(obs("big", 1000, 100, "item"), now) {
			t.Fatal("oversize result admitted")
		}
	}
	if c.Len() != 0 {
		t.Fatalf("cache holds %d entries, want 0", c.Len())
	}
}

func TestCandidateTrackerBounded(t *testing.T) {
	c := New(Options{AdmitAfter: 100, MaxTracked: 8})
	now := time.Unix(1000, 0)
	for i := 0; i < 50; i++ {
		c.Observe(obs(fmt.Sprintf("k%d", i), 1, 10, "item"), now)
	}
	c.mu.Lock()
	n := len(c.cands)
	c.mu.Unlock()
	if n > 8 {
		t.Fatalf("candidate tracker grew to %d, cap 8", n)
	}
}

// Lookup ages out only the entry it touches; the O(entries) sweep of
// everything past MaxStaleAge belongs to Invalidate.
func TestOverStaleSweepRunsInInvalidateOnly(t *testing.T) {
	c := New(Options{AdmitAfter: 1, MaxStaleAge: time.Minute})
	now := time.Unix(1000, 0)
	c.Observe(obs("k1", 2, 50, "item"), now)
	c.Observe(obs("k2", 2, 50, "item"), now)
	c.Invalidate("item", now)

	expired := now.Add(2 * time.Minute)
	if _, ok := c.Lookup("k1", expired, time.Hour); ok {
		t.Fatal("lookup served an entry beyond MaxStaleAge")
	}
	if c.Len() != 1 {
		t.Fatalf("lookup of k1 left %d entries, want k2 alone", c.Len())
	}
	c.Invalidate("orders", expired)
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatalf("invalidate left %d over-stale entries (%d bytes)", c.Len(), c.Bytes())
	}
}

func TestMetricsAccounting(t *testing.T) {
	metrics.Default.Reset()
	c := New(Options{AdmitAfter: 1})
	now := time.Unix(1000, 0)
	c.Observe(obs("k1", 2, 50, "item"), now)
	c.Lookup("k1", now, 0)
	c.Lookup("nope", now, 0)
	c.Invalidate("item", now)
	c.Clear()
	snap := metrics.Default.Snapshot()
	for name, want := range map[string]int64{
		"imcache.admits":        1,
		"imcache.hits":          1,
		"imcache.misses":        1,
		"imcache.invalidations": 1,
		"imcache.evictions":     1,
	} {
		if snap[name] != want {
			t.Errorf("%s = %d, want %d", name, snap[name], want)
		}
	}
	if g := metrics.Default.Gauge("imcache.bytes").Value(); g != 0 {
		t.Errorf("imcache.bytes = %v after Clear, want 0", g)
	}
}

func TestSnapshotOrderAndFields(t *testing.T) {
	c := New(Options{AdmitAfter: 1})
	now := time.Unix(1000, 0)
	c.Observe(obs("a", 2, 50, "item"), now)
	c.Observe(obs("b", 3, 50, "orders", "item"), now)
	c.Lookup("b", now, 0)
	infos := c.Snapshot(now)
	if len(infos) != 2 || infos[0].Shape != "SELECT b" {
		t.Fatalf("snapshot order wrong: %+v", infos)
	}
	if infos[0].Rows != 3 || infos[0].Hits != 1 || infos[0].SavedNs != 50 || infos[0].LSN != 7 {
		t.Fatalf("snapshot fields wrong: %+v", infos[0])
	}
	if len(infos[0].Lineage) != 2 || infos[0].Lineage[0] != "item" {
		t.Fatalf("lineage not normalized: %v", infos[0].Lineage)
	}
}

// TestEstimateBytesTracksValueSize: the byte budget charges what a value
// really occupies — adding one value to a result adds exactly
// unsafe.Sizeof(types.Value{}) (plus its string payload) to the estimate, so
// a change of layout cannot make the budget lie.
func TestEstimateBytesTracksValueSize(t *testing.T) {
	size := int64(unsafe.Sizeof(types.Value{}))
	one := []types.Row{{types.NewInt(1)}}
	two := []types.Row{{types.NewInt(1), types.NewFloat(2)}}
	str := []types.Row{{types.NewInt(1), types.NewString("abcde")}}
	base := estimateBytes(intCols(), one)
	if got := estimateBytes(intCols(), two) - base; got != size {
		t.Errorf("one more value costs %d bytes, want unsafe.Sizeof(types.Value{}) = %d", got, size)
	}
	if got := estimateBytes(intCols(), str) - base; got != size+5 {
		t.Errorf("one more 5-byte string costs %d bytes, want %d", got, size+5)
	}
}
