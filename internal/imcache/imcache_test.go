package imcache

import (
	"fmt"
	"testing"
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

// key names the test result k: the shape "SELECT k", bound to no values.
func key(k string) Key { return KeyOf("SELECT "+k, nil) }

func obs(k string, rows int, costNs int64, lineage ...string) Observation {
	return Observation{
		Key:     key(k),
		Cols:    intCols(),
		Rows:    intRows(rows),
		Lineage: lineage,
		LSN:     7,
		CostNs:  costNs,
	}
}

func TestAdmitAfterThreshold(t *testing.T) {
	c := New(Options{AdmitAfter: 3})
	for i := 0; i < 2; i++ {
		if c.Observe(obs("k1", 4, 100, "item")) {
			t.Fatalf("admitted on execution %d, want threshold 3", i+1)
		}
		if _, ok := c.Lookup(key("k1"), nil); ok {
			t.Fatal("lookup hit before admission")
		}
	}
	if !c.Observe(obs("k1", 4, 100, "item")) {
		t.Fatal("not admitted at threshold")
	}
	hit, ok := c.Lookup(key("k1"), nil)
	if !ok || len(hit.Rows) != 4 || hit.LSN != 7 {
		t.Fatalf("bad hit after admission: ok=%v hit=%+v", ok, hit)
	}
}

// An invalidated entry misses under every lookup — there is no freshness
// window in which it is served — yet keeps its rows and bytes, listed as
// stale, as the slot its next execution refreshes in place: the entry was
// admitted already, so there is no AdmitAfter wait.
func TestInvalidatedEntryMissesUntilRefreshed(t *testing.T) {
	c := New(Options{AdmitAfter: 2})
	for i := 0; i < 2; i++ {
		c.Observe(obs("k1", 2, 50, "item", "author"))
		c.Observe(obs("k2", 2, 50, "orders"))
	}
	bytes := c.Bytes()

	if n := c.Invalidate("AUTHOR"); n != 1 {
		t.Fatalf("invalidated %d entries, want 1 (lineage is case-insensitive)", n)
	}
	if n := c.Invalidate("item"); n != 0 {
		t.Fatalf("invalidated %d entries again, want 0: k1 is stale already", n)
	}
	for i := 0; i < 3; i++ {
		if _, ok := c.Lookup(key("k1"), nil); ok {
			t.Fatal("lookup served an invalidated entry")
		}
	}
	if _, ok := c.Lookup(key("k2"), nil); !ok {
		t.Fatal("invalidation leaked onto an unrelated lineage")
	}
	if c.Len() != 2 || c.Bytes() != bytes {
		t.Fatalf("invalidation dropped rows: %d entries, %d bytes; want 2 and %d", c.Len(), c.Bytes(), bytes)
	}
	for _, e := range c.Snapshot() {
		if e.Stale != (e.Shape == "SELECT k1") {
			t.Errorf("%s listed stale=%v", e.Shape, e.Stale)
		}
	}

	re := obs("k1", 3, 60, "item", "author")
	re.Stamp = c.Stamp()
	if !c.Observe(re) {
		t.Fatal("the first execution after the invalidation did not refresh the entry")
	}
	if hit, ok := c.Lookup(key("k1"), nil); !ok || len(hit.Rows) != 3 {
		t.Fatalf("the refreshed entry: ok=%v hit=%+v; want its 3 new rows", ok, hit)
	}
}

func TestRefreshClearsStaleness(t *testing.T) {
	c := New(Options{AdmitAfter: 1})
	c.Observe(obs("k1", 2, 50, "item"))
	c.Invalidate("item")
	// Recomputation (the miss path re-ran the query) refreshes in place.
	re := obs("k1", 3, 60, "item")
	re.Stamp = c.Stamp()
	if !c.Observe(re) {
		t.Fatal("refresh observation not accepted")
	}
	hit, ok := c.Lookup(key("k1"), nil)
	if !ok || len(hit.Rows) != 3 {
		t.Fatalf("refresh did not clear staleness: ok=%v hit=%+v", ok, hit)
	}
}

// TestObserveDropsResultComputedBeforeInvalidation drives the stale-as-fresh
// interleaving: a query stamps and computes its rows, a write to a lineage
// table invalidates, and only then does the query observe. The pre-write
// rows must neither be admitted (no entry yet) nor refresh the now-stale
// entry; the next execution, stamped after the invalidation, is accepted.
func TestObserveDropsResultComputedBeforeInvalidation(t *testing.T) {
	for _, arm := range []string{"admit", "refresh"} {
		t.Run(arm, func(t *testing.T) {
			c := New(Options{AdmitAfter: 2})
			c.Observe(obs("k1", 2, 50, "Item", "author")) // the next one admits
			if arm == "refresh" {
				c.Observe(obs("k1", 2, 50, "Item", "author"))
			}

			old := obs("k1", 2, 50, "Item", "author")
			old.Stamp = c.Stamp() // the query misses and stamps,
			c.Invalidate("item")  // a write lands while it runs,
			if c.Observe(old) {   // and it observes pre-write rows
				t.Fatal("observation older than its lineage's invalidation was accepted")
			}
			if _, ok := c.Lookup(key("k1"), nil); ok {
				t.Fatal("pre-invalidation rows are served as fresh")
			}

			fresh := obs("k1", 3, 50, "Item", "author")
			fresh.Stamp = c.Stamp()
			c.Invalidate("orders") // outside the lineage: does not age the stamp
			if !c.Observe(fresh) {
				t.Fatal("post-invalidation observation refused")
			}
			if hit, ok := c.Lookup(key("k1"), nil); !ok || len(hit.Rows) != 3 {
				t.Fatalf("want the post-invalidation rows: ok=%v rows=%d", ok, len(hit.Rows))
			}
		})
	}

	// A dropped observation does not count toward AdmitAfter.
	c := New(Options{AdmitAfter: 2})
	old := obs("k2", 2, 50, "item")
	c.Invalidate("item")
	c.Observe(old) // Stamp 0 < 1: dropped
	fresh := obs("k2", 2, 50, "item")
	fresh.Stamp = c.Stamp()
	if c.Observe(fresh) {
		t.Fatal("admitted on the first counted execution: the dropped one was counted")
	}
	if !c.Observe(fresh) {
		t.Fatal("not admitted on the second counted execution")
	}
}

func TestEvictionUnderPressurePrefersLowBenefit(t *testing.T) {
	// Budget fits roughly two of the three entries; the cheap-to-recompute
	// one must go first.
	rowBytes := estimateBytes(intCols(), intRows(100))
	c := New(Options{AdmitAfter: 1, MaxBytes: 2*rowBytes + rowBytes/2, MaxEntryBytes: rowBytes * 2})
	c.Observe(obs("cheap", 100, 10, "a"))
	c.Observe(obs("costly", 100, 10_000_000, "b"))
	// Hit the costly entry to raise its benefit further.
	c.Lookup(key("costly"), nil)
	c.Observe(obs("new", 100, 5_000_000, "c"))

	if _, ok := c.Lookup(key("cheap"), nil); ok {
		t.Fatal("low-benefit entry survived eviction pressure")
	}
	if _, ok := c.Lookup(key("costly"), nil); !ok {
		t.Fatal("high-benefit entry was evicted")
	}
	if _, ok := c.Lookup(key("new"), nil); !ok {
		t.Fatal("newly admitted entry was evicted instead of the cheap one")
	}
	if c.Bytes() > c.Options().MaxBytes {
		t.Fatalf("bytes %d exceed budget %d", c.Bytes(), c.Options().MaxBytes)
	}
}

func TestStaleEvictedFirst(t *testing.T) {
	rowBytes := estimateBytes(intCols(), intRows(100))
	c := New(Options{AdmitAfter: 1, MaxBytes: 2*rowBytes + rowBytes/2, MaxEntryBytes: rowBytes * 2})
	c.Observe(obs("stale", 100, 10_000_000, "a"))
	c.Observe(obs("fresh", 100, 10, "b"))
	c.Invalidate("a")
	c.Observe(obs("new", 100, 10, "c"))
	for _, e := range c.Snapshot() { // a stale entry misses anyway: look at what is held
		if e.Shape == "SELECT stale" {
			t.Fatal("stale entry survived pressure ahead of fresh ones")
		}
	}
	if _, ok := c.Lookup(key("fresh"), nil); !ok {
		t.Fatal("fresh entry evicted while a stale one existed")
	}
}

func TestOversizeEntryNeverAdmitted(t *testing.T) {
	small := estimateBytes(intCols(), intRows(10))
	c := New(Options{AdmitAfter: 1, MaxBytes: 100 * small, MaxEntryBytes: small})
	for i := 0; i < 5; i++ {
		if c.Observe(obs("big", 1000, 100, "item")) {
			t.Fatal("oversize result admitted")
		}
	}
	if c.Len() != 0 {
		t.Fatalf("cache holds %d entries, want 0", c.Len())
	}
}

func TestCandidateTrackerBounded(t *testing.T) {
	c := New(Options{AdmitAfter: 100, MaxTracked: 8})
	for i := 0; i < 50; i++ {
		c.Observe(obs(fmt.Sprintf("k%d", i), 1, 10, "item"))
	}
	c.mu.Lock()
	n := len(c.cands)
	c.mu.Unlock()
	if n > 8 {
		t.Fatalf("candidate tracker grew to %d, cap 8", n)
	}
}

func TestMetricsAccounting(t *testing.T) {
	metrics.Default.Reset()
	c := New(Options{AdmitAfter: 1})
	c.Observe(obs("k1", 2, 50, "item"))
	c.Lookup(key("k1"), nil)
	c.Lookup(key("nope"), nil)
	c.Invalidate("item")
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
	c.Observe(obs("a", 2, 50, "item"))
	c.Observe(obs("b", 3, 50, "orders", "item"))
	c.Lookup(key("b"), nil)
	infos := c.Snapshot()
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

// An entry serves only the values it was computed under, kind for kind. Two
// value lists whose keys collide — forced here by observing under one Key —
// cost a miss, never the other's rows, and a recomputation takes the entry
// over for its own values.
func TestLookupServesOnlyItsValues(t *testing.T) {
	c := New(Options{AdmitAfter: 1})
	one, yes := []types.Value{types.NewInt(1)}, []types.Value{types.NewBool(true)}
	if a, b := KeyOf("s", one), KeyOf("s", yes); a == b {
		t.Fatalf("INT 1 and BOOL TRUE share key %+v", a)
	}
	k := KeyOf("s", one)
	o := obs("s", 2, 50, "item")
	o.Key, o.Vals = k, one
	c.Observe(o)
	if _, ok := c.Lookup(k, yes); ok {
		t.Fatal("served INT 1's rows to BOOL TRUE under one key")
	}
	if hit, ok := c.Lookup(k, one); !ok || len(hit.Rows) != 2 {
		t.Fatalf("its own values missed: ok=%v hit=%+v", ok, hit)
	}
	o = obs("s", 3, 50, "item")
	o.Key, o.Vals = k, yes
	c.Observe(o)
	if hit, ok := c.Lookup(k, yes); !ok || len(hit.Rows) != 3 {
		t.Fatalf("the recomputation's values missed: ok=%v hit=%+v", ok, hit)
	}
	if _, ok := c.Lookup(k, one); ok {
		t.Fatal("the replaced values are still served")
	}
}
