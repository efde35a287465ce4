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
// held counts the entries c holds and their bytes, as
// sys.intermediate_results lists them.
func held(c *Cache) (entries int, bytes int64) {
	for _, e := range c.Snapshot() {
		entries++
		bytes += e.Bytes
	}
	return entries, bytes
}

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
		if c.Observe(obs("k1", 4, 100, "item"), nil) {
			t.Fatalf("admitted on execution %d, want threshold 3", i+1)
		}
		if _, ok := c.Lookup(key("k1"), nil); ok {
			t.Fatal("lookup hit before admission")
		}
	}
	if !c.Observe(obs("k1", 4, 100, "item"), nil) {
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
		c.Observe(obs("k1", 2, 50, "item", "author"), nil)
		c.Observe(obs("k2", 2, 50, "orders"), nil)
	}
	_, bytes := held(c)

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
	if n, b := held(c); n != 2 || b != bytes {
		t.Fatalf("invalidation dropped rows: %d entries, %d bytes; want 2 and %d", n, b, bytes)
	}
	for _, e := range c.Snapshot() {
		if e.Stale != (e.Shape == "SELECT k1") {
			t.Errorf("%s listed stale=%v", e.Shape, e.Stale)
		}
	}

	re := obs("k1", 3, 60, "item", "author")
	re.Stamp = c.Stamp()
	if !c.Observe(re, nil) {
		t.Fatal("the first execution after the invalidation did not refresh the entry")
	}
	if hit, ok := c.Lookup(key("k1"), nil); !ok || len(hit.Rows) != 3 {
		t.Fatalf("the refreshed entry: ok=%v hit=%+v; want its 3 new rows", ok, hit)
	}
}

func TestRefreshClearsStaleness(t *testing.T) {
	c := New(Options{AdmitAfter: 1})
	c.Observe(obs("k1", 2, 50, "item"), nil)
	c.Invalidate("item")
	// Recomputation (the miss path re-ran the query) refreshes in place.
	re := obs("k1", 3, 60, "item")
	re.Stamp = c.Stamp()
	if !c.Observe(re, nil) {
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
			c.Observe(obs("k1", 2, 50, "Item", "author"), nil) // the next one admits
			if arm == "refresh" {
				c.Observe(obs("k1", 2, 50, "Item", "author"), nil)
			}

			old := obs("k1", 2, 50, "Item", "author")
			old.Stamp = c.Stamp()    // the query misses and stamps,
			c.Invalidate("item")     // a write lands while it runs,
			if c.Observe(old, nil) { // and it observes pre-write rows
				t.Fatal("observation older than its lineage's invalidation was accepted")
			}
			if _, ok := c.Lookup(key("k1"), nil); ok {
				t.Fatal("pre-invalidation rows are served as fresh")
			}

			fresh := obs("k1", 3, 50, "Item", "author")
			fresh.Stamp = c.Stamp()
			c.Invalidate("orders") // outside the lineage: does not age the stamp
			if !c.Observe(fresh, nil) {
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
	c.Observe(old, nil) // Stamp 0 < 1: dropped
	fresh := obs("k2", 2, 50, "item")
	fresh.Stamp = c.Stamp()
	if c.Observe(fresh, nil) {
		t.Fatal("admitted on the first counted execution: the dropped one was counted")
	}
	if !c.Observe(fresh, nil) {
		t.Fatal("not admitted on the second counted execution")
	}
}

func TestEvictionUnderPressurePrefersLowBenefit(t *testing.T) {
	// Budget fits roughly two of the three entries; the cheap-to-recompute
	// one must go first.
	rowBytes := estimateBytes(intCols(), intRows(100))
	c := New(Options{AdmitAfter: 1, MaxBytes: 2*rowBytes + rowBytes/2, MaxEntryBytes: rowBytes * 2})
	c.Observe(obs("cheap", 100, 10, "a"), nil)
	c.Observe(obs("costly", 100, 10_000_000, "b"), nil)
	// Hit the costly entry to raise its benefit further.
	c.Lookup(key("costly"), nil)
	c.Observe(obs("new", 100, 5_000_000, "c"), nil)

	if _, ok := c.Lookup(key("cheap"), nil); ok {
		t.Fatal("low-benefit entry survived eviction pressure")
	}
	if _, ok := c.Lookup(key("costly"), nil); !ok {
		t.Fatal("high-benefit entry was evicted")
	}
	if _, ok := c.Lookup(key("new"), nil); !ok {
		t.Fatal("newly admitted entry was evicted instead of the cheap one")
	}
	if _, b := held(c); b > c.opts.MaxBytes {
		t.Fatalf("bytes %d exceed budget %d", b, c.opts.MaxBytes)
	}
}

func TestStaleEvictedFirst(t *testing.T) {
	rowBytes := estimateBytes(intCols(), intRows(100))
	c := New(Options{AdmitAfter: 1, MaxBytes: 2*rowBytes + rowBytes/2, MaxEntryBytes: rowBytes * 2})
	c.Observe(obs("stale", 100, 10_000_000, "a"), nil)
	c.Observe(obs("fresh", 100, 10, "b"), nil)
	c.Invalidate("a")
	c.Observe(obs("new", 100, 10, "c"), nil)
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
		if c.Observe(obs("big", 1000, 100, "item"), nil) {
			t.Fatal("oversize result admitted")
		}
	}
	if n, _ := held(c); n != 0 {
		t.Fatalf("cache holds %d entries, want 0", n)
	}
}

func TestCandidateTrackerBounded(t *testing.T) {
	c := New(Options{AdmitAfter: 100, MaxTracked: 8})
	for i := 0; i < 50; i++ {
		c.Observe(obs(fmt.Sprintf("k%d", i), 1, 10, "item"), nil)
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
	c.Observe(obs("k1", 2, 50, "item"), nil)
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
	c.Observe(obs("a", 2, 50, "item"), nil)
	c.Observe(obs("b", 3, 50, "orders", "item"), nil)
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
	o.Key = k
	c.Observe(o, one)
	if _, ok := c.Lookup(k, yes); ok {
		t.Fatal("served INT 1's rows to BOOL TRUE under one key")
	}
	if hit, ok := c.Lookup(k, one); !ok || len(hit.Rows) != 2 {
		t.Fatalf("its own values missed: ok=%v hit=%+v", ok, hit)
	}
	o = obs("s", 3, 50, "item")
	o.Key = k
	c.Observe(o, yes)
	if hit, ok := c.Lookup(k, yes); !ok || len(hit.Rows) != 3 {
		t.Fatalf("the recomputation's values missed: ok=%v hit=%+v", ok, hit)
	}
	if _, ok := c.Lookup(k, one); ok {
		t.Fatal("the replaced values are still served")
	}
}

// An observation that only counts toward a candidate's admission keeps no
// values, so it copies none; one that admits or refreshes copies them,
// strings included, so the entry still serves its values after the caller
// has overwritten its buffer and the bytes of its strings, as a pooled
// normalizer or a wire frame does. It copies its rows' strings too, which
// live in storage their Result recycles on release: the entry's rows still
// read the same after the caller has overwritten the bytes behind them.
func TestObserveCopiesOnlyWhatItKeeps(t *testing.T) {
	buf := []byte("alpha")
	vals := []types.Value{types.NewInt(7), types.NewString(unsafe.String(&buf[0], len(buf)))}
	want := []types.Value{types.NewInt(7), types.NewString("alpha")}
	k := KeyOf("s", vals)
	o := obs("s", 2, 50, "item")
	o.Key = k
	strs := []byte("betagamma")
	o.Rows[0] = types.Row{types.NewInt(0), types.NewString(unsafe.String(&strs[0], 4))}
	o.Rows[1] = types.Row{types.NewInt(1), types.NewString(unsafe.String(&strs[4], 5))}
	rowsRead := func(rows []types.Row) string { return rows[0][1].Str() + "|" + rows[1][1].Str() }

	c := New(Options{AdmitAfter: 1000})
	c.Observe(o, vals) // tracks the candidate
	if avg := testing.AllocsPerRun(100, func() {
		if c.Observe(o, vals) {
			t.Fatal("admitted below AdmitAfter")
		}
	}); avg != 0 {
		t.Errorf("an observation that counts a candidate: %.0f allocs, want 0", avg)
	}

	c = New(Options{AdmitAfter: 1})
	if !c.Observe(o, vals) {
		t.Fatal("not admitted")
	}
	vals[0] = types.NewInt(8)
	copy(buf, "omega")
	copy(strs, "XXXXXXXXX")
	if hit, ok := c.Lookup(k, want); !ok || len(hit.Rows) != 2 {
		t.Fatalf("the admitted values missed after the caller overwrote its buffer: ok=%v hit=%+v", ok, hit)
	} else if got := rowsRead(hit.Rows); got != "beta|gamma" {
		t.Fatalf("the admitted rows read %s after the caller overwrote their strings' bytes, want beta|gamma", got)
	}
	if _, ok := c.Lookup(k, vals); ok {
		t.Fatal("served values the entry was not computed under")
	}

	// A refresh keeps a copy too.
	vals[0] = types.NewInt(7)
	copy(buf, "alpha")
	copy(strs, "deltaomic")
	if !c.Observe(o, vals) {
		t.Fatal("not refreshed")
	}
	copy(buf, "omega")
	copy(strs, "XXXXXXXXX")
	if hit, ok := c.Lookup(k, want); !ok || len(hit.Rows) != 2 {
		t.Fatalf("the refreshed values missed after the caller overwrote its buffer: ok=%v hit=%+v", ok, hit)
	} else if got := rowsRead(hit.Rows); got != "delt|aomic" {
		t.Fatalf("the refreshed rows read %s after the caller overwrote their strings' bytes, want delt|aomic", got)
	}
}

// TestResultTierLearnsPerShape: a shape whose admissions die unhit — here
// invalidated before any lookup served them — stops admitting and looking up
// once judgeAfter of them have, even for a fresh entry it still holds; a shape
// whose admissions are hit keeps both, and so does one whose hits pay for a
// burst of dead admissions. After probeAfter executions (lookups) the shape
// gets a probe window and uses the tier again, is judged afresh, and Clear
// forgets what every shape learned.
func TestResultTierLearnsPerShape(t *testing.T) {
	c := New(Options{AdmitAfter: 1})
	const dead, paying = "SELECT dead", "SELECT paying"
	at := func(shape string, i int) (Key, []types.Value) {
		vals := []types.Value{types.NewInt(int64(i))}
		return KeyOf(shape, vals), vals
	}
	observe := func(shape string, i int, lineage string) bool {
		k, vals := at(shape, i)
		return c.Observe(Observation{Key: k, Cols: intCols(), Rows: intRows(2), Lineage: []string{lineage},
			CostNs: 100, Stamp: c.Stamp()}, vals)
	}
	lookup := func(shape string, i int) bool {
		k, vals := at(shape, i)
		_, ok := c.Lookup(k, vals)
		return ok
	}
	learned := func(shape string) ShapeInfo { return c.Shapes()[shape] }

	const kept = -1 // a dead-shape entry no write reaches: fresh throughout
	if !observe(dead, kept, "other") || !lookup(dead, kept) {
		t.Fatal("a shape that has learned nothing does not use the tier")
	}
	judge := func() {
		t.Helper()
		for i := 0; i < judgeAfter; i++ {
			if !observe(dead, i, "item") || !observe(paying, i, "item") {
				t.Fatalf("admission %d refused", i)
			}
			if !lookup(paying, i) {
				t.Fatalf("paying admission %d not served", i)
			}
			c.Invalidate("item")
		}
	}
	judge()
	if got := learned(dead); !got.Off || got.Dead != judgeAfter || got.Hits != 1 {
		t.Fatalf("the shape whose admissions die unhit learned %+v; want off, %d dead, 1 hit", got, judgeAfter)
	}
	if got := learned(paying); got.Off || got.Dead != 0 || got.Hits != judgeAfter {
		t.Fatalf("the paying shape learned %+v; want on, 0 dead, %d hits", got, judgeAfter)
	}
	if lookup(dead, kept) {
		t.Fatal("a shape that does not pay still looks up")
	}
	if observe(dead, 100, "item") || observe(dead, 100, "item") {
		t.Fatal("a shape that does not pay still admits")
	}
	if !observe(paying, 100, "item") || !lookup(paying, 100) {
		t.Fatal("the paying shape stopped admitting or looking up")
	}

	// One invalidation that ends judgeAfter unhit admissions at once is
	// weighed against the hits before it: one hit pays for deadPerHit dead
	// admissions, and the window that paid is halved, not emptied.
	const bursty = "SELECT bursty"
	for i := 0; i < judgeAfter/deadPerHit; i++ {
		if !observe(bursty, 1000+i, "burst") || !lookup(bursty, 1000+i) {
			t.Fatalf("bursty admission %d not served", i)
		}
	}
	for i := 0; i < judgeAfter; i++ {
		observe(bursty, i, "burst")
	}
	c.Invalidate("burst")
	if got := learned(bursty); got.Off || got.Dead != judgeAfter {
		t.Fatalf("a burst its hits pay for: %+v; want on, %d dead", got, judgeAfter)
	}
	for i := 0; i < judgeAfter/2; i++ {
		observe(bursty, i, "burst")
	}
	c.Invalidate("burst")
	if !learned(bursty).Off {
		t.Fatal("half a window more of dead admissions, with no hit, did not stop the shape")
	}

	for i := 2; i < probeAfter; i++ { // the lookup above was the first execution
		if lookup(dead, kept) {
			t.Fatalf("lookup %d of %d before the probe window served", i, probeAfter)
		}
	}
	if lookup(dead, kept) || learned(dead).Off {
		t.Fatalf("execution %d did not open the probe window, or was served itself", probeAfter)
	}
	if !lookup(dead, kept) || !observe(dead, 200, "other") || !lookup(dead, 200) {
		t.Fatal("the probe window does not use the tier")
	}
	judge()
	if !learned(dead).Off {
		t.Fatal("the probe window's dead admissions did not stop the shape again")
	}

	c.Clear()
	if len(c.Shapes()) != 0 {
		t.Fatalf("Clear kept what the shapes learned: %v", c.Shapes())
	}
	if !observe(dead, 0, "item") || !lookup(dead, 0) {
		t.Fatal("after Clear the shape does not use the tier")
	}
}
