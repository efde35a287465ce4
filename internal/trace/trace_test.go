package trace

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"mtcache/internal/types"
)

func TestSpanTreeAndRender(t *testing.T) {
	rec := BeginStatement("cache", "SELECT 1", 0)
	if rec.ID == 0 {
		t.Fatal("BeginStatement must generate an ID")
	}
	rec.Mark(StageParse)
	rec.Chose(BranchLocal)
	rec.RemoteEnd(rec.RemoteStart("SELECT 1"), nil)
	rec.Mark(StageExec)
	rec.Finish(nil)

	if got := rec.Tree().Name; got != "cache.exec" {
		t.Errorf("root span %q", got)
	}
	if e := rec.Tree().Find("execute"); e.AttrValue("chooseplan") != "local" {
		t.Errorf("attr lost: %q", e.AttrValue("chooseplan"))
	}
	if rec.Tree().Find("remote") == nil {
		t.Error("Tree().Find(remote) = nil")
	}
	text := Render(rec)
	for _, want := range []string{"trace " + FormatID(rec.ID), "parse", "execute", `chooseplan="local"`, "remote", `sql="SELECT 1"`} {
		if !strings.Contains(text, want) {
			t.Errorf("render missing %q:\n%s", want, text)
		}
	}
	// Indentation encodes the tree: remote is nested two levels deep.
	if !strings.Contains(text, "\n    remote") {
		t.Errorf("remote not nested under execute:\n%s", text)
	}
}

func TestNilSpanSafety(t *testing.T) {
	// An operator run bare has no record, and a statement inside a procedure
	// body has one with no trace ID: what operators add must be a no-op on
	// both, so untraced paths need no checks.
	for _, rec := range []*Record{nil, Begin("cache")} {
		i := rec.RemoteStart("SELECT 1")
		if i != -1 {
			t.Errorf("RemoteStart on an untraced record returned %d, want -1", i)
		}
		rec.RemoteEnd(i, errors.New("backend unreachable"))
		rec.Chose(BranchRemote)
		if rec != nil && (rec.nTrips != 0 || rec.nBranches != 0) {
			t.Error("an untraced record kept what its operators added")
		}
	}
	var s *WireSpan
	if s.AttrValue("k") != "" || s.Find("x") != nil || (*Record)(nil).Tree() != nil {
		t.Error("nil span and nil record accessors must return zero values")
	}
}

// backendRecord is the other server's record of a round trip that shipped
// sqlText under the trace ID id: a finished plan-cache hit that took d.
func backendRecord(id uint64, sqlText string, d time.Duration) *Record {
	r := BeginStatement("backend", sqlText, id)
	r.AutoParam, r.PlanCache, r.Tier = true, PlanHit, TierLocal
	r.Mark(StageParse)
	r.Mark(StagePlan)
	r.Mark(StageExec)
	r.Finish(nil)
	r.Total = d
	return r
}

// cacheRecord is a cache's record of a statement that made one remote round
// trip per text, each of them taking a millisecond or more; the first failed
// with failFirst when it is not nil.
func cacheRecord(id uint64, failFirst error, texts ...string) *Record {
	r := BeginStatement("cache", "SELECT 1", id)
	for k, q := range texts {
		i := r.RemoteStart(q)
		time.Sleep(time.Millisecond)
		var err error
		if k == 0 {
			err = failFirst
		}
		r.RemoteEnd(i, err)
	}
	r.Mark(StageExec)
	r.Finish(nil)
	return r
}

// TestRowRoundTrip: a record read back from its sys.traces row renders the
// tree its server rendered, whatever stages it ran, and a row Row could not
// have produced is refused.
func TestRowRoundTrip(t *testing.T) {
	gated := BeginStatement("backend", "SELECT 2", 0)
	gated.Mark(StageGate)
	gated.Tier = TierIMCache
	gated.Mark(StageLookup)
	gated.Finish(nil)
	for _, r := range []*Record{backendRecord(0x123456789abc0001, "SELECT 1", time.Millisecond), gated} {
		back, err := FromRow(r.Row())
		if err != nil {
			t.Fatal(err)
		}
		if got, want := Render(&back), Render(r); got != want {
			t.Errorf("read back from its row:\n%s\nwant\n%s", got, want)
		}
		if len(r.Row()) != len(RowColumns) {
			t.Errorf("a row of %d values, %d columns", len(r.Row()), len(RowColumns))
		}
	}
	row := gated.Row()
	row[10] = types.NewString("somewhere")
	if _, err := FromRow(row); err == nil {
		t.Error("a row naming no tier was read back")
	}
	if _, err := FromRow(row[:5]); err == nil {
		t.Error("a short row was read back")
	}
}

// TestStitchHangsEachRecordUnderItsSpan: the other server's k-th record for
// the ID hangs under the k-th remote span, read back from its row as a
// reader gets it; fetch is asked for the record's ID, once, and not at all
// for a record with no remote span. The record itself keeps no graft.
func TestStitchHangsEachRecordUnderItsSpan(t *testing.T) {
	const id = 0x123456789abc0002
	cache := cacheRecord(id, nil, "SELECT a", "SELECT b")
	var fetched []uint64
	fetch := func(kept ...*Record) func(uint64) ([]Record, error) {
		return func(got uint64) ([]Record, error) {
			fetched = append(fetched, got)
			var out []Record
			for _, r := range kept {
				back, err := FromRow(r.Row())
				if err != nil {
					return nil, err
				}
				out = append(out, back)
			}
			return out, nil
		}
	}
	a, b := backendRecord(id, "SELECT a", 0), backendRecord(id, "SELECT b", 0)
	tree := cache.Stitch(fetch(a, b))
	if got, want := names(tree), "cache.exec,execute,remote,backend.exec,optimize,execute,remote,backend.exec,optimize,execute"; got != want {
		t.Fatalf("stitched span names %s, want %s", got, want)
	}
	for i, want := range []string{"SELECT a", "SELECT b"} {
		sp := tree.Children[0].Children[i]
		if sp.Children[0].AttrValue("sql") != want || sp.AttrValue("backend") != "" {
			t.Errorf("remote span %d (%s) holds %s", i, sp.AttrValue("sql"), sp.Children[0].AttrValue("sql"))
		}
	}
	if len(fetched) != 1 || fetched[0] != id {
		t.Errorf("fetched %x, want the record's ID once", fetched)
	}
	if got := spanNames(cache); got != "cache.exec,execute,remote,remote" {
		t.Errorf("stitching changed the record: %s", got)
	}
	local := BeginStatement("cache", "SELECT 1", id)
	local.Mark(StageExec)
	local.Finish(nil)
	local.Stitch(fetch())
	if len(fetched) != 1 {
		t.Error("a record with no remote span fetched the other server's")
	}
}

// TestStitchNeverShowsAWrongRecord: a remote span the other server's ring
// keeps no record for says backend="missing" and has no child. Its ring
// drops its oldest records first, so the records it still keeps are the last
// round trips'; when they cannot be paired with those spans — more of them
// than spans, another text, a record longer than its round trip, a failed
// round trip, a failed fetch — no span gets one.
func TestStitchNeverShowsAWrongRecord(t *testing.T) {
	const id = 0x123456789abc0003
	cache := cacheRecord(id, nil, "SELECT a", "SELECT b")
	a, b := backendRecord(id, "SELECT a", 0), backendRecord(id, "SELECT b", 0)
	failed := cacheRecord(id, errors.New("backend unreachable"), "SELECT a", "SELECT b")
	for _, c := range []struct {
		name string
		rec  *Record
		kept []*Record
		err  error
		want string // per remote span: the text of the record under it, or "missing"
	}{
		{"both kept", cache, []*Record{a, b}, nil, "SELECT a,SELECT b"},
		{"the first evicted", cache, []*Record{b}, nil, "missing,SELECT b"},
		{"both evicted", cache, nil, nil, "missing,missing"},
		{"one more than the spans", cache, []*Record{a, a, b}, nil, "missing,missing"},
		{"the first evicted, the second another text", cache, []*Record{a}, nil, "missing,missing"},
		{"a record longer than its round trip", cache, []*Record{a, backendRecord(id, "SELECT b", time.Hour)}, nil, "missing,missing"},
		{"a failed round trip", failed, []*Record{a, b}, nil, "missing,missing"},
		{"the fetch failed", cache, nil, fmt.Errorf("backend unreachable"), "missing,missing"},
	} {
		tree := c.rec.Stitch(func(uint64) ([]Record, error) {
			out := make([]Record, len(c.kept))
			for i, r := range c.kept {
				out[i] = *r
			}
			return out, c.err
		})
		var got []string
		for _, sp := range tree.Children[0].Children {
			switch {
			case sp.AttrValue("backend") == "missing" && len(sp.Children) == 0:
				got = append(got, "missing")
			case sp.AttrValue("backend") == "" && len(sp.Children) == 1:
				got = append(got, sp.Children[0].AttrValue("sql"))
			default:
				got = append(got, fmt.Sprintf("%v %d children", sp.Attrs, len(sp.Children)))
			}
		}
		if strings.Join(got, ",") != c.want {
			t.Errorf("%s: %s, want %s", c.name, strings.Join(got, ","), c.want)
		}
	}
}

// TestCollectorByID: ByID returns copies of the records kept under one ID,
// oldest first, across the ring's wrap, and none once they are overwritten.
func TestCollectorByID(t *testing.T) {
	c := NewCollector(3)
	for i, id := range []uint64{1, 2, 1, 1} {
		r := BeginStatement("backend", fmt.Sprint("SELECT ", i), id)
		r.Finish(nil)
		c.Add(r)
	}
	var texts []string
	for _, r := range c.ByID(1) {
		texts = append(texts, r.SQL)
	}
	if got := strings.Join(texts, ","); got != "SELECT 2,SELECT 3" {
		t.Errorf("ByID(1): %s, want the two kept, oldest first", got)
	}
	if got := c.ByID(2); len(got) != 1 || got[0].SQL != "SELECT 1" {
		t.Errorf("ByID(2): %+v", got)
	}
	c.Add(BeginStatement("backend", "SELECT 4", 3))
	if got := c.ByID(2); len(got) != 0 {
		t.Errorf("ByID of an overwritten record: %+v", got)
	}
}

// names lists a tree's span names, depth first.
func names(w *WireSpan) string {
	var out []string
	var walk func(*WireSpan)
	walk = func(w *WireSpan) {
		out = append(out, w.Name)
		for _, c := range w.Children {
			walk(c)
		}
	}
	walk(w)
	return strings.Join(out, ",")
}

// spanNames lists the rendered tree's span names, depth first.
func spanNames(r *Record) string { return names(r.Tree()) }

func TestSpanDurationRecorded(t *testing.T) {
	rec := BeginStatement("q", "", 0)
	i := rec.RemoteStart("SELECT 1")
	time.Sleep(time.Millisecond)
	rec.RemoteEnd(i, nil)
	d := rec.trip(i).dur
	if d < time.Millisecond {
		t.Errorf("duration %v too small", d)
	}
	time.Sleep(time.Millisecond)
	rec.Mark(StageExec)
	rec.Finish(nil)
	if got := time.Duration(rec.Tree().Find("remote").DurNanos); got != d {
		t.Error("duration must be frozen after RemoteEnd")
	}
	if rec.Stages[StageExec] < 2*time.Millisecond || rec.Total < rec.Stages[StageExec] {
		t.Errorf("stage clock: execute %v, total %v", rec.Stages[StageExec], rec.Total)
	}
}

// TestStageClock: a stage's duration is the time between two boundaries, a
// stage marked twice accumulates, a stage never marked did not run, and the
// tree shows a span per stage that ran — except a parse the shape cache made
// unnecessary and a result-cache lookup that missed.
func TestStageClock(t *testing.T) {
	rec := BeginStatement("cache", "SELECT 1", 0)
	rec.AutoParam = true
	rec.Mark(StageParse)
	rec.Mark(StageLookup)
	rec.PlanCache = PlanMiss
	rec.Mark(StagePlan)
	time.Sleep(time.Millisecond)
	rec.Mark(StageExec)
	once := rec.Stages[StageExec]
	time.Sleep(time.Millisecond)
	rec.Mark(StageExec)
	rec.Finish(nil)
	if once < time.Millisecond || rec.Stages[StageExec] < once+time.Millisecond {
		t.Errorf("execute stage: %v after one mark, %v after two", once, rec.Stages[StageExec])
	}
	if rec.Ran(StageGate) || !rec.Ran(StagePlan) {
		t.Error("Ran must report exactly the stages that were marked")
	}
	var sum time.Duration
	for _, d := range rec.Stages {
		sum += d
	}
	if sum > rec.Total {
		t.Errorf("stages sum to %v, more than the total %v", sum, rec.Total)
	}
	if got := spanNames(rec); got != "cache.exec,optimize,execute" {
		t.Errorf("span names %q", got)
	}
	if got := rec.Tree().Find("optimize").AttrValue("plan_cache"); got != "miss" {
		t.Errorf("plan_cache=%q", got)
	}
	if got := rec.Tree().AttrValue("autoparam"); got != "1" {
		t.Errorf("autoparam=%q", got)
	}
}

// TestManyRoundTripsAndAFailedOne: every round trip renders as a remote span
// under execute, in the order it was made, the ones past the inline array
// too; a failed one says how; each branch taken is a chooseplan attribute of
// execute, in order.
func TestManyRoundTripsAndAFailedOne(t *testing.T) {
	rec := BeginStatement("cache", "SELECT 1", 0)
	const n = 2*inlineTrips + 1
	for k := 0; k < n; k++ {
		i := rec.RemoteStart(fmt.Sprint("SELECT ", k))
		var err error
		if k == n-1 {
			err = errors.New("backend unreachable")
		}
		rec.RemoteEnd(i, err)
	}
	rec.Chose(BranchRemote)
	rec.Chose(BranchLocal)
	rec.Mark(StageExec)
	rec.Finish(nil)
	if got, want := spanNames(rec), "cache.exec,execute"+strings.Repeat(",remote", n); got != want {
		t.Fatalf("span names %s, want %s", got, want)
	}
	exec := rec.Tree().Find("execute")
	var last int64
	for k, sp := range exec.Children {
		if sp.AttrValue("sql") != fmt.Sprint("SELECT ", k) || sp.DurNanos < 0 || sp.StartUTC < last {
			t.Errorf("round trip %d: %+v", k, sp)
		}
		last = sp.StartUTC
		failed := k == n-1
		if failed != (sp.AttrValue("error") == "backend unreachable") || failed != (len(sp.Attrs) == 2) {
			t.Errorf("round trip %d (failed: %v): attributes %v", k, failed, sp.Attrs)
		}
	}
	if got := fmt.Sprint(exec.Attrs); got != "[{chooseplan remote} {chooseplan local}]" {
		t.Errorf("execute span attributes %s", got)
	}
}

// TestRecordRoundTripsAllocateNothing: what operators add to a record — a
// branch and two round trips, one of them failed — allocates nothing, nor
// does its release, whether the record is traced or not.
func TestRecordRoundTripsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	unreachable := errors.New("backend unreachable")
	for _, id := range []uint64{0x123456789abc0004, 0} {
		var trips int
		run := func() {
			rec := Begin("cache")
			rec.ID = id
			rec.Chose(BranchRemote)
			rec.RemoteEnd(rec.RemoteStart("SELECT a"), nil)
			rec.RemoteEnd(rec.RemoteStart("SELECT b"), unreachable)
			rec.Mark(StageExec)
			rec.Finish(nil)
			trips = rec.nTrips
			rec.Release()
		}
		if avg := testing.AllocsPerRun(200, run); avg != 0 {
			t.Errorf("trace ID %x: %.1f allocs per statement, want 0", id, avg)
		}
		want := 2 // an untraced record keeps none
		if id == 0 {
			want = 0
		}
		if trips != want {
			t.Errorf("trace ID %x: %d round trips kept, want %d", id, trips, want)
		}
	}
}

func TestCollectorRing(t *testing.T) {
	c := NewCollector(3)
	if c.Last() != nil {
		t.Error("empty collector Last must be nil")
	}
	for i := 0; i < 5; i++ {
		tr := BeginStatement("q", fmt.Sprint(i), 0)
		tr.Finish(nil)
		c.Add(tr)
		if last := c.Last(); last == nil || last == tr || last.ID != tr.ID || last.SQL != tr.SQL {
			t.Fatalf("Last after add %d: %+v, want a copy of %+v", i, last, tr)
		}
	}
	recent := c.Recent(0)
	if len(recent) != 3 {
		t.Fatalf("ring retained %d traces, want 3", len(recent))
	}
	for i, r := range recent {
		if want := fmt.Sprint(4 - i); r.SQL != want {
			t.Errorf("Recent[%d] is statement %s, want %s: newest first", i, r.SQL, want)
		}
	}
	if got := c.Recent(2); len(got) != 2 || got[0].SQL != "4" {
		t.Errorf("Recent(2) = %+v", got)
	}
	c.Reset()
	if c.Last() != nil || len(c.Recent(0)) != 0 {
		t.Error("Reset must drop all traces")
	}
}

// TestRingKeepsACopy: the ring copies a record when it is added, so releasing
// the record — and the pool handing it out again — changes nothing kept.
func TestRingKeepsACopy(t *testing.T) {
	c := NewCollector(2)
	rec := BeginStatement("cache", "SELECT 1", 0)
	rec.Chose(BranchLocal)
	rec.Mark(StageExec)
	rec.Finish(nil)
	c.Add(rec)
	want := Render(rec)
	id := rec.ID
	rec.Release()
	if rec.ID != 0 || rec.nBranches != 0 || rec.SQL != "" {
		t.Fatalf("a released record is not zeroed: %+v", rec)
	}
	next := BeginStatement("cache", "SELECT 2", 0)
	next.Chose(BranchRemote)
	next.Finish(nil)
	if got := Render(c.Last()); got != want || c.Last().ID != id {
		t.Errorf("the kept copy changed after its record was recycled:\n%s\nwant\n%s", got, want)
	}
}

func TestIDsUniqueAndRendered(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		id := BeginStatement("q", "", 0).ID
		if id == 0 || seen[id] {
			t.Fatalf("ID %x: zero or duplicate", id)
		}
		seen[id] = true
	}
	// The text is the one IDs have always had: %012x-%04x of the clock's low
	// 48 bits and a counter's low 16, and it parses back.
	at := time.Unix(0, 0x123456789abcdef)
	id := mintID(at)
	text := FormatID(id)
	if want := fmt.Sprintf("%012x-%04x", at.UnixNano()&0xffffffffffff, idCounter.Load()&0xffff); text != want {
		t.Errorf("FormatID = %q, want %q", text, want)
	}
	if back, err := ParseID(text); err != nil || back != id {
		t.Errorf("ParseID(%q) = %x, %v; want %x", text, back, err, id)
	}
	if FormatID(0) != "" {
		t.Error("FormatID(0) must be empty: 0 is untraced")
	}
	if id, err := ParseID(""); id != 0 || err != nil {
		t.Errorf(`ParseID("") = %x, %v; want 0, nil`, id, err)
	}
	for _, bad := range []string{"trace-xyz", "123456789abc_def0", "123456789abc-def", "123456789abg-def0", "000000000000-0000", "123456789abc-def01"} {
		if _, err := ParseID(bad); err == nil || !strings.Contains(err.Error(), bad) {
			t.Errorf("ParseID(%q): error %v, want one naming it", bad, err)
		}
	}
}

// TestRingCopiesOutliveRecycling: readers take copies from the ring, and
// stitch each, while four publishers each fill, add and release 1 000
// records, so the pool hands every released record to the next statement at
// once. Each record makes three round trips — the third past the inline
// array, the second failed. A copy a reader holds never changes afterwards:
// its digest when taken is its digest at the end; nor does a tree a
// publisher rendered before releasing its record. Run under -race, it also
// proves that no reader touches a live record, and no stitched view writes
// into a record's round trips.
func TestRingCopiesOutliveRecycling(t *testing.T) {
	c := NewCollector(16)
	digest := func(r *Record) string {
		return fmt.Sprintf("%s|%s|%d|%v|%v|%v", Render(r), r.SQL, r.Rows, r.Counters, r.Stages, r.Err)
	}
	type held struct {
		rec    *Record
		digest string
	}
	var publishers, readers sync.WaitGroup
	done := make(chan struct{})
	kept := make([][]held, 2)
	trees := make([][]*WireSpan, 4) // per publisher: a tree it rendered, then its text
	treeTexts := make([][]string, 4)
	for g := range kept {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				var take []*Record
				if last := c.Last(); last != nil {
					take = append(take, last)
				}
				recent := c.Recent(0)
				for j := range recent {
					take = append(take, &recent[j])
				}
				_ = Render(c.Last())
				for _, r := range take { // a stitched view changes nothing it was built from
					r.Stitch(func(uint64) ([]Record, error) { return nil, nil })
				}
				if i%8 == 0 && len(kept[g]) < 512 {
					for _, r := range take {
						kept[g] = append(kept[g], held{r, digest(r)})
					}
				}
			}
		}()
	}
	for p := 0; p < 4; p++ {
		publishers.Add(1)
		go func() {
			defer publishers.Done()
			for i := 0; i < 1000; i++ {
				rec := BeginStatement(fmt.Sprint("server", p), fmt.Sprint("SELECT ", i), 0)
				for k := 0; k < inlineTrips+1; k++ {
					trip := rec.RemoteStart(fmt.Sprint(rec.SQL, " part ", k))
					var err error
					if k == 1 {
						err = fmt.Errorf("attempt %d failed", i)
					}
					rec.RemoteEnd(trip, err)
				}
				rec.Chose(BranchRemote)
				rec.Rows, rec.Counters.RemoteQueries = int64(i), inlineTrips+1
				rec.Mark(StageExec)
				rec.Finish(nil)
				c.Add(rec)
				if i%50 == 0 {
					tree := rec.Tree()
					trees[p], treeTexts[p] = append(trees[p], tree), append(treeTexts[p], treeText(tree))
				}
				rec.Release()
			}
		}()
	}
	publishers.Wait()
	close(done)
	readers.Wait()
	n := 0
	for _, hs := range kept {
		for _, h := range hs {
			n++
			if got := digest(h.rec); got != h.digest {
				t.Fatalf("a copy changed after it was taken:\nthen %s\nnow  %s", h.digest, got)
			}
		}
	}
	if n == 0 {
		t.Fatal("the readers kept no copies")
	}
	for p := range trees {
		for i, tree := range trees[p] {
			if got, want := treeText(tree), treeTexts[p][i]; got != want || !strings.Contains(got, "part 2") {
				t.Fatalf("a rendered tree changed after its record was recycled:\nthen %s\nnow  %s", want, got)
			}
		}
	}
}

// treeText renders a tree as RenderTree does, without the record's header.
func treeText(w *WireSpan) string {
	var b strings.Builder
	renderSpan(&b, w, 0)
	return b.String()
}
