package trace

import (
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
	rec.Annotate(nil, "chooseplan", "local")
	r := rec.StartSpan(nil, "remote", Attr{K: "sql", V: "SELECT 1"})
	rec.EndSpan(r)
	rec.Mark(StageExec)
	rec.Finish(nil)

	if got := rec.Tree().Name; got != "cache.exec" {
		t.Errorf("root span %q", got)
	}
	if e := rec.FindSpan("execute"); e.AttrValue("chooseplan") != "local" {
		t.Errorf("attr lost: %q", e.AttrValue("chooseplan"))
	}
	if rec.FindSpan("remote") == nil {
		t.Error("FindSpan(remote) = nil")
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
	// body has one with no trace ID: every span method must be a no-op on
	// both, so untraced paths need no checks.
	for _, rec := range []*Record{nil, Begin("cache")} {
		c := rec.StartSpan(nil, "x")
		if c != nil {
			t.Error("StartSpan on an untraced record must return nil")
		}
		rec.Annotate(c, "k", "v")
		rec.EndSpan(c)
		if rec != nil && rec.spans != nil {
			t.Error("an untraced record kept operator spans")
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
// trip per text, each of them taking a millisecond or more.
func cacheRecord(id uint64, texts ...string) *Record {
	r := BeginStatement("cache", "SELECT 1", id)
	for _, q := range texts {
		sp := r.StartSpan(nil, "remote", Attr{K: "sql", V: q})
		time.Sleep(time.Millisecond)
		r.EndSpan(sp)
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
	cache := cacheRecord(id, "SELECT a", "SELECT b")
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
	cache := cacheRecord(id, "SELECT a", "SELECT b")
	a, b := backendRecord(id, "SELECT a", 0), backendRecord(id, "SELECT b", 0)
	failed := cacheRecord(id, "SELECT a", "SELECT b")
	failed.Annotate(failed.spans.Children[0], "error", "backend unreachable") // as the Remote operator does
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
	s := rec.StartSpan(nil, "stage")
	time.Sleep(time.Millisecond)
	rec.EndSpan(s)
	d := time.Duration(s.DurNanos)
	if d < time.Millisecond {
		t.Errorf("duration %v too small", d)
	}
	time.Sleep(time.Millisecond)
	rec.Mark(StageExec)
	rec.Finish(nil)
	if got := time.Duration(rec.FindSpan("stage").DurNanos); got != d {
		t.Error("duration must be frozen after EndSpan")
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
	if got := rec.FindSpan("optimize").AttrValue("plan_cache"); got != "miss" {
		t.Errorf("plan_cache=%q", got)
	}
	if got := rec.Tree().AttrValue("autoparam"); got != "1" {
		t.Errorf("autoparam=%q", got)
	}
}

// TestNestedSpansAndAttributes: an operator span may open spans under
// itself, attributes land on the span named (nil: the execute span), and the
// rendered tree nests them in the order they were opened.
func TestNestedSpansAndAttributes(t *testing.T) {
	rec := BeginStatement("cache", "SELECT 1", 0)
	outer := rec.StartSpan(nil, "remote", Attr{K: "sql", V: "SELECT 1"})
	for i := 0; i < 3; i++ {
		inner := rec.StartSpan(outer, "attempt")
		rec.Annotate(inner, "n", fmt.Sprint(i))
		rec.EndSpan(inner)
	}
	rec.Annotate(outer, "rows", "1")
	rec.Annotate(nil, "chooseplan", "remote")
	rec.EndSpan(outer)
	rec.Mark(StageExec)
	rec.Finish(nil)
	if got, want := spanNames(rec), "cache.exec,execute,remote,attempt,attempt,attempt"; got != want {
		t.Fatalf("span names %s, want %s", got, want)
	}
	remote := rec.FindSpan("remote")
	if remote.AttrValue("sql") != "SELECT 1" || remote.AttrValue("rows") != "1" {
		t.Errorf("remote span attributes %v", remote.Attrs)
	}
	for i, a := range remote.Children[:3] {
		if a.AttrValue("n") != fmt.Sprint(i) || a.DurNanos < 0 {
			t.Errorf("attempt %d: %+v", i, a)
		}
	}
	if got := rec.FindSpan("execute").AttrValue("chooseplan"); got != "remote" {
		t.Errorf("execute span chooseplan=%q", got)
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
	rec.Annotate(nil, "chooseplan", "local")
	rec.Mark(StageExec)
	rec.Finish(nil)
	c.Add(rec)
	want := Render(rec)
	id := rec.ID
	rec.Release()
	if rec.ID != 0 || rec.spans != nil || rec.SQL != "" {
		t.Fatalf("a released record is not zeroed: %+v", rec)
	}
	next := BeginStatement("cache", "SELECT 2", 0)
	next.Annotate(nil, "chooseplan", "remote")
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
// once. A copy a reader holds never changes afterwards: its digest when taken
// is its digest at the end. Run under -race, it also proves that no reader
// touches a live record, and no stitched view writes into a record's spans.
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
				sp := rec.StartSpan(nil, "remote", Attr{K: "sql", V: rec.SQL})
				rec.Annotate(sp, "attempt", fmt.Sprint(i))
				rec.EndSpan(sp)
				rec.Annotate(nil, "chooseplan", "remote")
				rec.Rows, rec.Counters.RemoteQueries = int64(i), 1
				rec.Mark(StageExec)
				rec.Finish(nil)
				c.Add(rec)
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
}
