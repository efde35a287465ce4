package trace

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanTreeAndRender(t *testing.T) {
	rec := BeginStatement("cache", "SELECT 1", 0)
	if rec.ID == 0 {
		t.Fatal("BeginStatement must generate an ID")
	}
	rec.Mark(StageParse)
	rec.Annotate(nil, "chooseplan", "local")
	r := rec.StartSpan(nil, "remote", Attr{K: "sql", V: "SELECT 1"})
	rec.EndSpan(r, nil)
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
		rec.EndSpan(c, &WireSpan{Name: "w"})
		if rec != nil && rec.spans != nil {
			t.Error("an untraced record kept operator spans")
		}
	}
	var s *WireSpan
	if s.AttrValue("k") != "" || s.Find("x") != nil || (*Record)(nil).Tree() != nil {
		t.Error("nil span and nil record accessors must return zero values")
	}
}

func TestExportGraftRoundTrip(t *testing.T) {
	// Backend-side record.
	const shared = 0x123456789abc0001
	backend := BeginStatement("backend", "SELECT 1", shared)
	backend.Mark(StageParse)
	backend.Annotate(nil, "rows", "42")
	backend.Mark(StageExec)
	backend.Finish(nil)

	w := backend.Tree()
	if w.Name != "backend.exec" || len(w.Children) != 2 {
		t.Fatalf("export shape: %+v", w)
	}

	// Cache-side record takes the exported tree under its remote span.
	cache := BeginStatement("cache", "SELECT 1", shared)
	remote := cache.StartSpan(nil, "remote")
	cache.EndSpan(remote, w)
	cache.Mark(StageExec)
	cache.Finish(nil)

	grafted := cache.FindSpan("backend.exec")
	if grafted == nil {
		t.Fatal("grafted backend root not found")
	}
	if backend.ID != cache.ID {
		t.Errorf("backend record ID %x, cache record ID %x", backend.ID, cache.ID)
	}
	if grafted.Find("execute").AttrValue("rows") != "42" {
		t.Error("grafted attrs lost")
	}
	if got, want := spanNames(cache), "cache.exec,execute,remote,backend.exec,parse,execute"; got != want {
		t.Fatalf("span names: %v, want %v", got, want)
	}
}

// spanNames lists the rendered tree's span names, depth first.
func spanNames(r *Record) string {
	var names []string
	var walk func(*WireSpan)
	walk = func(w *WireSpan) {
		names = append(names, w.Name)
		for _, c := range w.Children {
			walk(c)
		}
	}
	walk(r.Tree())
	return strings.Join(names, ",")
}

func TestSpanDurationRecorded(t *testing.T) {
	rec := BeginStatement("q", "", 0)
	s := rec.StartSpan(nil, "stage")
	time.Sleep(time.Millisecond)
	rec.EndSpan(s, nil)
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
		rec.EndSpan(inner, nil)
	}
	rec.Annotate(outer, "rows", "1")
	rec.Annotate(nil, "chooseplan", "remote")
	rec.EndSpan(outer, &WireSpan{Name: "backend.exec"})
	rec.Mark(StageExec)
	rec.Finish(nil)
	if got, want := spanNames(rec), "cache.exec,execute,remote,attempt,attempt,attempt,backend.exec"; got != want {
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

// TestRingCopiesOutliveRecycling: readers take copies from the ring while
// four publishers each fill, add and release 1 000 records, so the pool hands
// every released record to the next statement at once. A copy a reader holds
// never changes afterwards: its digest when taken is its digest at the end.
// Run under -race, it also proves that no reader touches a live record.
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
				rec.EndSpan(sp, &WireSpan{Name: "backend.exec"})
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
