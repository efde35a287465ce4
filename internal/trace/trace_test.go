package trace

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanTreeAndRender(t *testing.T) {
	rec := BeginStatement("cache", "SELECT 1", "")
	if rec.ID == "" {
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
	for _, want := range []string{"trace " + rec.ID, "parse", "execute", `chooseplan="local"`, "remote", `sql="SELECT 1"`} {
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
	backend := BeginStatement("backend", "SELECT 1", "shared-id")
	backend.Mark(StageParse)
	backend.Annotate(nil, "rows", "42")
	backend.Mark(StageExec)
	backend.Finish(nil)

	w := backend.Tree()
	if w.Name != "backend.exec" || len(w.Children) != 2 {
		t.Fatalf("export shape: %+v", w)
	}

	// Cache-side record takes the exported tree under its remote span.
	cache := BeginStatement("cache", "SELECT 1", "shared-id")
	remote := cache.StartSpan(nil, "remote")
	cache.EndSpan(remote, w)
	cache.Mark(StageExec)
	cache.Finish(nil)

	grafted := cache.FindSpan("backend.exec")
	if grafted == nil {
		t.Fatal("grafted backend root not found")
	}
	if backend.ID != cache.ID {
		t.Errorf("backend record ID %q, cache record ID %q", backend.ID, cache.ID)
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
	rec := BeginStatement("q", "", "")
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
	rec := BeginStatement("cache", "SELECT 1", "")
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

// TestOperatorSpansConcurrently: exchange workers open, annotate and close
// spans of one record from their own goroutines.
func TestOperatorSpansConcurrently(t *testing.T) {
	rec := BeginStatement("cache", "SELECT 1", "")
	ex := rec.StartSpan(nil, "exchange", Attr{K: "dop", V: "8"})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := rec.StartSpan(ex, "worker")
			rec.Annotate(w, "rows", "1")
			rec.Annotate(nil, "chooseplan", "local")
			rec.EndSpan(w, nil)
		}()
	}
	wg.Wait()
	rec.EndSpan(ex, nil)
	rec.Mark(StageExec)
	rec.Finish(nil)
	if got := len(rec.FindSpan("exchange").Children); got != 8 {
		t.Errorf("%d worker spans, want 8", got)
	}
	if got := len(rec.FindSpan("execute").Attrs); got != 8 {
		t.Errorf("%d attributes on the execute span, want 8", got)
	}
}

func TestCollectorRing(t *testing.T) {
	c := NewCollector(3)
	if c.Last() != nil {
		t.Error("empty collector Last must be nil")
	}
	for i := 0; i < 5; i++ {
		tr := BeginStatement("q", "", "")
		tr.Finish(nil)
		c.Add(tr)
		if c.Last() != tr {
			t.Fatalf("Last after add %d", i)
		}
	}
	recent := c.Recent(0)
	if len(recent) != 3 {
		t.Fatalf("ring retained %d traces, want 3", len(recent))
	}
	if recent[0] != c.Last() {
		t.Error("Recent must be newest-first")
	}
	c.Reset()
	if c.Last() != nil || len(c.Recent(0)) != 0 {
		t.Error("Reset must drop all traces")
	}
}

func TestNewIDUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		id := BeginStatement("q", "", "").ID
		if seen[id] {
			t.Fatalf("duplicate ID %q", id)
		}
		seen[id] = true
	}
	// The format is the one IDs have always had: %012x-%04x of the clock's
	// low 48 bits and a counter's low 16.
	at := time.Unix(0, 0x123456789abcdef)
	if id, want := newID(at), fmt.Sprintf("%012x-%04x", at.UnixNano()&0xffffffffffff, idCounter.Load()&0xffff); id != want {
		t.Errorf("newID = %q, want %q", id, want)
	}
}
