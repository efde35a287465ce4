package querystore

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"mtcache/internal/trace"
)

// took returns r as the published record of an execution that took d: the
// execute stage is the latency the store keeps.
func took(d time.Duration, r *trace.Record) *trace.Record {
	r.Stages[trace.StageExec] = d
	return r
}

func TestRecordAndSnapshot(t *testing.T) {
	s := NewStore(8)
	s.SetSlowThreshold(0)
	for i := 0; i < 5; i++ {
		planCache := trace.PlanMiss
		if i > 0 {
			planCache = trace.PlanHit
		}
		s.Record(took(time.Duration(i+1)*time.Millisecond, &trace.Record{
			Shape:     "SELECT a FROM t WHERE id = @p",
			Variant:   "local",
			Rows:      2,
			PlanCache: planCache,
			Staleness: float64(i),
		}))
	}
	s.Record(took(10*time.Millisecond, &trace.Record{
		Shape:     "SELECT a FROM t WHERE id = @p",
		Variant:   "remote",
		Rows:      1,
		PlanCache: trace.PlanMiss,
		Counters:  trace.Counters{RemoteQueries: 1, RowsRemote: 1},
		Err:       errors.New("boom"),
	}))
	snaps := s.Snapshot()
	if len(snaps) != 1 {
		t.Fatalf("want 1 shape, got %d", len(snaps))
	}
	ss := snaps[0]
	if ss.Rollup.Execs != 6 || ss.Rollup.Rows != 11 {
		t.Fatalf("rollup execs/rows = %d/%d, want 6/11", ss.Rollup.Execs, ss.Rollup.Rows)
	}
	if ss.Rollup.LocalExecs != 5 || ss.Rollup.Remote != 1 {
		t.Fatalf("local/remote = %d/%d, want 5/1", ss.Rollup.LocalExecs, ss.Rollup.Remote)
	}
	if ss.Rollup.Hits != 4 || ss.Rollup.Misses != 2 {
		t.Fatalf("hits/misses = %d/%d, want 4/2", ss.Rollup.Hits, ss.Rollup.Misses)
	}
	if ss.Rollup.MaxStale != 4 {
		t.Fatalf("max staleness = %v, want 4", ss.Rollup.MaxStale)
	}
	if ss.Rollup.Errs != 1 || ss.LastError != "boom" {
		t.Fatalf("errors = %d lastErr = %q", ss.Rollup.Errs, ss.LastError)
	}
	if len(ss.Variants) != 2 {
		t.Fatalf("want 2 variants, got %d", len(ss.Variants))
	}
	// Variants sorted by descending execs: local (5) before remote (1).
	if ss.Variants[0].Variant != "local" || ss.Variants[1].Variant != "remote" {
		t.Fatalf("variant order = %q,%q", ss.Variants[0].Variant, ss.Variants[1].Variant)
	}
	// p99 over {1..5,10} ms must be the max.
	if got := ss.Rollup.P99Ms; got < 9.9 || got > 10.1 {
		t.Fatalf("rollup p99 = %v, want ~10", got)
	}
	if ss.Rollup.TotalMs < 24.9 || ss.Rollup.TotalMs > 25.1 {
		t.Fatalf("rollup total_ms = %v, want ~25", ss.Rollup.TotalMs)
	}
}

// The engine reports staleness -1 when it is unknown (a cached view before
// its first pull, or a query that touched no cached view). The sentinel must
// not enter the max-staleness aggregate as a negative sample, and a variant
// that never saw a real observation must answer -1, not 0.
func TestStalenessSentinelExcludedFromStats(t *testing.T) {
	s := NewStore(8)

	// Only sentinel samples: max staleness stays "unknown".
	for i := 0; i < 3; i++ {
		s.Record(&trace.Record{Shape: "SELECT a FROM unknown_t", Variant: "local", Staleness: -1})
	}
	// A mix: the sentinel must not mask or perturb the real observations.
	s.Record(&trace.Record{Shape: "SELECT b FROM mixed_t", Variant: "local", Staleness: -1})
	s.Record(&trace.Record{Shape: "SELECT b FROM mixed_t", Variant: "local", Staleness: 2.5})
	s.Record(&trace.Record{Shape: "SELECT b FROM mixed_t", Variant: "remote", Staleness: -1})

	for _, ss := range s.Snapshot() {
		switch ss.Shape {
		case "SELECT a FROM unknown_t":
			if ss.Rollup.MaxStale != -1 {
				t.Fatalf("unknown-only rollup MaxStale = %v, want -1", ss.Rollup.MaxStale)
			}
			for _, v := range ss.Variants {
				if v.MaxStale != -1 {
					t.Fatalf("unknown-only variant %q MaxStale = %v, want -1", v.Variant, v.MaxStale)
				}
			}
		case "SELECT b FROM mixed_t":
			if ss.Rollup.MaxStale != 2.5 {
				t.Fatalf("mixed rollup MaxStale = %v, want 2.5", ss.Rollup.MaxStale)
			}
			for _, v := range ss.Variants {
				switch v.Variant {
				case "local":
					if v.MaxStale != 2.5 {
						t.Fatalf("local MaxStale = %v, want 2.5", v.MaxStale)
					}
				case "remote":
					if v.MaxStale != -1 {
						t.Fatalf("remote MaxStale = %v, want -1", v.MaxStale)
					}
				}
			}
		default:
			t.Fatalf("unexpected shape %q", ss.Shape)
		}
	}
}

func TestLRUBound(t *testing.T) {
	s := NewStore(4)
	for i := 0; i < 10; i++ {
		s.Record(took(time.Microsecond, &trace.Record{Shape: fmt.Sprintf("q%d", i), Variant: "local"}))
	}
	if s.Len() != 4 {
		t.Fatalf("len = %d, want cap 4", s.Len())
	}
	snaps := s.Snapshot()
	if snaps[0].Shape != "q9" {
		t.Fatalf("most recent shape = %q, want q9", snaps[0].Shape)
	}
	// Touching an old retained shape keeps it alive past further inserts.
	s.Record(took(time.Microsecond, &trace.Record{Shape: "q6", Variant: "local"}))
	for i := 10; i < 13; i++ {
		s.Record(took(time.Microsecond, &trace.Record{Shape: fmt.Sprintf("q%d", i), Variant: "local"}))
	}
	found := false
	for _, ss := range s.Snapshot() {
		if ss.Shape == "q6" {
			found = true
		}
	}
	if !found {
		t.Fatal("recently-touched shape q6 was evicted")
	}
}

func TestDisableIsNoop(t *testing.T) {
	s := NewStore(4)
	s.SetEnabled(false)
	s.Record(took(time.Second, &trace.Record{Shape: "q", Variant: "local"}))
	if s.Len() != 0 {
		t.Fatal("disabled store accumulated a shape")
	}
	if s.WantCapture("q") {
		t.Fatal("disabled store armed a capture")
	}
	s.SetEnabled(true)
	s.Record(took(time.Microsecond, &trace.Record{Shape: "q", Variant: "local"}))
	if s.Len() != 1 {
		t.Fatal("re-enabled store did not accumulate")
	}
}

func TestSlowCaptureArmAndRearm(t *testing.T) {
	s := NewStore(4)
	s.SetSlowThreshold(5 * time.Millisecond)
	fast := took(time.Millisecond, &trace.Record{Shape: "q", Variant: "local"})
	slow := took(20*time.Millisecond, &trace.Record{Shape: "q", Variant: "local"})

	s.Record(fast)
	if s.WantCapture("q") {
		t.Fatal("fast execution armed capture")
	}
	s.Record(slow)
	if !s.WantCapture("q") {
		t.Fatal("slow execution did not arm capture")
	}
	if s.WantCapture("q") {
		t.Fatal("WantCapture did not clear the flag")
	}
	s.StoreAnalyzed("q", "local", "Scan t (rows=1)", "@__p0 = 7")
	// Within the re-arm interval further slow runs must not re-arm.
	s.Record(slow)
	if s.WantCapture("q") {
		t.Fatal("capture re-armed inside the re-arm interval")
	}
	// Shrink the re-arm interval and it arms again.
	s.rearmNanos.Store(0)
	s.Record(slow)
	if !s.WantCapture("q") {
		t.Fatal("capture did not re-arm after the interval elapsed")
	}
	snaps := s.Snapshot()
	if snaps[0].Variants[0].Analyzed != "Scan t (rows=1)" {
		t.Fatalf("analyzed plan not retained: %q", snaps[0].Variants[0].Analyzed)
	}
	if snaps[0].Variants[0].Literals != "@__p0 = 7" {
		t.Fatalf("captured literals not retained: %q", snaps[0].Variants[0].Literals)
	}
}

func TestNotePlanKeepsFirst(t *testing.T) {
	s := NewStore(4)
	s.NotePlan("q", "local", "plan-a")
	s.NotePlan("q", "local", "plan-b")
	snaps := s.Snapshot()
	if snaps[0].Variants[0].Plan != "plan-a" {
		t.Fatalf("plan = %q, want plan-a", snaps[0].Variants[0].Plan)
	}
}

func TestEventRingWrap(t *testing.T) {
	l := NewEventLog(4)
	for i := 0; i < 10; i++ {
		l.Emit("kind", "", "i", fmt.Sprint(i))
	}
	if l.Len() != 4 {
		t.Fatalf("len = %d, want 4", l.Len())
	}
	recent := l.Recent(0)
	if len(recent) != 4 {
		t.Fatalf("recent = %d events, want 4", len(recent))
	}
	// Newest first: seq 10, 9, 8, 7.
	for i, e := range recent {
		if want := int64(10 - i); e.Seq != want {
			t.Fatalf("recent[%d].Seq = %d, want %d", i, e.Seq, want)
		}
	}
	if recent[0].Detail() != "i=9" {
		t.Fatalf("detail = %q, want i=9", recent[0].Detail())
	}
	limited := l.Recent(2)
	if len(limited) != 2 || limited[0].Seq != 10 || limited[1].Seq != 9 {
		t.Fatalf("Recent(2) = %+v", limited)
	}
}

func TestEventOddFields(t *testing.T) {
	l := NewEventLog(4)
	l.Emit("k", "trace-1", "a", "1", "dangling")
	e := l.Recent(1)[0]
	if e.TraceID != "trace-1" {
		t.Fatalf("trace = %q", e.TraceID)
	}
	if e.Detail() != "a=1 dangling=" {
		t.Fatalf("detail = %q", e.Detail())
	}
}

func TestConcurrentRecordSnapshot(t *testing.T) {
	s := NewStore(32)
	l := NewEventLog(64)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s.Record(took(time.Microsecond, &trace.Record{Shape: fmt.Sprintf("q%d", i%40), Variant: "local", Rows: 1}))
				l.Emit("tick", "", "g", fmt.Sprint(g))
				if s.WantCapture(fmt.Sprintf("q%d", i%40)) {
					s.StoreAnalyzed(fmt.Sprintf("q%d", i%40), "local", "x", "")
				}
			}
		}(g)
	}
	for i := 0; i < 50; i++ {
		_ = s.Snapshot()
		_ = l.Recent(10)
	}
	wg.Wait()
	if s.Len() == 0 || s.Len() > 32 {
		t.Fatalf("len = %d, want 1..32", s.Len())
	}
}
