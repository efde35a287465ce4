package metrics

import (
	"fmt"
	"sync"
	"testing"
)

func TestEventRingWrap(t *testing.T) {
	r := NewRegistry()
	const emitted = eventRing + 6
	for i := 0; i < emitted; i++ {
		r.Event("kind", "i", fmt.Sprint(i))
	}
	recent := r.Events(0)
	if len(recent) != eventRing {
		t.Fatalf("Events(0) = %d events, want the ring's %d", len(recent), eventRing)
	}
	// Newest first: seq emitted, emitted-1, ..., 7.
	for i, e := range recent {
		if want := int64(emitted - i); e.Seq != want {
			t.Fatalf("Events(0)[%d].Seq = %d, want %d", i, e.Seq, want)
		}
	}
	if want := fmt.Sprintf("i=%d", emitted-1); recent[0].Detail() != want {
		t.Fatalf("detail = %q, want %s", recent[0].Detail(), want)
	}
	limited := r.Events(2)
	if len(limited) != 2 || limited[0].Seq != emitted || limited[1].Seq != emitted-1 {
		t.Fatalf("Events(2) = %+v", limited)
	}
}

func TestEventOddFields(t *testing.T) {
	r := NewRegistry()
	r.Event("k", "a", "1", "dangling")
	e := r.Events(1)[0]
	if e.Kind != "k" {
		t.Fatalf("kind = %q", e.Kind)
	}
	if e.Detail() != "a=1 dangling=" {
		t.Fatalf("detail = %q", e.Detail())
	}
}

// TestEventRingConcurrentEmitAndRead: writers and readers share the ring; the
// race detector is the check, and every kept sequence number is distinct.
func TestEventRingConcurrentEmitAndRead(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Event("tick", "g", fmt.Sprint(g))
			}
		}(g)
	}
	for i := 0; i < 50; i++ {
		_ = r.Events(10)
	}
	wg.Wait()
	seen := map[int64]bool{}
	for _, e := range r.Events(0) {
		if seen[e.Seq] {
			t.Fatalf("sequence number %d kept twice", e.Seq)
		}
		seen[e.Seq] = true
	}
	if len(seen) != eventRing {
		t.Fatalf("kept %d events, want the ring's %d", len(seen), eventRing)
	}
	if got := r.Counter("tick").Value(); got != 2000 {
		t.Fatalf("tick counter = %d, want one per event (2000)", got)
	}
}

// TestEventIsItsCounter: an event adds exactly 1 to the counter of its kind,
// so each kind's counter is the number of events of that kind recorded.
func TestEventIsItsCounter(t *testing.T) {
	r := NewRegistry()
	r.Counter("wire.retries").Add(5)
	r.Event("wire.retries", "addr", "a")
	if got := r.Counter("wire.retries").Value(); got != 6 {
		t.Fatalf("wire.retries = %d after one event on 5, want 6", got)
	}

	r = NewRegistry()
	kinds := []string{"storage.checkpoints", "storage.gc_runs", "wire.view_seeded"}
	for i := 0; i < 100; i++ {
		r.Event(kinds[i%len(kinds)])
	}
	kept := map[string]int64{}
	for _, e := range r.Events(0) {
		kept[e.Kind]++
	}
	snap := r.Snapshot()
	for _, k := range kinds {
		if snap[k] != kept[k] || kept[k] == 0 {
			t.Errorf("%s: counter %d, events %d", k, snap[k], kept[k])
		}
	}
}

func TestResetEmptiesTheEventRing(t *testing.T) {
	r := NewRegistry()
	r.Event("storage.checkpoints")
	r.Event("storage.checkpoints")
	r.Reset()
	if got := r.Events(0); len(got) != 0 {
		t.Fatalf("Events(0) after Reset = %+v, want none", got)
	}
	r.Event("storage.gc_runs")
	if got := r.Events(0); len(got) != 1 || got[0].Seq != 1 || got[0].Kind != "storage.gc_runs" {
		t.Fatalf("first event after Reset = %+v, want seq 1", got)
	}
	if got := r.Counter("storage.checkpoints").Value(); got != 0 {
		t.Fatalf("storage.checkpoints after Reset = %d, want 0", got)
	}
}
