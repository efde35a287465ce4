package eventlog

import (
	"fmt"
	"sync"
	"testing"
)

func TestEventRingWrap(t *testing.T) {
	l := newRing(4)
	for i := 0; i < 10; i++ {
		l.emit("kind", "i", fmt.Sprint(i))
	}
	recent := l.recent(0)
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
	limited := l.recent(2)
	if len(limited) != 2 || limited[0].Seq != 10 || limited[1].Seq != 9 {
		t.Fatalf("recent(2) = %+v", limited)
	}
}

func TestEventOddFields(t *testing.T) {
	l := newRing(4)
	l.emit("k", "a", "1", "dangling")
	e := l.recent(1)[0]
	if e.Kind != "k" {
		t.Fatalf("kind = %q", e.Kind)
	}
	if e.Detail() != "a=1 dangling=" {
		t.Fatalf("detail = %q", e.Detail())
	}
}

// TestEventRingConcurrentEmitAndRead: writers and readers share the ring; the
// race detector is the check, and every retained sequence number is distinct.
func TestEventRingConcurrentEmitAndRead(t *testing.T) {
	l := newRing(64)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				l.emit("tick", "g", fmt.Sprint(g))
			}
		}(g)
	}
	for i := 0; i < 50; i++ {
		_ = l.recent(10)
	}
	wg.Wait()
	seen := map[int64]bool{}
	for _, e := range l.recent(0) {
		if seen[e.Seq] {
			t.Fatalf("sequence number %d retained twice", e.Seq)
		}
		seen[e.Seq] = true
	}
	if len(seen) != 64 {
		t.Fatalf("retained %d events, want the ring's 64", len(seen))
	}
}
