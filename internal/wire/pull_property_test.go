package wire

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"mtcache/internal/metrics"
	"mtcache/internal/resilience"
	"mtcache/internal/storage"
)

// TestPullExactlyOnceProperty drives the ack-based pull protocol over a real
// (lossy) TCP link with a randomized schedule of backend commits and, for each
// of two subscriptions, its own schedule of pulls and deliberately stale acks
// (simulating lost responses), and checks the protocol's invariant for both:
// every committed transaction is delivered exactly once to an ack-honest
// subscriber, in LSN order, no matter how often batches are re-delivered on
// the wire — while every pull truncates the log at the lower of the two acks.
func TestPullExactlyOnceProperty(t *testing.T) {
	for _, seed := range []int64{1, 7, 20030609} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runPullProperty(t, seed)
		})
	}
}

// propSub is one subscriber of the property: what it accepted and acks with.
type propSub struct {
	id          int
	start       storage.LSN   // the first LSN its stream carries
	applied     []storage.LSN // LSNs the subscriber accepted, in order
	ack         storage.LSN
	seen        storage.LSN // the highest ack a successful pull carried: the server has it
	redelivered int
}

func runPullProperty(t *testing.T, seed int64) {
	backend, srv := newWiredBackend(t)
	proxy, err := NewFaultProxy("127.0.0.1:0", srv.Addr(), seed)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	policy := resilience.DefaultPolicy()
	policy.MaxAttempts = 10
	policy.BaseDelay = 2 * time.Millisecond
	policy.MaxDelay = 20 * time.Millisecond
	client, err := DialResilient(proxy.Addr(), policy, metrics.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	subs := make([]*propSub, 2)
	for i := range subs {
		a, err := client.Provision("part", nil, "", fmt.Sprintf("prop%d", i), "sub", 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = &propSub{id: a.SubID, start: a.StartLSN, ack: a.StartLSN - 1, seen: a.StartLSN - 1}
	}
	proxy.SetFaults(FaultConfig{DropRate: 0.2})

	rng := rand.New(rand.NewSource(seed))
	commits := 0
	pullOnce := func(s *propSub, useAck storage.LSN) {
		batches, _, err := client.Pull(s.id, 0, useAck)
		if err != nil {
			return // lossy link; the protocol tolerates failed pulls
		}
		prev := storage.LSN(-1)
		for _, b := range batches {
			if b.LSN <= prev {
				t.Fatalf("sub %d: batches out of LSN order: %d after %d", s.id, b.LSN, prev)
			}
			prev = b.LSN
			if b.LSN <= s.seen {
				t.Fatalf("sub %d: batch %d re-delivered at or below the acknowledged %d", s.id, b.LSN, s.seen)
			}
			if b.LSN <= s.ack {
				s.redelivered++ // already applied; the dedup guard rejects it
				continue
			}
			s.applied = append(s.applied, b.LSN)
			s.ack = b.LSN
		}
		s.seen = max(s.seen, useAck)
	}

	for round := 0; round < 30; round++ {
		// Commit a random burst of transactions.
		burst := 1 + rng.Intn(3)
		for i := 0; i < burst; i++ {
			commits++
			stmt := fmt.Sprintf("UPDATE part SET qty = %d WHERE id = %d", 50000+commits, commits)
			if _, err := backend.Exec(stmt, nil); err != nil {
				t.Fatal(err)
			}
		}
		for _, s := range subs {
			switch rng.Intn(3) {
			case 0:
				pullOnce(s, s.ack)
			case 1:
				// Lost-response simulation: pull again with a stale ack; the
				// server must re-deliver everything past the highest ack it saw,
				// and nothing at or below it.
				stale := s.start - 1
				if len(s.applied) > 1 {
					stale = s.applied[rng.Intn(len(s.applied))]
				}
				pullOnce(s, stale)
			case 2:
				// No pull this round; batches accumulate.
			}
		}
	}

	// Drain to quiescence over a healed link.
	proxy.SetFaults(FaultConfig{})
	deadline := time.Now().Add(10 * time.Second)
	for _, s := range subs {
		for len(s.applied) < commits && time.Now().Before(deadline) {
			pullOnce(s, s.ack)
		}
	}

	for _, s := range subs {
		if len(s.applied) != commits {
			t.Fatalf("sub %d: exactly-once violated: %d commits, %d applied", s.id, commits, len(s.applied))
		}
		// The last batches are still unacknowledged (the log keeps them until a
		// later pull acks them), so a full-rewind pull must re-deliver — and the
		// dedup guard must reject every re-delivery.
		pullOnce(s, s.start-1)
		if len(s.applied) != commits {
			t.Fatalf("sub %d: re-delivered batches were re-applied: %d commits, %d applied", s.id, commits, len(s.applied))
		}
		for i := 1; i < len(s.applied); i++ {
			if s.applied[i] <= s.applied[i-1] {
				t.Fatalf("sub %d: apply order violated: %v", s.id, s.applied)
			}
		}
		if s.redelivered == 0 {
			t.Errorf("sub %d: schedule never exercised re-delivery; stale-ack pulls should have", s.id)
		}
	}
}
