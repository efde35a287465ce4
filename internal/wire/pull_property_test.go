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
// (lossy) TCP link with a randomized schedule of backend commits, pulls,
// and deliberately stale acks (simulating lost responses), and checks the
// protocol's invariant: every committed transaction is delivered exactly
// once to an ack-honest subscriber, in LSN order, no matter how often
// batches are re-delivered on the wire.
func TestPullExactlyOnceProperty(t *testing.T) {
	for _, seed := range []int64{1, 7, 20030609} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runPullProperty(t, seed)
		})
	}
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

	subID, startLSN, _, err := client.Provision("part", nil, "", "prop", "sub")
	if err != nil {
		t.Fatal(err)
	}
	proxy.SetFaults(FaultConfig{DropRate: 0.2})

	rng := rand.New(rand.NewSource(seed))
	var (
		applied     []storage.LSN // LSNs the subscriber accepted, in order
		ack         = startLSN - 1
		commits     = 0
		redelivered = 0
	)
	pullOnce := func(useAck storage.LSN) {
		batches, _, err := client.Pull(subID, 0, useAck)
		if err != nil {
			return // lossy link; the protocol tolerates failed pulls
		}
		prev := storage.LSN(-1)
		for _, b := range batches {
			if b.LSN <= prev {
				t.Fatalf("batches out of LSN order: %d after %d", b.LSN, prev)
			}
			prev = b.LSN
			if b.LSN <= ack {
				redelivered++ // already applied; the dedup guard rejects it
				continue
			}
			applied = append(applied, b.LSN)
			ack = b.LSN
		}
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
		switch rng.Intn(3) {
		case 0:
			pullOnce(ack)
		case 1:
			// Lost-response simulation: pull again with a stale ack; the
			// server must re-deliver everything past it.
			stale := startLSN - 1
			if len(applied) > 1 {
				stale = applied[rng.Intn(len(applied))]
			}
			pullOnce(stale)
		case 2:
			// No pull this round; batches accumulate.
		}
	}

	// Drain to quiescence over a healed link.
	proxy.SetFaults(FaultConfig{})
	deadline := time.Now().Add(10 * time.Second)
	for len(applied) < commits && time.Now().Before(deadline) {
		pullOnce(ack)
	}

	if len(applied) != commits {
		t.Fatalf("exactly-once violated: %d commits, %d applied", commits, len(applied))
	}
	// The last batches are still queued (deletion only happens once a later
	// pull acks them), so a full-rewind pull must re-deliver — and the dedup
	// guard must reject every re-delivery.
	pullOnce(startLSN - 1)
	if len(applied) != commits {
		t.Fatalf("re-delivered batches were re-applied: %d commits, %d applied", commits, len(applied))
	}
	for i := 1; i < len(applied); i++ {
		if applied[i] <= applied[i-1] {
			t.Fatalf("apply order violated: %v", applied)
		}
	}
	if redelivered == 0 {
		t.Error("schedule never exercised re-delivery; stale-ack pulls should have")
	}
}
