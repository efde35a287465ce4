package storage

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"mtcache/internal/types"
)

// TestGroupCommitConcurrent drives concurrent committers through group
// commit and checks its contract: every commit that returned success is
// assigned a unique LSN, the LSN sequence has no gaps, and the record is
// durable (SyncedLSN has passed it) before Commit returns. Run with -race.
// The case is a subtest named after the commit rule, group commit.
func TestGroupCommitConcurrent(t *testing.T) {
	t.Run("group", testGroupCommitConcurrent)
}

func testGroupCommitConcurrent(t *testing.T) {
	const (
		writers   = 8
		perWriter = 50
	)
	dir := t.TempDir()
	s := newDurableStore(t, dir, DurabilityOptions{})

	type result struct {
		lsn     LSN
		durable LSN // SyncedLSN observed immediately after Commit
	}
	results := make([][]result, writers)
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				tx := s.Begin(true)
				id := int64(w*perWriter + i)
				if _, err := tx.Insert("t", types.Row{types.NewInt(id), types.NewString(fmt.Sprintf("w%d", w))}); err != nil {
					errs <- err
					tx.Abort()
					return
				}
				lsn, err := tx.Commit()
				if err != nil {
					errs <- err
					return
				}
				results[w] = append(results[w], result{lsn: lsn, durable: s.SyncedLSN()})
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("commit error: %v", err)
	}

	seen := make(map[LSN]bool)
	for w := range results {
		for _, r := range results[w] {
			if seen[r.lsn] {
				t.Fatalf("LSN %d assigned twice", r.lsn)
			}
			seen[r.lsn] = true
			if r.durable < r.lsn {
				t.Fatalf("Commit returned at LSN %d with durable watermark %d", r.lsn, r.durable)
			}
		}
	}
	total := writers * perWriter
	if len(seen) != total {
		t.Fatalf("got %d commits, want %d", len(seen), total)
	}
	for lsn := LSN(1); lsn <= LSN(total); lsn++ {
		if !seen[lsn] {
			t.Fatalf("LSN sequence has a gap at %d", lsn)
		}
	}

	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	r := newDurableStore(t, dir, DurabilityOptions{})
	if err := r.Recover(nil); err != nil {
		t.Fatalf("recover: %v", err)
	}
	stats := r.Recovered()
	if stats.ReplayedTxns != total {
		t.Fatalf("recovered %d txns after clean close, want %d", stats.ReplayedTxns, total)
	}
	if got := len(sortedRows(t, r)); got != total {
		t.Fatalf("recovered %d rows, want %d", got, total)
	}
	r.Close()
}

// slowSyncFS makes every fsync take a fixed wall-clock time, modelling a
// real disk; on the test machine's filesystem fsync can be near-instant,
// which would let commits drain one per flush and hide batching.
type slowSyncFS struct {
	FS
	delay time.Duration
}

func (s slowSyncFS) Create(name string) (File, error) {
	f, err := s.FS.Create(name)
	return slowSyncFile{f, s.delay}, err
}

type slowSyncFile struct {
	File
	delay time.Duration
}

func (f slowSyncFile) Sync() error {
	time.Sleep(f.delay)
	return f.File.Sync()
}

// TestGroupCommitBatchesFsyncs checks that group commit actually coalesces:
// with many concurrent committers the fsync count must be well below the
// commit count (otherwise it degenerates to one fsync per commit).
func TestGroupCommitBatchesFsyncs(t *testing.T) {
	dir := t.TempDir()
	s := newDurableStore(t, dir, DurabilityOptions{FS: slowSyncFS{OSFS(), time.Millisecond}})
	const writers, perWriter = 16, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				tx := s.Begin(true)
				id := int64(w*perWriter + i)
				tx.Insert("t", types.Row{types.NewInt(id), types.NewString("x")}) //nolint:errcheck
				if _, err := tx.Commit(); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	fsyncs := s.durable.fsyncCount()
	commits := int64(writers * perWriter)
	if fsyncs >= commits {
		t.Fatalf("group commit did not batch: %d fsyncs for %d commits", fsyncs, commits)
	}
	t.Logf("group commit: %d commits, %d fsyncs (%.1fx batching)", commits, fsyncs, float64(commits)/float64(fsyncs))
	s.Close()
}

// TestConcurrentCommitWithCheckpoint races committers against checkpoints and
// verifies the recovered state afterward — a checkpoint taken mid-burst must
// capture a consistent prefix and replay must supply exactly the rest.
func TestConcurrentCommitWithCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s := newDurableStore(t, dir, DurabilityOptions{})
	const writers, perWriter = 4, 30
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var ckWG sync.WaitGroup
	ckWG.Add(1)
	go func() {
		defer ckWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if _, err := s.Checkpoint(); err != nil {
					t.Errorf("checkpoint: %v", err)
					return
				}
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				tx := s.Begin(true)
				id := int64(w*perWriter + i)
				tx.Insert("t", types.Row{types.NewInt(id), types.NewString("y")}) //nolint:errcheck
				if _, err := tx.Commit(); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	ckWG.Wait()
	want := sortedRows(t, s)
	s.Close()

	r := newDurableStore(t, dir, DurabilityOptions{})
	if err := r.Recover(nil); err != nil {
		t.Fatalf("recover: %v", err)
	}
	if got := sortedRows(t, r); !equalStrings(got, want) {
		t.Fatalf("recovered %d rows, want %d", len(got), len(want))
	}
	r.Close()
}
