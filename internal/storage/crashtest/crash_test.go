package crashtest

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"mtcache/internal/catalog"
	"mtcache/internal/storage"
	"mtcache/internal/types"
)

// TestCrashRecoveryProperty is the crash-injection property test: run a
// randomized committed workload against a store whose filesystem crashes at
// a random write (dropping, tearing or bit-flipping it), recover the on-disk
// state with the real filesystem, and assert the recovered store is exactly
// a prefix of the committed sequence that contains every acknowledged
// commit. 100 seeds vary the crash point, the damage kind, the sync policy
// and whether checkpoints run mid-workload.
func TestCrashRecoveryProperty(t *testing.T) {
	const seeds = 100
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runCrashSeed(t, seed)
		})
	}
}

func crashMeta() *catalog.Table {
	return &catalog.Table{
		Name: "t",
		Columns: []catalog.Column{
			{Name: "id", Type: types.KindInt, NotNull: true},
			{Name: "v", Type: types.KindString},
		},
		PrimaryKey: []int{0},
	}
}

func rowValue(seed, id int) string { return fmt.Sprintf("s%d-r%d", seed, id) }

func runCrashSeed(t *testing.T, seed int) {
	rng := rand.New(rand.NewSource(int64(seed)))
	dir := t.TempDir()
	kind := FaultKind(rng.Intn(3))
	policy := []storage.SyncPolicy{storage.SyncAlways, storage.SyncGroup}[rng.Intn(2)]
	// Crash somewhere in the first ~60 writes: early enough to hit segment
	// creation and checkpoint writes, late enough to leave committed state.
	crashAt := 1 + rng.Intn(60)
	checkpointEvery := 0
	if rng.Intn(2) == 0 {
		checkpointEvery = 3 + rng.Intn(8) // manual, in the loop below
	}
	ffs := New(storage.OSFS(), kind, crashAt, rng.Int())

	s := storage.NewStore()
	err := s.EnableDurability(storage.DurabilityOptions{
		Dir:    dir,
		Policy: policy,
		FS:     ffs,
	})
	acked := 0
	if err == nil {
		if err := s.CreateTable(crashMeta()); err != nil {
			t.Fatalf("create table: %v", err)
		}
		// Commit sequentially until the crash bites. Every commit that
		// returns nil is acknowledged durable (always/group policies).
		for id := 1; id <= 200; id++ {
			tx := s.Begin(true)
			if _, ierr := tx.Insert("t", types.Row{types.NewInt(int64(id)), types.NewString(rowValue(seed, id))}); ierr != nil {
				tx.Abort()
				break
			}
			if _, cerr := tx.Commit(); cerr != nil {
				break
			}
			acked = id
			if checkpointEvery > 0 && id%checkpointEvery == 0 {
				s.Checkpoint() //nolint:errcheck // a crash mid-checkpoint is part of the test
			}
		}
		s.Close() //nolint:errcheck // the log is wedged after the crash
	} else if !errors.Is(err, ErrCrashed) {
		t.Fatalf("EnableDurability failed before the fault: %v", err)
	}
	if !ffs.Crashed() && acked < 200 {
		t.Fatalf("workload stopped at %d commits but the fault (write %d, %s) never triggered", acked, crashAt, kind)
	}

	// Recover with the real filesystem — what a restarted process would see.
	r := storage.NewStore()
	if err := r.EnableDurability(storage.DurabilityOptions{Dir: dir, Policy: policy}); err != nil {
		t.Fatalf("reopen after %s crash at write %d: %v", kind, crashAt, err)
	}
	if err := r.CreateTable(crashMeta()); err != nil {
		t.Fatalf("recreate table: %v", err)
	}
	stats, err := r.Recover()
	if err != nil {
		t.Fatalf("recover after %s crash at write %d (acked %d): %v", kind, crashAt, acked, err)
	}

	// The recovered store must hold rows 1..m for some m >= acked, each with
	// the exact payload that was committed: no lost acknowledged commit, no
	// hole, no damaged row surviving the CRC check.
	tx := r.Begin(false)
	tv := tx.Table("t")
	rows := tv.Rows()
	got := make(map[int64]string, len(rows))
	for _, row := range rows {
		if _, dup := got[row[0].Int()]; dup {
			t.Fatalf("row id %d recovered twice", row[0].Int())
		}
		got[row[0].Int()] = row[1].S
	}
	tx.Abort()

	m := len(got)
	if m < acked {
		t.Fatalf("%s crash at write %d: lost acknowledged commits — recovered %d rows, %d were acked (ckpt=%d replayed=%d torn=%v crc=%d)",
			kind, crashAt, m, acked, stats.CheckpointLSN, stats.ReplayedTxns, stats.TornTail, stats.CRCErrors)
	}
	for id := 1; id <= m; id++ {
		v, ok := got[int64(id)]
		if !ok {
			t.Fatalf("%s crash at write %d: recovered %d rows but id %d is missing (not a prefix)", kind, crashAt, m, id)
		}
		if want := rowValue(seed, id); v != want {
			t.Fatalf("row %d recovered with payload %q, want %q", id, v, want)
		}
	}

	// The recovered store must accept new commits and survive another clean
	// restart — recovery left a self-consistent log.
	tx = r.Begin(true)
	if _, err := tx.Insert("t", types.Row{types.NewInt(int64(m + 1)), types.NewString(rowValue(seed, m+1))}); err != nil {
		t.Fatalf("insert after recovery: %v", err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatalf("commit after recovery: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("close after recovery: %v", err)
	}

	r2 := storage.NewStore()
	if err := r2.EnableDurability(storage.DurabilityOptions{Dir: dir, Policy: policy}); err != nil {
		t.Fatalf("third open: %v", err)
	}
	if err := r2.CreateTable(crashMeta()); err != nil {
		t.Fatal(err)
	}
	if _, err := r2.Recover(); err != nil {
		t.Fatalf("recover on clean restart: %v", err)
	}
	tx = r2.Begin(false)
	if n := tx.Table("t").Count(); n != m+1 {
		t.Fatalf("clean restart recovered %d rows, want %d", n, m+1)
	}
	tx.Abort()
	r2.Close()
}
