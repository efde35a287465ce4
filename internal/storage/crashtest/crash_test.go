package crashtest

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mtcache/internal/catalog"
	"mtcache/internal/engine"
	"mtcache/internal/storage"
)

// TestCrashRecoveryProperty is the crash-injection property test: run a
// randomized committed workload of inserts and DDL against a backend whose
// filesystem crashes at a random write (dropping, tearing or bit-flipping
// it), recover the on-disk state with the real filesystem, and assert the
// recovered database is exactly the state after a prefix of the committed
// sequence that contains every acknowledged commit, DDL included: an
// acknowledged CREATE is there with its rows, an unacknowledged one is absent
// or there and empty. 100 seeds vary the crash point, the damage kind, where
// the DDL falls and whether checkpoints run mid-workload.
func TestCrashRecoveryProperty(t *testing.T) {
	const seeds = 100
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runCrashSeed(t, seed)
		})
	}
}

func rowValue(seed, id int) string { return fmt.Sprintf("s%d-r%d", seed, id) }

// state is what a prefix of the workload leaves: each table's rows by id,
// and whether t has its secondary index.
type state struct {
	tables map[string]map[int64]string
	index  bool
}

func (s state) String() string {
	var names []string
	for name, rows := range s.tables {
		names = append(names, fmt.Sprintf("%s(%d rows)", name, len(rows)))
	}
	slices.Sort(names)
	return fmt.Sprintf("%v index=%v", names, s.index)
}

func (s state) equal(o state) bool {
	if s.index != o.index || len(s.tables) != len(o.tables) {
		return false
	}
	for name, rows := range s.tables {
		other, ok := o.tables[name]
		if !ok || len(other) != len(rows) {
			return false
		}
		for id, v := range rows {
			if other[id] != v {
				return false
			}
		}
	}
	return true
}

// op is one statement of the workload and what it does to a state.
type op struct {
	sql   string
	apply func(*state)
}

// crashWorkload is seed's sequence: CREATE TABLE t, then 200 inserts with a
// CREATE TABLE u, a CREATE INDEX on t and a DROP TABLE u falling between
// them. While u exists every third insert goes to it.
func crashWorkload(seed int, rng *rand.Rand) []op {
	createAt := 2 + rng.Intn(15)
	indexAt := createAt + 1 + rng.Intn(15)
	dropAt := indexAt + 1 + rng.Intn(15)
	ops := []op{{"CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR)", func(s *state) { s.tables["t"] = map[int64]string{} }}}
	for id := 1; id <= 200; id++ {
		switch id {
		case createAt:
			ops = append(ops, op{"CREATE TABLE u (id INT PRIMARY KEY, v VARCHAR)", func(s *state) { s.tables["u"] = map[int64]string{} }})
		case indexAt:
			ops = append(ops, op{"CREATE INDEX t_v ON t (v)", func(s *state) { s.index = true }})
		case dropAt:
			ops = append(ops, op{"DROP TABLE u", func(s *state) { delete(s.tables, "u") }})
		}
		table := "t"
		if id%3 == 0 && id >= createAt && id < dropAt {
			table = "u"
		}
		id, v := int64(id), rowValue(seed, id)
		ops = append(ops, op{fmt.Sprintf("INSERT INTO %s (id, v) VALUES (%d, '%s')", table, id, v),
			func(s *state) { s.tables[table][id] = v }})
	}
	return ops
}

// recovered reads db's state back.
func recovered(t *testing.T, db *engine.Database) state {
	t.Helper()
	s := state{tables: map[string]map[int64]string{}}
	for _, name := range []string{"t", "u"} {
		meta := db.Catalog().Table(name)
		if meta == nil {
			continue
		}
		rows := map[int64]string{}
		res, err := db.Exec("SELECT id, v FROM "+name, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range res.Rows {
			if _, dup := rows[row[0].Int()]; dup {
				t.Fatalf("row id %d recovered twice in %s", row[0].Int(), name)
			}
			rows[row[0].Int()] = row[1].Str()
		}
		res.Release()
		s.tables[name] = rows
		if name == "t" {
			s.index = slices.ContainsFunc(meta.Indexes, func(idx *catalog.Index) bool { return idx.Name == "t_v" })
		}
	}
	return s
}

func openBackend(opts storage.DurabilityOptions) (*engine.Database, error) {
	return engine.Open(engine.Config{Name: "crash", Role: engine.Backend, Durability: &opts})
}

func runCrashSeed(t *testing.T, seed int) {
	rng := rand.New(rand.NewSource(int64(seed)))
	dir := t.TempDir()
	kind := FaultKind(rng.Intn(3))
	// Crash somewhere in the first ~60 writes: early enough to hit segment
	// creation and checkpoint writes, late enough to leave committed state.
	crashAt := 1 + rng.Intn(60)
	checkpointEvery := 0
	if rng.Intn(2) == 0 {
		checkpointEvery = 3 + rng.Intn(8) // manual, in the loop below
	}
	ffs := New(storage.OSFS(), kind, crashAt, rng.Int())
	ops := crashWorkload(seed, rng)

	// Run the workload sequentially until the crash bites. Every statement
	// that returns nil is acknowledged durable (group commit); the one that
	// fails may or may not have reached the log.
	acked, issued := 0, 0
	db, err := openBackend(storage.DurabilityOptions{Dir: dir, FS: ffs})
	if err == nil {
		for _, o := range ops {
			issued++
			res, err := db.Exec(o.sql, nil)
			if err != nil {
				break
			}
			res.Release()
			acked++
			if checkpointEvery > 0 && acked%checkpointEvery == 0 {
				db.Checkpoint() //nolint:errcheck // a crash mid-checkpoint is part of the test
			}
		}
		db.CloseStore() //nolint:errcheck // the log is wedged after the crash
	} else if !errors.Is(err, ErrCrashed) {
		t.Fatalf("open failed before the fault: %v", err)
	}
	if !ffs.Crashed() && acked < len(ops) {
		t.Fatalf("workload stopped at %d statements but the fault (write %d, %s) never triggered", acked, crashAt, kind)
	}

	// Recover with the real filesystem — what a restarted process would see.
	r, err := openBackend(storage.DurabilityOptions{Dir: dir})
	if err != nil {
		t.Fatalf("recover after %s crash at write %d (acked %d): %v", kind, crashAt, acked, err)
	}
	got := recovered(t, r)
	stats := r.Store().Recovered()

	// The recovered database must be the state after some prefix of at least
	// the acknowledged statements: no lost acknowledged commit or DDL, no
	// hole, no damaged row surviving the CRC check.
	want := state{tables: map[string]map[int64]string{}}
	for _, o := range ops[:acked] {
		o.apply(&want)
	}
	k := acked
	for !got.equal(want) && k < issued {
		ops[k].apply(&want)
		k++
	}
	if !got.equal(want) {
		t.Fatalf("%s crash at write %d: recovered %v, which is no prefix of at least the %d acknowledged statements (ckpt=%d replayed=%d torn=%v crc=%d)",
			kind, crashAt, got, acked, stats.CheckpointLSN, stats.ReplayedTxns, stats.TornTail, stats.CRCErrors)
	}

	// The recovered database must accept new commits and DDL and survive
	// another clean restart — recovery left a self-consistent log.
	next := int64(len(ops))
	after := []string{
		fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, '%s')", next, rowValue(seed, int(next))),
		"CREATE TABLE w (id INT PRIMARY KEY)",
	}
	if _, ok := want.tables["t"]; !ok { // the crash came before t's CREATE was durable
		after = append([]string{ops[0].sql}, after...)
		ops[0].apply(&want)
	}
	for _, text := range after {
		res, err := r.Exec(text, nil)
		if err != nil {
			t.Fatalf("%s after recovery: %v", text, err)
		}
		res.Release()
	}
	if err := r.CloseStore(); err != nil {
		t.Fatalf("close after recovery: %v", err)
	}
	r2, err := openBackend(storage.DurabilityOptions{Dir: dir})
	if err != nil {
		t.Fatalf("recover on clean restart: %v", err)
	}
	defer r2.CloseStore()
	again := recovered(t, r2)
	want.tables["t"][next] = rowValue(seed, int(next))
	if !again.equal(want) || r2.Catalog().Table("w") == nil {
		t.Fatalf("clean restart recovered %v (w: %v), want %v and w", again, r2.Catalog().Table("w") != nil, want)
	}
}
