package core

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mtcache/internal/engine"
	"mtcache/internal/exec"
	"mtcache/internal/storage"
	"mtcache/internal/types"
)

// latchWait is how a goroutine blocked waiting for a table latch shows in a
// stack dump: these tests depend on storage.(*Store).acquireLatch keeping
// that name and waiting on a sync.Cond.
var latchWait = [...]string{"sync.(*Cond).Wait", "storage.(*Store).acquireLatch"}

// latchWaiters counts the goroutines blocked waiting for a table latch.
func latchWaiters() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	waiting := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, latchWait[0]) && strings.Contains(g, latchWait[1]) {
			waiting++
		}
	}
	return waiting
}

// awaitLatchWaiters returns once n goroutines are blocked on a table latch,
// and fails the test, naming step, if that takes ten seconds.
func awaitLatchWaiters(t *testing.T, n int, step string) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); latchWaiters() != n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines wait in %s after 10s, want %d", step, latchWaiters(), latchWait[1], n)
		}
	}
}

// TestPooledWriteTxnsUnderConcurrentCalls: a backend's writes — procedure
// calls and DML text — each begin in a write transaction recycled from a
// pool, and hand it back only once it has committed or aborted: on a durable
// backend, after the group commit's fsync, for which a committer sleeps
// while the other writers run and take transactions from the pool. Concurrent
// calls on one backend that latch two tables in either order (some of them
// deadlock victims), calls that abort in the middle of their bodies on a
// duplicate key, and one-statement inserts run side by side with a call made
// a deadlock victim on purpose: it holds one table, waits for a second that
// a test transaction holds, and asks for a third held by a transaction
// waiting for its first. Afterwards every committed call's rows are there,
// no failed call's row is, and no table's latch is held by anyone.
func TestPooledWriteTxnsUnderConcurrentCalls(t *testing.T) {
	b, err := NewBackendDurable("backend", storage.DurabilityOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.DB.CloseStore() })
	if err := b.ExecScript(`
		CREATE TABLE a (id INT PRIMARY KEY, v INT);
		CREATE TABLE bt (id INT PRIMARY KEY, v INT);
		CREATE TABLE c (id INT PRIMARY KEY, v INT);
		CREATE TABLE z (id INT PRIMARY KEY, v INT);
		CREATE PROCEDURE putAB @k INT AS BEGIN
			INSERT INTO a (id, v) VALUES (@k, 1);
			INSERT INTO bt (id, v) VALUES (@k, 1);
		END;
		CREATE PROCEDURE putBA @k INT AS BEGIN
			INSERT INTO bt (id, v) VALUES (@k, 2);
			INSERT INTO a (id, v) VALUES (@k, 2);
		END;
		CREATE PROCEDURE failMid @k INT AS BEGIN
			INSERT INTO a (id, v) VALUES (@k, 3);
			INSERT INTO bt (id, v) VALUES (@k, 3);
			INSERT INTO a (id, v) VALUES (@k, 3);
		END;
		CREATE PROCEDURE victim @k INT AS BEGIN
			INSERT INTO c (id, v) VALUES (@k, 5);
			INSERT INTO z (id, v) VALUES (@k, 5);
			INSERT INTO a (id, v) VALUES (@k, 5);
		END;
	`); err != nil {
		t.Fatal(err)
	}
	db, st := b.DB, b.DB.Store()
	call := func(proc string, k int) error {
		res, err := db.CallProcedure(proc, exec.Params{"k": types.NewInt(int64(k))})
		res.Release()
		return err
	}

	// The deadlock victim, made one on purpose.
	holdA, holdZ := st.Begin(true), st.Begin(true)
	if _, ok := holdA.Table("a"); !ok {
		t.Fatal(holdA.Err())
	}
	if _, ok := holdZ.Table("z"); !ok {
		t.Fatal(holdZ.Err())
	}
	victimDone, cDone := make(chan error, 1), make(chan bool, 1)
	go func() { victimDone <- call("victim", 1) }()
	awaitLatchWaiters(t, 1, "the call holds c and waits for z")
	go func() {
		_, ok := holdA.Table("c")
		cDone <- ok
	}()
	awaitLatchWaiters(t, 2, "holdA waits for c")
	holdZ.Abort() // the call takes z and asks for a: the cycle is its own
	if err := <-victimDone; !errors.Is(err, storage.ErrDeadlock) {
		t.Fatalf("the call that closes the cycle answered %v, want %v", err, storage.ErrDeadlock)
	}
	if !<-cDone {
		t.Fatalf("c after the victim aborted: %v", holdA.Err())
	}
	holdA.Abort()

	// Concurrent writers.
	const writers, calls = 4, 60
	type outcome struct {
		kind string
		k    int
		err  error
	}
	outcomes := make([][]outcome, writers)
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range calls {
				k := 1000*(w+1) + i
				o := outcome{k: k}
				switch o.kind = []string{"putAB", "putBA", "failMid", "insert"}[(w+i)%4]; o.kind {
				case "insert":
					var res *engine.Result
					res, o.err = db.Exec(fmt.Sprintf("INSERT INTO c (id, v) VALUES (%d, 4)", k), nil)
					res.Release()
				default:
					o.err = call(o.kind, k)
				}
				outcomes[w] = append(outcomes[w], o)
			}
		}()
	}
	wg.Wait()

	// Nothing is live now, so a transaction that latches every table waits
	// for nobody unless a latch leaked.
	done := make(chan error, 1)
	var rows map[string]map[int64]int64
	go func() {
		tx := st.Begin(true)
		defer tx.Abort()
		rows = map[string]map[int64]int64{}
		for _, table := range []string{"a", "bt", "c", "z"} {
			tv, ok := tx.Table(table)
			if !ok {
				done <- fmt.Errorf("latching %s: %v", table, tx.Err())
				return
			}
			rows[table] = map[int64]int64{}
			tv.Scan(func(_ storage.RowID, row types.Row) bool {
				rows[table][row[0].Int()] = row[1].Int()
				return true
			})
		}
		done <- nil
	}()
	for finished := false; !finished; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			finished = true
		default:
			if latchWaiters() > 0 {
				t.Fatal("a latch is held after every write finished")
			}
			time.Sleep(time.Millisecond)
		}
	}

	want := map[string]map[int64]int64{"a": {}, "bt": {}, "c": {}, "z": {}}
	victims := 0
	for _, os := range outcomes {
		for _, o := range os {
			k := int64(o.k)
			switch {
			case o.kind == "failMid":
				if o.err == nil {
					t.Errorf("failMid %d committed", o.k)
				}
			case errors.Is(o.err, storage.ErrDeadlock):
				victims++
			case o.err != nil:
				t.Errorf("%s %d: %v", o.kind, o.k, o.err)
			case o.kind == "insert":
				want["c"][k] = 4
			default:
				v := map[string]int64{"putAB": 1, "putBA": 2}[o.kind]
				want["a"][k], want["bt"][k] = v, v
			}
		}
	}
	t.Logf("%d deadlock victims among the concurrent calls", victims)
	for table, w := range want {
		if got := rows[table]; fmt.Sprint(got) != fmt.Sprint(w) {
			t.Errorf("%s holds %v, want %v", table, got, w)
		}
	}
}
