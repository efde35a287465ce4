package repl_test

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mtcache/internal/core"
	"mtcache/internal/repl"
	"mtcache/internal/storage"
	"mtcache/internal/types"
)

// heldSyncFS is a filesystem whose fsyncs can be held back, and whose files
// keep what is written to them in memory until an fsync passes it on: a
// crash loses everything no fsync covered, as a machine that loses power
// does.
type heldSyncFS struct {
	storage.FS
	gate *syncGate
}

func (h heldSyncFS) Create(name string) (storage.File, error) { return h.wrap(h.FS.Create(name)) }

func (h heldSyncFS) wrap(f storage.File, err error) (storage.File, error) {
	if err != nil {
		return nil, err
	}
	return &heldFile{File: f, gate: h.gate}, nil
}

// syncGate holds every fsync of a heldSyncFS while it is held. hold, release
// and crash are called from the test's goroutine only.
type syncGate struct {
	mu      sync.RWMutex // write-locked while held; an fsync read-locks it
	holding bool
	crashed atomic.Bool // every later write and fsync fails; unsynced bytes are lost
}

var errCrashed = errors.New("simulated crash")

func (g *syncGate) hold() { g.mu.Lock(); g.holding = true }

func (g *syncGate) release() {
	if g.holding {
		g.holding = false
		g.mu.Unlock()
	}
}

// crash drops every byte no fsync has covered and fails the held fsync.
func (g *syncGate) crash() {
	g.crashed.Store(true)
	g.release()
}

type heldFile struct {
	storage.File
	gate    *syncGate
	pending []byte // written, not yet passed on by an fsync
}

func (f *heldFile) Write(p []byte) (int, error) {
	if f.gate.crashed.Load() {
		return 0, errCrashed
	}
	f.pending = append(f.pending, p...)
	return len(p), nil
}

func (f *heldFile) Sync() error {
	f.gate.mu.RLock()
	defer f.gate.mu.RUnlock()
	if f.gate.crashed.Load() {
		return errCrashed
	}
	if _, err := f.File.Write(f.pending); err != nil {
		return err
	}
	f.pending = f.pending[:0]
	return f.File.Sync()
}

func (f *heldFile) Close() error {
	if !f.gate.crashed.Load() && len(f.pending) > 0 {
		if _, err := f.File.Write(f.pending); err != nil {
			f.File.Close()
			return err
		}
	}
	return f.File.Close()
}

// openHeld opens (engine.Open: recovering what dir holds) a durable backend
// whose fsyncs pass through gate.
func openHeld(t *testing.T, dir string, gate *syncGate) *core.BackendServer {
	t.Helper()
	b, err := core.NewBackendDurable("backend", storage.DurabilityOptions{Dir: dir, FS: heldSyncFS{storage.OSFS(), gate}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.DB.CloseStore() }) //nolint:errcheck
	t.Cleanup(gate.release)                 // first: a held fsync would block the close
	return b
}

// insertUnsynced commits item id while gate holds fsyncs, and returns once
// the commit is visible at LSN lsn. The commit's result arrives on the
// channel when an fsync covers it, or fails.
func insertUnsynced(t *testing.T, b *core.BackendServer, gate *syncGate, id int, lsn storage.LSN) <-chan error {
	t.Helper()
	gate.hold()
	done := make(chan error, 1)
	go func() {
		_, err := b.Exec(fmt.Sprintf("INSERT INTO item (i_id, i_title, i_cost, i_subject) VALUES (%d, 'x%d', %d, 'ARTS')", id, id, id), nil)
		done <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); b.DB.Store().VisibleEnd() <= lsn; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the commit of item %d is not visible at LSN %d after 5s", id, lsn)
		}
	}
	if synced := b.DB.Store().SyncedLSN(); synced >= lsn {
		t.Fatalf("LSN %d is synced through %d while fsyncs are held", lsn, synced)
	}
	return done
}

// TestPullShipsOnlyDurableCommits: a commit is visible on a durable backend
// before an fsync covers it, and a crash before that fsync takes it back; a
// restart then gives its LSN to another commit. So no pull may ship it, nor
// report the stream complete through it, and no seed may hold it, until the
// fsync has covered it. A subscriber that applied such a commit would keep a
// row no backend prefix holds and resume past the commit that reused the LSN.
func TestPullShipsOnlyDurableCommits(t *testing.T) {
	t.Run("fsync held", func(t *testing.T) {
		gate := new(syncGate)
		b := openHeld(t, t.TempDir(), gate)
		if err := b.ExecScript(itemDDL); err != nil { // LSN 1
			t.Fatal(err)
		}
		sub := subscribe(t, b, newSubscriberTable(t, "cache"), "")
		id := sub.Status().SubID

		done := insertUnsynced(t, b, gate, 1, 2)
		batches, through, err := b.Repl.Pull(id, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		synced := b.DB.Store().SyncedLSN()
		if n := len(batches); n > 0 && batches[n-1].LSN > synced || through > synced {
			t.Fatalf("a pull shipped %d batches complete through %d while the log is synced through %d", n, through, synced)
		}

		gate.release()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if batches, _, err = b.Repl.Pull(id, 0, 0); err != nil {
			t.Fatal(err)
		}
		if len(batches) != 1 || batches[0].LSN != 2 {
			t.Fatalf("after the fsync a pull shipped %+v; want the commit at LSN 2", batches)
		}
	})

	t.Run("write dropped, then restart", func(t *testing.T) {
		dir, gate := t.TempDir(), new(syncGate)
		b := openHeld(t, dir, gate)
		if err := b.ExecScript(itemDDL); err != nil { // LSN 1
			t.Fatal(err)
		}
		target := newSubscriberTable(t, "cache")
		sub := subscribe(t, b, target, "")

		done := insertUnsynced(t, b, gate, 1, 2)
		step(t, b, sub)
		through := sub.Status().AppliedLSN
		gate.crash()
		if err := <-done; err == nil {
			t.Fatal("a commit whose write the crash dropped was acknowledged")
		}
		b.DB.CloseStore() //nolint:errcheck // the crash's error

		b = openHeld(t, dir, new(syncGate))
		insertItem(t, b, 2)
		if end := b.DB.Store().VisibleEnd(); end != 3 {
			t.Fatalf("the restarted backend's commit is at LSN %d, want the dropped one's, 2", end-1)
		}
		at, err := b.Provision("item", itemCols, "", "cache", "tgt", sub.Status().ID, through+1)
		if err != nil {
			t.Fatal(err)
		}
		if err := sub.Attach(b, []repl.Attached{{Table: "tgt", Attachment: at}}, time.Now()); err != nil {
			t.Fatal(err)
		}
		step(t, b, sub)
		local := sortedRows(t, func(q string) ([]types.Row, error) {
			res, err := target.Exec(q, nil)
			if err != nil {
				return nil, err
			}
			return res.Rows, nil
		}, "SELECT * FROM tgt")
		backend := sortedRows(t, func(q string) ([]types.Row, error) {
			res, err := b.Exec(q, nil)
			if err != nil {
				return nil, err
			}
			return res.Rows, nil
		}, "SELECT i_id, i_title, i_cost FROM item")
		if !slices.Equal(local, backend) {
			t.Fatalf("re-attached at %d (resumed %v), the subscriber holds\n%v\nthe backend\n%v", through+1, at.Resumed, local, backend)
		}
	})

	t.Run("seed before the fsync", func(t *testing.T) {
		gate := new(syncGate)
		b := openHeld(t, t.TempDir(), gate)
		if err := b.ExecScript(itemDDL); err != nil { // LSN 1
			t.Fatal(err)
		}
		done := insertUnsynced(t, b, gate, 1, 2)
		type answer struct {
			at  repl.Attachment
			err error
		}
		answered := make(chan answer, 1)
		go func() {
			at, err := b.Provision("item", itemCols, "", "cache", "tgt", 0, 0)
			answered <- answer{at, err}
		}()
		select {
		case a := <-answered:
			t.Fatalf("a seed answered (start %d, %d rows, %v) while its last commit is unsynced", a.at.StartLSN, len(a.at.Rows), a.err)
		case <-time.After(100 * time.Millisecond):
		}

		gate.release()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		a := <-answered
		if a.err != nil || a.at.StartLSN != 3 || len(a.at.Rows) != 1 {
			t.Fatalf("the seed answered start %d with %d rows (%v); want start 3 with the one row", a.at.StartLSN, len(a.at.Rows), a.err)
		}
	})
}
