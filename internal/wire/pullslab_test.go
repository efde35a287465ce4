package wire

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mtcache/internal/core"
	"mtcache/internal/repl"
	"mtcache/internal/storage"
	"mtcache/internal/types"
)

// itemColumns are a cv_item-shaped view's: eleven columns, four of them
// strings.
var itemColumns = []string{"i_id", "i_title", "i_a_id", "i_pub_date", "i_publisher", "i_subject", "i_desc",
	"i_related1", "i_stock", "i_cost", "i_srp"}

// itemRow is item i with stock on hand: its title and its cost follow from
// the two, so a row whose values came from two different rows shows it.
func itemRow(i, stock int) types.Row {
	return types.Row{types.NewInt(int64(i)), types.NewString(fmt.Sprintf("the title of item %d at stock %d", i, stock)),
		types.NewInt(int64(i % 50)), types.NewTime(time.Date(2001, 7, i%28+1, 0, 0, 0, 0, time.UTC)),
		types.NewString("a publisher of books"), types.NewString("ARTS"),
		types.NewString(fmt.Sprintf("a description of item %d", i)), types.NewInt(int64(i + 1)),
		types.NewInt(int64(stock)), types.NewFloat(float64(stock) / 4), types.NewFloat(19.5)}
}

// consistentItem reports whether row is one itemRow made.
func consistentItem(row types.Row) bool {
	return len(row) == len(itemColumns) && types.RowsEqual(row, itemRow(int(row[0].Int()), int(row[8].Int())))
}

// pullBackend is a backend with an item table of n rows at stock 10, an
// order_line table, and one subscription whose views cv_item and
// cv_order_line are fed from them, seeded with what they hold: the tables
// and views a TPC-W buy confirm writes and replicates.
func pullBackend(t testing.TB, n int) (*core.BackendServer, *Server, int) {
	t.Helper()
	b := core.NewBackend("backend")
	if err := b.ExecScript(`
		CREATE TABLE item (i_id INT PRIMARY KEY, i_title VARCHAR(60) NOT NULL, i_a_id INT, i_pub_date DATETIME,
			i_publisher VARCHAR(60), i_subject VARCHAR(60), i_desc VARCHAR(100), i_related1 INT, i_stock INT,
			i_cost FLOAT, i_srp FLOAT);
		CREATE TABLE order_line (ol_o_id INT, ol_id INT, ol_i_id INT, ol_qty INT, ol_discount FLOAT,
			PRIMARY KEY (ol_o_id, ol_id));
	`); err != nil {
		t.Fatal(err)
	}
	tx := b.DB.Store().Begin(true)
	for i := 1; i <= n; i++ {
		if _, err := tx.Insert("item", itemRow(i, 10)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	var id int
	for _, v := range []struct {
		table, target string
		columns       []string
	}{
		{"item", "cv_item", itemColumns},
		{"order_line", "cv_order_line", []string{"ol_o_id", "ol_id", "ol_i_id", "ol_qty"}},
	} {
		a, err := b.Provision(v.table, v.columns, "", "cache", v.target, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		id = a.SubID
	}
	return b, srv, id
}

// buyConfirm commits one transaction on b: items 1…k from stock to stock-1,
// and k order lines of order o, one per item.
func buyConfirm(b *core.BackendServer, k, o, stock int) (storage.LSN, error) {
	tx := b.DB.Store().Begin(true)
	defer tx.Abort()
	for i := 1; i <= k; i++ {
		err := tx.Apply(storage.ChangeRec{Table: "item", Op: storage.OpUpdate, Before: itemRow(i, stock), After: itemRow(i, stock-1)})
		if err == nil {
			_, err = tx.Insert("order_line", types.Row{types.NewInt(int64(o)), types.NewInt(int64(i)),
				types.NewInt(int64(i)), types.NewInt(1), types.NewFloat(0)})
		}
		if err != nil {
			return 0, err
		}
	}
	return tx.Commit()
}

// mustBuy is buyConfirm on the test's goroutine.
func mustBuy(t testing.TB, b *core.BackendServer, k, o, stock int) storage.LSN {
	t.Helper()
	lsn, err := buyConfirm(b, k, o, stock)
	if err != nil {
		t.Fatal(err)
	}
	return lsn
}

// TestPullAllocBudget: what a warm pull of one backend transaction — k
// cv_item updates, with all eleven columns and four strings in each image,
// and k order_line inserts — allocates, at k = 1 and k = 8. The backend's
// share, the pull built in warm slabs, as a server's pooled ones are, and
// encoded into a warm buffer, does not grow with k: it is nothing, where it
// was 7 and 31 objects while each projected row was its own allocation, each
// record's changes a slice grown by appends and each pull a copy of the
// log's records. The cache's decode costs at most one object per After row,
// one more per After row with strings, and two per frame: the batch slice
// and its change slice. An update that keeps its row's key carries no Before
// row, so no value array or string is made for Before rows (four per frame
// while every update carried its whole Before row; 13 and 90 while each row
// and each string was one). A loopback pull over TCP, both ends counted,
// grows with k by no more than the decode does.
func TestPullAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	type counts struct{ backend, decode, loopback float64 }
	got := map[int]counts{}
	for _, k := range []int{1, 8} {
		b, srv, id := pullBackend(t, k)
		ack := mustBuy(t, b, k, 1, 10) - 1 // acking the LSN before it, every pull answers the transaction again
		check := func(batches []repl.TxnBatch) {
			if len(batches) != 1 || len(batches[0].Changes) != 2*k {
				t.Fatalf("k=%d: a pull answered %d batches, want one of %d changes", k, len(batches), 2*k)
			}
		}

		var (
			slabs repl.Slabs
			buf   []byte
		)
		backend := func() {
			batches, through, err := b.Repl.PullInto(&slabs, id, 0, ack)
			if err != nil {
				t.Fatal(err)
			}
			check(batches)
			buf = appendResponse(buf[:0], &response{Kind: reqPull, Batches: batches, ThroughLSN: through})
			slabs.Clear()
		}
		backend()
		frame := bytes.Clone(buf)

		var resp response
		hdrs, names := headers{}, interner{}
		decode := func() {
			if err := decodeResponse(frame, &resp, hdrs, names); err != nil {
				t.Fatal(err)
			}
			check(resp.Batches)
		}
		decode()

		c := dial(t, srv)
		loopback := func() {
			batches, _, err := c.Pull(id, 0, ack)
			if err != nil {
				t.Fatal(err)
			}
			check(batches)
		}
		loopback()

		n := counts{testing.AllocsPerRun(100, backend), testing.AllocsPerRun(100, decode), testing.AllocsPerRun(100, loopback)}
		t.Logf("k=%d: backend %.0f, decode %.0f, loopback %.0f allocs", k, n.backend, n.decode, n.loopback)
		if ceiling := float64(2*k + k + 2); n.decode > ceiling {
			t.Errorf("k=%d: the decode allocates %.0f objects, ceiling %.0f", k, n.decode, ceiling)
		}
		got[k] = n
	}
	one, eight := got[1], got[8]
	if eight.backend > one.backend {
		t.Errorf("the backend's share grows with k: %.0f objects at k=1, %.0f at k=8", one.backend, eight.backend)
	}
	if grew, decoded := eight.loopback-one.loopback, eight.decode-one.decode; grew > decoded {
		t.Errorf("a loopback pull grows by %.0f objects from k=1 to k=8, its decode by %.0f", grew, decoded)
	}
}

// TestPullAnswerReencodesToItsBytes: a pull answer decoded into shared and
// own arrays encodes back to the frame it came from: updates that keep their
// key and carry no Before row, a delete's Before row, empty strings, NULLs
// and DATETIMEs included.
func TestPullAnswerReencodesToItsBytes(t *testing.T) {
	b, _, id := pullBackend(t, 3)
	ack := mustBuy(t, b, 3, 1, 10) - 1
	mustBuy(t, b, 2, 2, 9)
	if _, err := b.Exec("DELETE FROM item WHERE i_id = 3", nil); err != nil {
		t.Fatal(err)
	}
	var slabs repl.Slabs
	batches, through, err := b.Repl.PullInto(&slabs, id, 0, ack)
	if err != nil || len(batches) != 3 {
		t.Fatalf("pull: %d batches, %v", len(batches), err)
	}
	if up, del := batches[1].Changes[0], batches[2].Changes[0]; up.Before != nil || len(del.Before) != len(up.After) {
		t.Fatalf("an update that keeps its key carries Before %v, a delete %v", up.Before, del.Before)
	}
	batches[2].Changes[0].Before[6] = types.NewString("")
	batches[1].Changes[0].After[2] = types.Null
	frame := appendResponse(nil, &response{ID: 5, Kind: reqPull, Batches: batches, ThroughLSN: through})
	var resp response
	if err := decodeResponse(frame, &resp, headers{}, interner{}); err != nil {
		t.Fatal(err)
	}
	if again := appendResponse(nil, &resp); !bytes.Equal(again, frame) {
		t.Fatalf("a decoded pull answer re-encodes to other bytes:\n in %x\nout %x", frame, again)
	}
}

// TestPullSlabsUnderConcurrentCommits: pulls on one connection, each built in
// slabs from the server's pool, while a writer commits. Every row a pull
// delivers is one the writer wrote, whole: no answer is built in slabs
// another answer still uses, and none is cleared before its frame is
// written. Each puller acknowledges all but the last few batches it saw, so
// answers stay small enough for the pool to keep their slabs, and pulls at
// least minPulls times, past the writer's end if need be.
func TestPullSlabsUnderConcurrentCommits(t *testing.T) {
	const items, commits, pullers, minPulls = 4, 150, 4, 100
	b, srv, id := pullBackend(t, items)
	c := dial(t, srv)
	var (
		last    atomic.Int64 // the writer's last commit
		written atomic.Bool  // set once last is the final one
		wg      sync.WaitGroup
	)
	errs := make(chan error, pullers+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer written.Store(true)
		for n := 0; n < commits; n++ {
			lsn, err := buyConfirm(b, items, n+1, 10-n)
			if err != nil {
				errs <- err
				return
			}
			last.Store(int64(lsn))
		}
	}()
	for p := 0; p < pullers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ack, seen storage.LSN
			for pulls := 1; ; pulls++ {
				// Read before the pull: once the writer is done, a pull that
				// has seen its last commit ends the puller.
				final, end := written.Load(), storage.LSN(last.Load())
				batches, _, err := c.Pull(id, 0, ack)
				if err != nil {
					errs <- err
					return
				}
				for _, bt := range batches {
					if len(bt.Changes) != 2*items {
						errs <- fmt.Errorf("batch %d has %d changes, want %d", bt.LSN, len(bt.Changes), 2*items)
						return
					}
					// Commit n writes order n's lines and takes every item
					// to stock 10-n; an update keeps its key, so it carries
					// no Before row.
					order := bt.Changes[len(bt.Changes)-1].After[0].Int()
					for _, ch := range bt.Changes {
						if ch.Table == "cv_item" && (ch.Before != nil || !consistentItem(ch.After) ||
							ch.After[8].Int() != 10-order) {
							errs <- fmt.Errorf("batch %d (order %d) delivers an update no commit made: %v -> %v", bt.LSN, order, ch.Before, ch.After)
							return
						}
					}
					seen = max(seen, bt.LSN)
				}
				if final && seen >= end && pulls >= minPulls {
					return
				}
				ack = max(ack, seen-3)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
