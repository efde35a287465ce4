package core

import (
	"runtime"
	"testing"
	"weak"

	"mtcache/internal/engine"
	"mtcache/internal/types"
)

// TestInProcessPullRowsAreTheirOwn: an in-process cache's subscriber keeps
// every After row its link's Pull hands it (Txn.Apply), so none of them may
// come from the array the backend projected the answer into (repl.Slabs): a
// kept After row keeps neither another After row nor that array reachable.
func TestInProcessPullRowsAreTheirOwn(t *testing.T) {
	b := NewBackend("backend")
	if err := b.ExecScript(`
		CREATE TABLE part (id INT PRIMARY KEY, name VARCHAR(40), qty INT);
		INSERT INTO part (id, name, qty) VALUES (1, 'bolt', 10);
		INSERT INTO part (id, name, qty) VALUES (2, 'nut', 20);
	`); err != nil {
		t.Fatal(err)
	}
	var l BackendClient = link{engine.NewLink(b.DB), b}
	a, err := l.Provision("part", nil, "", "cache", "cv_part", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Each update moves its row's key, so its change carries a Before row
	// (the old row) beside the After row.
	if _, err := b.Exec("UPDATE part SET id = id + 10, qty = qty + 1", nil); err != nil {
		t.Fatal(err)
	}
	kept, others := pulledAfterRow(t, l, a.SubID)
	runtime.GC()
	runtime.GC()
	for name, w := range others {
		if w.Value() != nil {
			t.Errorf("a kept After row keeps %s reachable", name)
		}
	}
	if kept[2].Int() != 11 && kept[2].Int() != 21 {
		t.Fatalf("the kept row changed: %v", kept)
	}
	runtime.KeepAlive(kept)
}

// pulledAfterRow pulls one transaction of two updates through l and returns
// the first After row, and weak pointers to the other After row's values and
// to the Before rows' values.
func pulledAfterRow(t *testing.T, l BackendClient, subID int) (types.Row, map[string]weak.Pointer[types.Value]) {
	batches, _, err := l.Pull(subID, 0, 0)
	if err != nil || len(batches) != 1 || len(batches[0].Changes) != 2 {
		t.Fatalf("pull: %+v, %v", batches, err)
	}
	ch := batches[0].Changes
	return ch[0].After, map[string]weak.Pointer[types.Value]{
		"the other After row":   weak.Make(&ch[1].After[0]),
		"the first Before row":  weak.Make(&ch[0].Before[0]),
		"the second Before row": weak.Make(&ch[1].Before[0]),
	}
}
