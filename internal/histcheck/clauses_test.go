package histcheck

import (
	"testing"

	"mtcache/internal/engine"
	"mtcache/internal/storage"
	"mtcache/internal/types"
)

// newKV is the oracle of the hand-written histories: kv holds (1, 0) and
// (2, 0).
func newKV(t *testing.T) *engine.Database {
	t.Helper()
	db := engine.New(engine.Config{Name: "oracle", Role: engine.Backend})
	if err := db.ExecScript(`CREATE TABLE kv (id INT PRIMARY KEY, v INT);
		INSERT INTO kv (id, v) VALUES (1, 0);
		INSERT INTO kv (id, v) VALUES (2, 0);`); err != nil {
		t.Fatal(err)
	}
	return db
}

func kvRow(id, v int64) types.Row { return types.Row{types.NewInt(id), types.NewInt(v)} }

func set(id, from, to int64) storage.ChangeRec {
	return storage.ChangeRec{Table: "kv", Op: storage.OpUpdate, Before: kvRow(id, from), After: kvRow(id, to)}
}

// kvLog: commit 1 sets kv 1 to 1, commit 2 sets kv 2 to 1, and commit 3 sets
// both to 2 in one transaction.
var kvLog = []storage.CommitRecord{
	{LSN: 1, Changes: []storage.ChangeRec{set(1, 0, 1)}},
	{LSN: 2, Changes: []storage.ChangeRec{set(2, 0, 1)}},
	{LSN: 3, Changes: []storage.ChangeRec{set(1, 1, 2), set(2, 1, 2)}},
}

// read is session s reading all of kv as v1, v2 with the log's end at end.
func read(s int, v1, v2 int64, end storage.LSN) Call {
	return Call{Session: s, Text: "SELECT id, v FROM kv", Rows: []types.Row{kvRow(1, v1), kvRow(2, v2)}, End: end}
}

// restarted is the read of all of kv as v1, v2 by a backend just restarted,
// whose log's end is end.
func restarted(v1, v2 int64, end storage.LSN) Call {
	c := read(-1, v1, v2, end)
	c.Restart = true
	return c
}

// write is session s's write answered with n rows at commit lsn.
func write(s int, n int64, lsn, end storage.LSN) Call {
	return Call{Session: s, Text: "EXEC setBoth", Write: true, RowsAffected: n, CommitLSN: lsn, End: end}
}

// newCart is the oracle of the mixed-read probe: item 3 costs 16.32 and no
// cart holds it.
func newCart(t *testing.T) *engine.Database {
	t.Helper()
	db := engine.New(engine.Config{Name: "oracle", Role: engine.Backend})
	if err := db.ExecScript(`CREATE TABLE item (i_id INT PRIMARY KEY, i_cost FLOAT);
		CREATE TABLE shopping_cart_line (scl_sc_id INT, scl_i_id INT, PRIMARY KEY (scl_sc_id, scl_i_id));
		INSERT INTO item (i_id, i_cost) VALUES (3, 16.32);`); err != nil {
		t.Fatal(err)
	}
	return db
}

func itemRow(cost float64) types.Row { return types.Row{types.NewInt(3), types.NewFloat(cost)} }

// cartLog: commit 1 sets item 3's cost to 777, commit 2 puts item 3 in cart
// 9001.
var cartLog = []storage.CommitRecord{
	{LSN: 1, Changes: []storage.ChangeRec{{Table: "item", Op: storage.OpUpdate, Before: itemRow(16.32), After: itemRow(777)}}},
	{LSN: 2, Changes: []storage.ChangeRec{{Table: "shopping_cart_line", Op: storage.OpInsert, After: types.Row{types.NewInt(9001), types.NewInt(3)}}}},
}

// mixedRead is the probe of a statement a cache answers in two halves: the
// cart line, uncached, read remotely at the backend's current prefix, joined
// locally with item 3's cost from a cached view at the cache's older one.
var mixedRead = []Call{
	{Session: 1, Text: "UPDATE item SET i_cost = 777 WHERE i_id = 3", Write: true, RowsAffected: 1, CommitLSN: 1, End: 2},
	{Session: 1, Text: "INSERT INTO shopping_cart_line (scl_sc_id, scl_i_id) VALUES (9001, 3)", Write: true, RowsAffected: 1, CommitLSN: 2, End: 3},
	{Session: 2, Text: "SELECT scl.scl_i_id, i.i_cost FROM shopping_cart_line scl, item i WHERE scl.scl_sc_id = 9001 AND scl.scl_i_id = i.i_id",
		Rows: []types.Row{itemRow(16.32)}, End: 3},
}

// TestClauses: for each clause, a hand-written history that keeps it and
// histories that break it, each reported at the call that breaks it with
// the prefixes that explain that call. The oracle and the log are kv's
// unless a case names the cart's.
func TestClauses(t *testing.T) {
	for _, c := range []struct {
		name     string
		h        []Call
		clause   Clause // "" when the history keeps the contract
		call     int
		explains string
		cart     bool                   // the cart's oracle and log
		log      []storage.CommitRecord // kv's log in place of kvLog
	}{
		{name: "every read is some prefix's state", h: []Call{
			read(1, 0, 0, 1), read(1, 1, 0, 4), read(2, 1, 1, 4), read(2, 2, 2, 4)}},
		{name: "a read sees half a transaction", h: []Call{
			read(1, 1, 0, 4), read(1, 2, 1, 4)}, clause: Explained, call: 1, explains: "none"},
		{name: "a read sees a commit past the log's end at its answer", h: []Call{
			read(1, 1, 1, 2)}, clause: Explained, call: 0, explains: "none"},

		{name: "sessions move forward, each on its own", h: []Call{
			read(1, 1, 1, 4), read(2, 0, 0, 4), write(2, 2, 3, 4), read(2, 2, 2, 4), read(1, 1, 1, 4)}},
		{name: "a session goes backwards", h: []Call{
			read(1, 1, 1, 4), read(1, 1, 0, 4)}, clause: InOrder, call: 1, explains: "[1]"},
		{name: "a session reads below its own write", h: []Call{
			write(1, 1, 2, 3), read(1, 1, 0, 3)}, clause: InOrder, call: 1, explains: "[1]"},

		{name: "writes report their commits", h: []Call{
			write(1, 1, 1, 2), write(2, 1, 2, 3), write(1, 2, 3, 4), write(2, 0, 0, 4)}},
		{name: "a write miscounts its rows", h: []Call{
			write(1, 1, 3, 4)}, clause: Logged, call: 0, explains: "none"},
		{name: "a write names a commit the log does not have", h: []Call{
			write(1, 1, 4, 5)}, clause: Logged, call: 0, explains: "none"},
		{name: "two writes claim one commit", h: []Call{
			write(1, 1, 1, 2), write(2, 1, 1, 2)}, clause: Logged, call: 1, explains: "none"},
		{name: "a write's commit is past the log's end at its answer", h: []Call{
			write(1, 1, 2, 2)}, clause: Logged, call: 0, explains: "none"},
		{name: "a write changes rows and reports no commit", h: []Call{
			write(1, 1, 0, 4)}, clause: Logged, call: 0, explains: "none"},

		{name: "a restart keeps every acknowledged commit", h: []Call{
			write(1, 1, 1, 2), restarted(1, 0, 2), write(2, 1, 2, 3), read(2, 1, 1, 3)}},
		{name: "a restart loses an acknowledged commit", h: []Call{
			write(1, 1, 1, 2), write(2, 1, 2, 3), restarted(1, 0, 3)}, clause: Durable, call: 2, explains: "[1]"},
		{name: "a restarted log skips an LSN", h: []Call{
			write(1, 1, 1, 2), restarted(1, 0, 3), write(2, 1, 3, 4)}, clause: Durable, call: 1, explains: "none",
			log: []storage.CommitRecord{kvLog[0], {LSN: 3, Changes: []storage.ChangeRec{set(2, 0, 1)}}}},

		{name: "a read joins another session's new line with its new cost", h: append(mixedRead[:2:2],
			Call{Session: 2, Text: mixedRead[2].Text, Rows: []types.Row{itemRow(777)}, End: 3}), cart: true},
		{name: "a mixed read joins another session's new line with the old cost", h: mixedRead,
			clause: Explained, call: 2, explains: "none", cart: true},
	} {
		t.Run(c.name, func(t *testing.T) {
			oracle, log := newKV(t), kvLog
			switch {
			case c.cart:
				oracle, log = newCart(t), cartLog
			case c.log != nil:
				log = c.log
			}
			v, err := Check(c.h, log, oracle)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case c.clause == "" && v != nil:
				t.Fatalf("reported %v", v)
			case c.clause == "":
			case v == nil:
				t.Fatalf("nothing reported; want call %d to break %q", c.call, c.clause)
			case v.Clause != c.clause || v.Call != c.call || ranges(v.Explains) != c.explains:
				t.Fatalf("reported %v; want call %d, %q, explained by %s", v, c.call, c.clause, c.explains)
			}
		})
	}
}
