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

// write is session s's write answered with n rows at commit lsn.
func write(s int, n int64, lsn, end storage.LSN) Call {
	return Call{Session: s, Text: "EXEC setBoth", Write: true, RowsAffected: n, CommitLSN: lsn, End: end}
}

// TestClauses: for each clause, a hand-written history that keeps it and
// histories that break it, each reported at the call that breaks it with
// the prefixes that explain that call.
func TestClauses(t *testing.T) {
	for _, c := range []struct {
		name     string
		h        []Call
		clause   Clause // "" when the history keeps the contract
		call     int
		explains string
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
	} {
		t.Run(c.name, func(t *testing.T) {
			v, err := Check(c.h, kvLog, newKV(t))
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
