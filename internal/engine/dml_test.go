package engine

import (
	"strings"
	"testing"

	"mtcache/internal/exec"
	"mtcache/internal/types"
)

// dmlPair is a backend holding t(id INT PRIMARY KEY, v INT) = {(5, 1)} and a
// cache forwarding its writes to it.
func dmlPair(t *testing.T) (backend, cache *Database) {
	t.Helper()
	const ddl = "CREATE TABLE t (id INT PRIMARY KEY, v INT)"
	backend = New(Config{Name: "backend", Role: Backend})
	for _, stmt := range []string{ddl, "INSERT INTO t (id, v) VALUES (5, 1)"} {
		if _, err := backend.Exec(stmt, nil); err != nil {
			t.Fatal(err)
		}
	}
	cache = New(Config{Name: "cache", Role: Cache, Remote: NewLink(backend)})
	if _, err := cache.Exec(ddl, nil); err != nil {
		t.Fatal(err)
	}
	return backend, cache
}

// rowsOfT returns the backend's t as "id=v" pairs.
func rowsOfT(t *testing.T, backend *Database) string {
	t.Helper()
	res, err := backend.Exec("SELECT id, v FROM t ORDER BY id", nil)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, r := range res.Rows {
		out = append(out, r[0].String()+"="+r[1].String())
	}
	return strings.Join(out, ",")
}

// TestKeyedWriteHonoursTheWholeWhere: an UPDATE or a DELETE whose WHERE pins
// the primary key changes the row only when the rest of the clause holds for
// it too — on a backend, and forwarded through a cache.
func TestKeyedWriteHonoursTheWholeWhere(t *testing.T) {
	backend, cache := dmlPair(t)
	p := exec.Params{"id": types.NewInt(5), "v": types.NewInt(2)}
	for _, db := range []*Database{backend, cache} {
		for _, c := range []struct {
			stmt   string
			params exec.Params
		}{
			{"UPDATE t SET v = 99 WHERE id = 5 AND v = 2", nil},
			{"DELETE FROM t WHERE id = 5 AND v = 2", nil},
			{"UPDATE t SET v = 99 WHERE id = @id AND v = @v", p},
			{"DELETE FROM t WHERE v = @v AND id = @id", p},
			{"UPDATE t SET v = 99 WHERE id = 5 AND id = 6", nil},
			{"UPDATE t SET v = 99 WHERE id = 6 AND id = 5", nil},
			{"DELETE FROM t WHERE id = 5 AND id = 6", nil},
			{"DELETE FROM t WHERE id = 6 AND id = 5", nil},
		} {
			res, err := db.Exec(c.stmt, c.params)
			if err != nil {
				t.Fatalf("%s, on the %s: %v", c.stmt, db.Name, err)
			}
			if res.RowsAffected != 0 {
				t.Errorf("%s, on the %s: %d rows affected, want 0", c.stmt, db.Name, res.RowsAffected)
			}
			if got := rowsOfT(t, backend); got != "5=1" {
				t.Fatalf("%s, on the %s: t holds %q, want 5=1", c.stmt, db.Name, got)
			}
		}
	}
	// When the whole clause holds, the row is written.
	res, err := cache.Exec("UPDATE t SET v = 2 WHERE id = 5 AND v = 1", nil)
	if err != nil || res.RowsAffected != 1 || rowsOfT(t, backend) != "5=2" {
		t.Fatalf("a keyed UPDATE whose clause holds: %v, %d rows, t holds %q", err, res.RowsAffected, rowsOfT(t, backend))
	}
}

// TestColumnNamedTwiceIsRejected: an INSERT column list or an UPDATE SET that
// names a column twice is an error naming the column (SQL Server's Msg 264),
// not a write where the last value wins.
func TestColumnNamedTwiceIsRejected(t *testing.T) {
	backend, cache := dmlPair(t)
	for _, db := range []*Database{backend, cache} {
		for _, stmt := range []string{
			"INSERT INTO t (id, v, v) VALUES (1, 2, 3)",
			"INSERT INTO t (v, id, V) VALUES (2, 1, 3)",
			"UPDATE t SET v = 2, v = 3 WHERE id = 5",
			"UPDATE t SET V = 2, v = 3",
		} {
			_, err := db.Exec(stmt, nil)
			if err == nil || !strings.Contains(strings.ToLower(err.Error()), "column v ") {
				t.Errorf("%s, on the %s: %v, want an error naming column v", stmt, db.Name, err)
			}
			if got := rowsOfT(t, backend); got != "5=1" {
				t.Fatalf("%s, on the %s: t holds %q, want 5=1", stmt, db.Name, got)
			}
		}
	}
}
