package engine

import (
	"fmt"
	"strings"
	"testing"

	"mtcache/internal/exec"
	"mtcache/internal/metrics"
	"mtcache/internal/sql"
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

// TestLiteralWritesStayOutOfThePlanCache: DML text carries its values as
// literals, one text per value, so it takes no plan-cache entry — 600 UPDATE
// texts neither grow the cache nor push anything out of it — while a writing
// procedure's body, whose statements are the same text on every call, takes
// one entry per statement.
func TestLiteralWritesStayOutOfThePlanCache(t *testing.T) {
	backend, _ := dmlPair(t)
	err := backend.ExecScript(`CREATE PROCEDURE move @id INT, @v INT AS BEGIN
		UPDATE t SET v = @v WHERE id = @id;
		DELETE FROM t WHERE id = @id + 1000;
	END`)
	if err != nil {
		t.Fatal(err)
	}
	evictions := metrics.Default.Counter("engine.plan_cache_evictions")
	size0, evicted0 := backend.PlanCacheSize(), evictions.Value()
	for i := 0; i < 600; i++ {
		text := fmt.Sprintf("UPDATE t SET v = %d WHERE id = 5", i)
		if res, err := backend.Exec(text, nil); err != nil || res.RowsAffected != 1 {
			t.Fatalf("%s: %+v, %v", text, res, err)
		}
	}
	if n := backend.PlanCacheSize(); n != size0 {
		t.Errorf("600 literal UPDATE texts took the plan cache from %d entries to %d", size0, n)
	}
	if n := evictions.Value() - evicted0; n != 0 {
		t.Errorf("600 literal UPDATE texts evicted %d plan-cache entries", n)
	}

	// The call itself is parsed once and run past the front door, so its
	// shape takes no entry: what is left is the body's.
	call, err := sql.Parse("EXEC move @id = @id, @v = @v")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		res, err := backend.ExecStmt(call, exec.Params{"id": types.NewInt(5), "v": types.NewInt(int64(i))})
		if err != nil || res.RowsAffected != 1 {
			t.Fatalf("call %d: %+v, %v", i, res, err)
		}
	}
	if n := backend.PlanCacheSize() - size0; n != 2 {
		t.Errorf("100 calls of a two-statement writing procedure added %d plan-cache entries, want 2", n)
	}
	if got := rowsOfT(t, backend); got != "5=99" {
		t.Errorf("t holds %q, want 5=99", got)
	}
}

// TestWritePlanFollowsDDL: a procedure's INSERT keeps its plan across calls,
// and DDL takes it away. Recreated with its columns in the other order, the
// table gets each value in the column the INSERT names; a UNIQUE index created
// between two calls holds on the second.
func TestWritePlanFollowsDDL(t *testing.T) {
	db := New(Config{Name: "backend", Role: Backend})
	err := db.ExecScript(`CREATE TABLE t (a INT PRIMARY KEY, b VARCHAR(20));
		CREATE PROCEDURE put @a INT, @b VARCHAR(20) AS INSERT INTO t (a, b) VALUES (@a, @b);`)
	if err != nil {
		t.Fatal(err)
	}
	put := func(a int64, b string) error {
		_, err := db.CallProcedure("put", exec.Params{"a": types.NewInt(a), "b": types.NewString(b)})
		return err
	}
	rows := func() string {
		t.Helper()
		res, err := db.Exec("SELECT * FROM t ORDER BY a", nil)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(res.Rows)
	}
	if err := put(1, "one"); err != nil {
		t.Fatal(err)
	}
	if got := rows(); got != "[[1 'one']]" {
		t.Fatalf("first layout: t holds %s", got)
	}
	if err := db.ExecScript("DROP TABLE t; CREATE TABLE t (b VARCHAR(20), a INT PRIMARY KEY);"); err != nil {
		t.Fatal(err)
	}
	if err := put(2, "two"); err != nil {
		t.Fatal(err)
	}
	if got := rows(); got != "[['two' 2]]" {
		t.Fatalf("recreated with the columns swapped: t holds %s, want [['two' 2]]", got)
	}
	if err := db.ExecScript("CREATE UNIQUE INDEX t_b ON t (b)"); err != nil {
		t.Fatal(err)
	}
	if err := put(3, "two"); err == nil {
		t.Error("a duplicate b was inserted past the UNIQUE index created since the last call")
	}
	if err := put(4, "four"); err != nil {
		t.Fatal(err)
	}
	if got := rows(); got != "[['two' 2] ['four' 4]]" {
		t.Errorf("t holds %s, want [['two' 2] ['four' 4]]", got)
	}
}
