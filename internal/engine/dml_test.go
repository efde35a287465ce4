package engine

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
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
// it too — on a backend, and forwarded through a cache. On a loaded table,
// every write shape, seeking or not, affects the rows and leaves the table
// that the same statement does on a copy with no index, and a write that
// seeks — by the whole key, a key prefix or a secondary index — examines only
// the rows its prefix selects.
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

	db := twinTables(t)
	p = exec.Params{
		"a": types.NewInt(3), "b": types.NewInt(2), "c": types.NewInt(2), "n": types.Null,
		"f": types.NewFloat(3), "g": types.NewFloat(3.5),
	}
	var affected int64
	for _, c := range []struct {
		stmt   string
		prefix string // the rows the seek on w examines ("": not checked)
	}{
		{"UPDATE %s SET d = d + 1 WHERE a = @a AND b = @b", "a = @a AND b = @b"},
		{"UPDATE %s SET d = d + 1 WHERE a = 3 AND b = 2 AND d < 0", "a = 3 AND b = 2"},
		{"UPDATE %s SET d = d * 2 WHERE a = @a", "a = @a"},
		{"UPDATE %s SET d = d + 1 WHERE c = @c AND b <> 2", "c = @c"},
		{"UPDATE %s SET c = c + 1 WHERE c = 1", "c = 1"},
		{"UPDATE %s SET d = d + 1 WHERE a >= 3 AND a <= 5", "a >= 3 AND a <= 5"},
		{"UPDATE %s SET d = d - 1 WHERE a = 2 AND b BETWEEN 2 AND 3", "a = 2 AND b BETWEEN 2 AND 3"},
		{"UPDATE %s SET d = 0 WHERE a IN (1, 4) AND b = 3", ""},
		{"UPDATE %s SET d = 1 WHERE a = 1 OR c = 3", ""},
		{"UPDATE %s SET d = 2 WHERE a = 5 AND a = 6", ""},
		{"UPDATE %s SET d = 2 WHERE a = 6 AND a = 5 AND b = 1", ""},
		{"UPDATE %s SET d = d + 1 WHERE a > 6", "a >= 6"},
		{"UPDATE %s SET d = d + 1 WHERE a = 2 AND b < 3", "a = 2 AND b <= 3"},
		{"UPDATE %s SET d = d + 1 WHERE c <= 2", ""},
		{"UPDATE %s SET d = 7 WHERE a = @n", "a = @n"},
		{"UPDATE %s SET d = 7 WHERE c >= @n AND c <= 4", "c >= @n"},
		{"UPDATE %s SET d = d + 1 WHERE a = @f", "a = @f"},
		{"UPDATE %s SET d = d + 1 WHERE a = @g", "a = @g"},
		{"UPDATE %s SET d = d + 1 WHERE a < @g AND b = 1", "a <= @g"},
		{"UPDATE %s SET d = 0 WHERE a = @missing", ""},
		{"DELETE FROM %s WHERE a = @a AND d > 35", "a = @a"},
		{"DELETE FROM %s WHERE c = @c", "c = @c"},
		{"DELETE FROM %s WHERE a BETWEEN 7 AND 8 OR c = 0", ""},
		{"DELETE FROM %s WHERE b = 4", ""},
	} {
		want := -1
		if c.prefix != "" {
			want = countRows(t, db, "w WHERE "+c.prefix, p)
		}
		all := countRows(t, db, "plain", p)
		seek, errSeek := db.Exec(fmt.Sprintf(c.stmt, "w"), p)
		scan, errScan := db.Exec(fmt.Sprintf(c.stmt, "plain"), p)
		if (errSeek == nil) != (errScan == nil) {
			t.Fatalf("%s: %v with indexes, %v without", c.stmt, errSeek, errScan)
		}
		if got, wantRows := rowsOf(t, db, "w"), rowsOf(t, db, "plain"); got != wantRows {
			t.Fatalf("%s: w holds %s, its copy without indexes %s", c.stmt, got, wantRows)
		}
		if errSeek != nil {
			continue
		}
		if seek.RowsAffected != scan.RowsAffected {
			t.Errorf("%s: %d rows affected with indexes, %d without", c.stmt, seek.RowsAffected, scan.RowsAffected)
		}
		if n := scan.Counters.RowsScanned; n != int64(all) {
			t.Errorf("%s: without indexes examined %d rows, want all %d", c.stmt, n, all)
		}
		if n := seek.Counters.RowsScanned; want >= 0 && n != int64(want) {
			t.Errorf("%s: examined %d rows, want the %d its seek's prefix (%s) selects", c.stmt, n, want, c.prefix)
		}
		affected += seek.RowsAffected
	}
	if affected == 0 {
		t.Error("no statement affected a row")
	}
}

// twinTables is a backend holding w(a, b, c, d) with the primary key (a, b)
// and an index on c, and plain, the same rows with no index at all: a in
// 1..8, b in 1..4, c = a*b mod 5 (NULL when 7 divides a+b) and d = 10a+b.
func twinTables(t *testing.T) *Database {
	t.Helper()
	db := New(Config{Name: "backend", Role: Backend})
	err := db.ExecScript(`CREATE TABLE w (a INT, b INT, c INT, d FLOAT, PRIMARY KEY (a, b));
		CREATE INDEX w_c ON w (c);
		CREATE TABLE plain (a INT, b INT, c INT, d FLOAT);`)
	if err != nil {
		t.Fatal(err)
	}
	var rows []types.Row
	for a := int64(1); a <= 8; a++ {
		for b := int64(1); b <= 4; b++ {
			c := types.NewInt(a * b % 5)
			if (a+b)%7 == 0 {
				c = types.Null
			}
			rows = append(rows, types.Row{types.NewInt(a), types.NewInt(b), c, types.NewFloat(float64(10*a + b))})
		}
	}
	for _, table := range []string{"w", "plain"} {
		if err := db.BulkLoad(table, rows); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	return db
}

// countRows is SELECT COUNT(*) FROM from, with params bound.
func countRows(t *testing.T, db *Database, from string, params exec.Params) int {
	t.Helper()
	res, err := db.Exec("SELECT COUNT(*) FROM "+from, params)
	if err != nil {
		t.Fatal(err)
	}
	return int(res.Rows[0][0].Int())
}

// rowsOf renders a table's rows in (a, b) order.
func rowsOf(t *testing.T, db *Database, table string) string {
	t.Helper()
	res, err := db.Exec("SELECT * FROM "+table+" ORDER BY a, b", nil)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprint(res.Rows)
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

// TestLiteralWritesShareOneEntryPerShape: DML text is a shape with its values
// lifted out, like a SELECT's, so 600 UPDATE texts that differ only in a
// literal take one plan-cache entry, build one write plan and push nothing
// out — while a writing procedure's body, whose statements are the same text
// on every call, takes one entry per statement.
func TestLiteralWritesShareOneEntryPerShape(t *testing.T) {
	backend, _ := dmlPair(t)
	err := backend.ExecScript(`CREATE PROCEDURE move @id INT, @v INT AS BEGIN
		UPDATE t SET v = @v WHERE id = @id;
		DELETE FROM t WHERE id = @id + 1000;
	END`)
	if err != nil {
		t.Fatal(err)
	}
	evictions := metrics.Default.Counter("engine.plan_cache_evictions")
	misses := metrics.Default.Counter("engine.plan_cache_misses")
	size0, evicted0, missed0 := backend.PlanCacheSize(), evictions.Value(), misses.Value()
	for i := 0; i < 600; i++ {
		text := fmt.Sprintf("UPDATE t SET v = %d WHERE id = 5", i)
		if res, err := backend.Exec(text, nil); err != nil || res.RowsAffected != 1 {
			t.Fatalf("%s: %+v, %v", text, res, err)
		}
	}
	if n := backend.PlanCacheSize(); n != size0+1 {
		t.Errorf("600 literal UPDATE texts took the plan cache from %d entries to %d, want one more", size0, n)
	}
	if n := evictions.Value() - evicted0; n != 0 {
		t.Errorf("600 literal UPDATE texts evicted %d plan-cache entries", n)
	}
	if n := misses.Value() - missed0; n != 1 {
		t.Errorf("600 literal UPDATE texts built %d write plans, want 1", n)
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
	if n := backend.PlanCacheSize() - size0 - 1; n != 2 {
		t.Errorf("100 calls of a two-statement writing procedure added %d plan-cache entries, want 2", n)
	}
	if got := rowsOfT(t, backend); got != "5=99" {
		t.Errorf("t holds %q, want 5=99", got)
	}
}

// TestWarmTextWritesParseNothing: INSERT, UPDATE and DELETE texts sent to a
// cache reach its backend as their shapes. Once a shape is warm, ten literal
// variants parse nothing on either server, add no plan-cache entry to either,
// and build no write plan.
func TestWarmTextWritesParseNothing(t *testing.T) {
	backend, cache := dmlPair(t)
	parses := metrics.Default.Histogram("engine.parse_seconds")
	misses := metrics.Default.Counter("engine.plan_cache_misses")
	for _, format := range []string{
		"INSERT INTO t (id, v) VALUES (%d, 7)",
		"UPDATE t SET v = 8 WHERE id = %d",
		"DELETE FROM t WHERE id = %d",
	} {
		run := func(i int) {
			text := fmt.Sprintf(format, 100+i)
			if res, err := cache.Exec(text, nil); err != nil || res.RowsAffected != 1 {
				t.Fatalf("%s: %+v, %v", text, res, err)
			}
		}
		run(0) // warms the shape on both servers
		entries, bentries := cache.PlanCacheSize(), backend.PlanCacheSize()
		parsed0, missed0 := parses.Count(), misses.Value()
		for i := 1; i <= 10; i++ {
			run(i)
		}
		if n := parses.Count() - parsed0; n != 0 {
			t.Errorf("%s: %d parses over 10 warm variants, want 0", format, n)
		}
		if n := misses.Value() - missed0; n != 0 {
			t.Errorf("%s: %d plan-cache misses over 10 warm variants, want 0", format, n)
		}
		if cache.PlanCacheSize() != entries || backend.PlanCacheSize() != bentries {
			t.Errorf("%s: plan caches went %d → %d entries on the cache, %d → %d on the backend",
				format, entries, cache.PlanCacheSize(), bentries, backend.PlanCacheSize())
		}
	}
	if got := rowsOfT(t, backend); got != "5=1" {
		t.Errorf("t holds %q, want 5=1", got)
	}
}

// TestWritePlanFollowsDDL: a procedure's INSERT keeps its plan across calls,
// and DDL takes it away. Recreated with its columns in the other order, the
// table gets each value in the column the INSERT names; a UNIQUE index created
// between two calls holds on the second. A procedure's DELETE by a column with
// no index scans, and seeks once an index on the column is created, deleting
// the same rows; an UPDATE by the whole key planned while its table was
// analyzed empty seeks once the table is filled. Each step runs twice: as a
// call, and as its body's statement sent as literal text, whose shape keeps
// its plan the same way.
func TestWritePlanFollowsDDL(t *testing.T) {
	bodies := map[string]string{
		"put":   "INSERT INTO t (a, b) VALUES (@a, @b)",
		"setC":  "UPDATE u SET c = @c WHERE a = @a AND b = @b",
		"dropC": "DELETE FROM u WHERE c = @c",
	}
	for _, asText := range []bool{false, true} {
		db := New(Config{Name: "backend", Role: Backend})
		// run makes one step: a call of proc, or its body with each parameter
		// spelled as a literal.
		run := func(proc string, params exec.Params) (*Result, error) {
			if !asText {
				return db.CallProcedure(proc, params)
			}
			var literals []string
			for name, v := range params {
				literals = append(literals, "@"+name, v.String())
			}
			return db.Exec(strings.NewReplacer(literals...).Replace(bodies[proc]), nil)
		}
		err := db.ExecScript(`CREATE TABLE t (a INT PRIMARY KEY, b VARCHAR(20));
		CREATE PROCEDURE put @a INT, @b VARCHAR(20) AS ` + bodies["put"])
		if err != nil {
			t.Fatal(err)
		}
		put := func(a int64, b string) error {
			_, err := run("put", exec.Params{"a": types.NewInt(a), "b": types.NewString(b)})
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
			t.Fatalf("text %v, first layout: t holds %s", asText, got)
		}
		if err := db.ExecScript("DROP TABLE t; CREATE TABLE t (b VARCHAR(20), a INT PRIMARY KEY);"); err != nil {
			t.Fatal(err)
		}
		if err := put(2, "two"); err != nil {
			t.Fatal(err)
		}
		if got := rows(); got != "[['two' 2]]" {
			t.Fatalf("text %v, recreated with the columns swapped: t holds %s, want [['two' 2]]", asText, got)
		}
		if err := db.ExecScript("CREATE UNIQUE INDEX t_b ON t (b)"); err != nil {
			t.Fatal(err)
		}
		if err := put(3, "two"); err == nil {
			t.Errorf("text %v: a duplicate b was inserted past the UNIQUE index created since the last call", asText)
		}
		if err := put(4, "four"); err != nil {
			t.Fatal(err)
		}
		if got := rows(); got != "[['two' 2] ['four' 4]]" {
			t.Errorf("text %v: t holds %s, want [['two' 2] ['four' 4]]", asText, got)
		}

		// u is analyzed empty: by cost alone, a seek of its key would lose to a
		// scan of its one estimated row.
		err = db.ExecScript(`CREATE TABLE u (a INT, b INT, c INT, PRIMARY KEY (a, b));
		CREATE PROCEDURE setC @a INT, @b INT, @c INT AS ` + bodies["setC"] + `;
		CREATE PROCEDURE dropC @c INT AS ` + bodies["dropC"] + `;`)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.AnalyzeTable("u"); err != nil {
			t.Fatal(err)
		}
		call := func(proc string, params exec.Params, affected, examined int64) {
			t.Helper()
			res, err := run(proc, params)
			if err != nil {
				t.Fatal(err)
			}
			if res.RowsAffected != affected || res.Counters.RowsScanned != examined {
				t.Errorf("text %v, %s %v: %d rows affected and %d examined, want %d and %d",
					asText, proc, params, res.RowsAffected, res.Counters.RowsScanned, affected, examined)
			}
		}
		key := exec.Params{"a": types.NewInt(3), "b": types.NewInt(4), "c": types.NewInt(1)}
		call("setC", key, 0, 0) // planned while u is empty
		fill := func() {
			t.Helper()
			var rows []types.Row
			for i := int64(0); i < 40; i++ {
				rows = append(rows, types.Row{types.NewInt(i / 8), types.NewInt(i % 8), types.NewInt(i % 5)})
			}
			if err := db.BulkLoad("u", rows); err != nil {
				t.Fatal(err)
			}
		}
		fill()
		call("setC", key, 1, 1)
		drop := exec.Params{"c": types.NewInt(1)}
		call("dropC", drop, 9, 40) // eight rows with c = 1, and (3, 4) set to 1
		scanned := rowsOf(t, db, "u")
		if _, err := db.Exec("DELETE FROM u", nil); err != nil {
			t.Fatal(err)
		}
		fill()
		call("setC", key, 1, 1)
		if err := db.ExecScript("CREATE INDEX u_c ON u (c)"); err != nil {
			t.Fatal(err)
		}
		call("dropC", drop, 9, 9)
		if sought := rowsOf(t, db, "u"); sought != scanned {
			t.Errorf("text %v: after the seek u holds %s, after the scan %s", asText, sought, scanned)
		}
	}
}

// TestSecondarySeekRacesIndexMoves: UPDATEs that seek a secondary index —
// one of them moving the indexed column of every row it finds — race UPDATEs
// that move rows' indexed column by key. A seeking UPDATE writes each row at
// most once, and its row count is the number of rows its WHERE holds for at
// commit, as a SELECT in its own transaction counts them.
func TestSecondarySeekRacesIndexMoves(t *testing.T) {
	db := New(Config{Name: "backend", Role: Backend})
	err := db.ExecScript(`CREATE TABLE r (id INT PRIMARY KEY, k INT, n INT);
		CREATE INDEX r_k ON r (k);
		CREATE PROCEDURE bump @k INT AS BEGIN
			UPDATE r SET n = n + 1 WHERE k = @k;
			SELECT COUNT(*) FROM r WHERE k = @k;
		END;
		CREATE PROCEDURE lift @k INT AS BEGIN
			UPDATE r SET k = k + 4, n = n + 1 WHERE k >= @k;
			SELECT COUNT(*) FROM r WHERE k >= @k + 4;
		END;
		CREATE PROCEDURE move @id INT, @k INT AS UPDATE r SET k = @k WHERE id = @id;`)
	if err != nil {
		t.Fatal(err)
	}
	const rows, workers, calls = 64, 4, 40
	var load []types.Row
	for id := int64(0); id < rows; id++ {
		load = append(load, types.Row{types.NewInt(id), types.NewInt(id % 4), types.NewInt(0)})
	}
	if err := db.BulkLoad("r", load); err != nil {
		t.Fatal(err)
	}
	var written atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(2)
		go func() { // seeks r_k
			defer wg.Done()
			for i := 0; i < calls; i++ {
				proc, k := "bump", int64((g+i)%4)
				if i%5 == 4 {
					proc, k = "lift", int64(2+i%3)
				}
				res, err := db.CallProcedure(proc, exec.Params{"k": types.NewInt(k)})
				if err != nil {
					t.Error(err)
					return
				}
				if held := res.Rows[0][0].Int(); res.RowsAffected != held {
					t.Errorf("%s %d wrote %d rows; %d hold its WHERE at commit", proc, k, res.RowsAffected, held)
				}
				written.Add(res.RowsAffected)
			}
		}()
		go func() { // moves rows' k by key
			defer wg.Done()
			for i := 0; i < calls; i++ {
				id, k := int64(g*17+i*5)%rows, int64(g+i)%4
				res, err := db.CallProcedure("move", exec.Params{"id": types.NewInt(id), "k": types.NewInt(k)})
				if err != nil || res.RowsAffected != 1 {
					t.Errorf("move %d to %d: %+v, %v", id, k, res, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	res, err := db.Exec("SELECT SUM(n) FROM r", nil)
	if err != nil {
		t.Fatal(err)
	}
	if sum := res.Rows[0][0].Int(); sum != written.Load() {
		t.Errorf("the rows were written %d times; the seeking UPDATEs counted %d", sum, written.Load())
	}
}
