package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"mtcache/internal/engine"
	"mtcache/internal/exec"
	"mtcache/internal/types"
)

// Differential testing: the same query must produce the same result whether
// it runs on the backend or through a cache (where the optimizer may route
// it to a cached view, to the backend, or to a mixture). This exercises
// view matching, dynamic plans, remote shipping and predicate handling end
// to end against a ground truth.

func diffSetup(t *testing.T) (*BackendServer, *CacheServer) {
	t.Helper()
	b := newShop(t)
	c, err := NewCache("cache1", b, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Two overlapping cached views plus a projection-limited one.
	views := []string{
		`CREATE CACHED VIEW Cust1000 AS SELECT cid, cname, caddress FROM customer WHERE cid <= 1000`,
		`CREATE CACHED VIEW SmallOrders AS SELECT okey, ckey, total FROM orders WHERE total <= 250`,
		`CREATE CACHED VIEW Seg2 AS SELECT cid, csegment FROM customer WHERE csegment = 2`,
	}
	for _, v := range views {
		if err := c.CreateCachedView(v); err != nil {
			t.Fatal(err)
		}
	}
	return b, c
}

// canonical renders a result set order-insensitively.
func canonical(rows []types.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		var parts []string
		for _, v := range r {
			parts = append(parts, v.String())
		}
		out[i] = strings.Join(parts, "|")
	}
	sort.Strings(out)
	return out
}

func compareResults(t *testing.T, q string, params exec.Params, b *BackendServer, c *CacheServer) {
	t.Helper()
	want, err := b.DB.Exec(q, params)
	if err != nil {
		t.Fatalf("backend %s: %v", q, err)
	}
	got, err := c.DB.Exec(q, params)
	if err != nil {
		t.Fatalf("cache %s: %v", q, err)
	}
	w, g := canonical(want.Rows), canonical(got.Rows)
	if len(w) != len(g) {
		t.Fatalf("%s (params %v): backend %d rows, cache %d rows", q, params, len(w), len(g))
	}
	for i := range w {
		if w[i] != g[i] {
			t.Fatalf("%s (params %v): row %d differs\n  backend: %s\n  cache:   %s", q, params, i, w[i], g[i])
		}
	}
}

func TestDifferentialFixedQueries(t *testing.T) {
	b, c := diffSetup(t)
	queries := []string{
		"SELECT cid, cname FROM customer WHERE cid <= 500",
		"SELECT cid, cname FROM customer WHERE cid <= 1000",
		"SELECT cid, cname FROM customer WHERE cid <= 1500",
		"SELECT cid FROM customer WHERE cid BETWEEN 900 AND 1100",
		"SELECT cname FROM customer WHERE cid = 1",
		"SELECT cname FROM customer WHERE cid = 2999",
		"SELECT COUNT(*) FROM customer WHERE csegment = 2",
		"SELECT cid, csegment FROM customer WHERE csegment = 2 AND cid <= 50",
		"SELECT okey, total FROM orders WHERE total <= 100",
		"SELECT okey, total FROM orders WHERE total <= 400",
		"SELECT COUNT(*), SUM(total) FROM orders WHERE total <= 250",
		"SELECT c.cname, o.total FROM customer c, orders o WHERE c.cid = o.ckey AND o.okey <= 50",
		"SELECT csegment, COUNT(*) AS n FROM customer GROUP BY csegment ORDER BY n DESC",
		"SELECT TOP 5 cid FROM customer WHERE cid <= 800 ORDER BY cid DESC",
		"SELECT DISTINCT csegment FROM customer WHERE cid <= 100",
		"SELECT cname FROM customer WHERE cname LIKE 'cust1%' AND cid <= 1000",
	}
	for _, q := range queries {
		compareResults(t, q, nil, b, c)
	}
}

func TestDifferentialParameterized(t *testing.T) {
	b, c := diffSetup(t)
	templates := []string{
		"SELECT cid, cname FROM customer WHERE cid <= @p",
		"SELECT cid, cname FROM customer WHERE cid = @p",
		"SELECT cname FROM customer WHERE cid >= @p AND cid <= 2000",
		"SELECT COUNT(*) FROM orders WHERE total <= @p",
	}
	values := []int64{0, 1, 50, 999, 1000, 1001, 2500, 3000, 9999}
	for _, tmpl := range templates {
		for _, v := range values {
			compareResults(t, tmpl, exec.Params{"p": types.NewInt(v)}, b, c)
		}
	}
}

func TestDifferentialRandomized(t *testing.T) {
	b, c := diffSetup(t)
	r := rand.New(rand.NewSource(20030609))
	colPairs := []string{"cid, cname", "cid", "cname, caddress", "cid, csegment"}
	ops := []string{"<=", "<", "=", ">=", ">"}
	for i := 0; i < 120; i++ {
		cols := colPairs[r.Intn(len(colPairs))]
		op := ops[r.Intn(len(ops))]
		bound := r.Intn(3500)
		q := fmt.Sprintf("SELECT %s FROM customer WHERE cid %s %d", cols, op, bound)
		if r.Intn(3) == 0 {
			q += fmt.Sprintf(" AND csegment = %d", r.Intn(6))
		}
		compareResults(t, q, nil, b, c)
	}
	// Randomized order-table queries against the SmallOrders view boundary.
	for i := 0; i < 60; i++ {
		bound := r.Intn(500)
		q := fmt.Sprintf("SELECT okey, ckey, total FROM orders WHERE total <= %d", bound)
		compareResults(t, q, nil, b, c)
	}
}

func TestDifferentialAfterUpdates(t *testing.T) {
	b, c := diffSetup(t)
	r := rand.New(rand.NewSource(5))
	// Interleave updates (through the cache — forwarded) with replication
	// rounds and differential checks.
	for round := 0; round < 10; round++ {
		for i := 0; i < 10; i++ {
			id := r.Intn(3000) + 1
			if _, err := c.Exec(fmt.Sprintf("UPDATE customer SET cname = 'r%d_%d' WHERE cid = %d", round, i, id), nil); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.Pull(); err != nil {
			t.Fatal(err)
		}
		compareResults(t, "SELECT cid, cname FROM customer WHERE cid <= 1000", nil, b, c)
		compareResults(t, "SELECT COUNT(*) FROM customer WHERE cid <= 1000", nil, b, c)
	}
}

// TestDifferentialPulledChanges: a pulled update that keeps its row's key
// carries no Before row (opt.ChangeMap), and every other change carries its
// images whole; each cached view must still hold exactly what its definition
// selects on the backend after every kind of change: a delete, an update of
// the key (one key column, and the second of two whose view lists them in
// the other order), an update that moves a row into a view's filter and one
// that moves it out, and a view whose projection drops part of the key,
// whose updates carry their Before rows and are matched in full. A backend
// materialized view over another, maintained by the same mapped changes, is
// checked against its definition over the base table, and so is a cached
// view over the first of them.
func TestDifferentialPulledChanges(t *testing.T) {
	b := newShop(t)
	if err := b.ExecScript(`
		CREATE TABLE line (lokey INT, lno INT, qty INT, note VARCHAR(20), PRIMARY KEY (lokey, lno));
		CREATE MATERIALIZED VIEW seg AS SELECT cid, cname, csegment FROM customer WHERE csegment <= 2;
		CREATE MATERIALIZED VIEW seg1 AS SELECT cid, cname FROM seg WHERE csegment = 1;
	`); err != nil {
		t.Fatal(err)
	}
	for o := 1; o <= 20; o++ {
		for l := 1; l <= 3; l++ {
			if _, err := b.Exec(fmt.Sprintf("INSERT INTO line (lokey, lno, qty, note) VALUES (%d, %d, %d, 'n%d')", o, l, o%4, l%2), nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	c, err := NewCache("cache1", b, nil)
	if err != nil {
		t.Fatal(err)
	}
	views := []struct{ create, backend string }{
		{"CREATE CACHED VIEW cust1000 AS SELECT cid, cname, caddress FROM customer WHERE cid <= 1000",
			"SELECT cid, cname, caddress FROM customer WHERE cid <= 1000"},
		{"CREATE CACHED VIEW seg2 AS SELECT csegment, cid FROM customer WHERE csegment = 2",
			"SELECT csegment, cid FROM customer WHERE csegment = 2"},
		{"CREATE CACHED VIEW lineall AS SELECT lno, qty, lokey FROM line",
			"SELECT lno, qty, lokey FROM line"},
		{"CREATE CACHED VIEW lineqty AS SELECT lokey, qty, note FROM line WHERE qty >= 1",
			"SELECT lokey, qty, note FROM line WHERE qty >= 1"},
		{"CREATE CACHED VIEW segc AS SELECT cid, cname FROM seg WHERE csegment = 2",
			"SELECT cid, cname FROM customer WHERE csegment = 2"},
	}
	for _, v := range views {
		if err := c.CreateCachedView(v.create); err != nil {
			t.Fatal(err)
		}
	}
	check := func(step string) {
		t.Helper()
		if _, err := c.Pull(); err != nil {
			t.Fatalf("%s: pull: %v", step, err)
		}
		for _, v := range views {
			name := strings.Fields(v.create)[3]
			cols := v.backend[len("SELECT "):strings.Index(v.backend, " FROM")]
			sameContents(t, step+": "+name, b.DB, v.backend, c.DB, "SELECT "+cols+" FROM "+name)
		}
		sameContents(t, step+": seg1", b.DB, "SELECT cid, cname FROM customer WHERE csegment = 1", b.DB, "SELECT cid, cname FROM seg1")
	}
	check("seeded")
	for _, step := range []string{
		"DELETE FROM customer WHERE cid = 7",
		"DELETE FROM line WHERE lokey = 1 AND lno = 2",
		"UPDATE customer SET cid = 7 WHERE cid = 12",
		"UPDATE customer SET cid = cid + 100000 WHERE cid BETWEEN 40 AND 46",
		"UPDATE customer SET cid = 41 WHERE cid = 1999",
		"UPDATE line SET lno = 9, qty = qty + 1 WHERE lokey = 2 AND lno = 1",
		"UPDATE line SET lokey = 30 WHERE lokey = 3",
		"UPDATE customer SET csegment = 2, cname = 'moved in' WHERE cid = 11",
		"UPDATE customer SET csegment = 4 WHERE cid = 17",
		"UPDATE customer SET csegment = 1 WHERE cid = 22",
		"UPDATE line SET qty = 0 WHERE lokey = 5",
		"UPDATE line SET qty = 2 WHERE lokey = 4",
		"UPDATE line SET note = 'same' WHERE lokey = 6",
		"UPDATE customer SET cname = 'renamed' WHERE cid <= 30",
	} {
		if _, err := c.Exec(step, nil); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		check(step)
	}
}

// sameContents fails unless query on db and query2 on db2 answer the same
// rows, in any order.
func sameContents(t *testing.T, what string, db *engine.Database, query string, db2 *engine.Database, query2 string) {
	t.Helper()
	want, err := db.Exec(query, nil)
	if err != nil {
		t.Fatalf("%s: %s: %v", what, query, err)
	}
	got, err := db2.Exec(query2, nil)
	if err != nil {
		t.Fatalf("%s: %s: %v", what, query2, err)
	}
	if w, g := canonical(want.Rows), canonical(got.Rows); strings.Join(w, "\n") != strings.Join(g, "\n") {
		t.Fatalf("%s: %d rows where the definition selects %d:\n got %v\nwant %v", what, len(g), len(w), g, w)
	}
}
