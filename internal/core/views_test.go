package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"mtcache/internal/engine"
	"mtcache/internal/types"
)

// A materialized or cached view that is not a select-project of one stored
// relation cannot be kept current from that relation's changes, so CREATE
// refuses it — with the one validator's error, on a backend and on a cache
// alike — and leaves nothing behind. (Accepted, the GROUP BY view was
// populated and then never maintained, and the cached TOP 5 view held every
// row.)
func TestUnmaintainableViewIsRefused(t *testing.T) {
	b := newShop(t)
	if err := b.ExecScript("CREATE VIEW names AS SELECT cid, cname FROM customer"); err != nil {
		t.Fatal(err)
	}
	c, err := NewCache("cache1", b, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, def := range map[string]string{
		"GROUP BY":          "SELECT csegment, COUNT(*) AS n FROM customer GROUP BY csegment",
		"TOP":               "SELECT TOP 5 cid, cname FROM customer",
		"DISTINCT":          "SELECT DISTINCT csegment FROM customer",
		"join":              "SELECT okey, cname FROM orders JOIN customer ON ckey = cid",
		"comma join":        "SELECT okey, cname FROM orders, customer WHERE ckey = cid",
		"computed column":   "SELECT cid, csegment + 1 AS s FROM customer",
		"plain-view source": "SELECT cid FROM names",
	} {
		for _, s := range []struct {
			db     *engine.Database
			create func(string) error
			kind   string
		}{
			{b.DB, b.ExecScript, "MATERIALIZED"},
			{c.DB, c.CreateCachedView, "CACHED"},
		} {
			err := s.create(fmt.Sprintf("CREATE %s VIEW refused AS %s", s.kind, def))
			if err == nil || !strings.Contains(err.Error(), "must be a select-project over one table or materialized view") {
				t.Errorf("%s, %s: CREATE answered %v, want the select-project refusal", name, s.kind, err)
			}
			if s.db.Catalog().Table("refused") != nil || s.db.Store().Table("refused") != nil {
				t.Fatalf("%s, %s: the refused view was left behind", name, s.kind)
			}
		}
	}
	// The same definitions stay legal for a plain view, which nothing maintains.
	if err := b.ExecScript("CREATE VIEW per_segment AS SELECT csegment, COUNT(*) AS n FROM customer GROUP BY csegment"); err != nil {
		t.Error(err)
	}
}

// On a cache a backend's materialized view is a shadow like the tables around
// it: schema and statistics, no data. (The shadow script used to run its
// definition against the backend and keep the rows in a table no plan may
// read and nothing maintained.)
func TestShadowMaterializedViewHoldsNoData(t *testing.T) {
	b := newShop(t)
	if err := b.ExecScript(`CREATE MATERIALIZED VIEW bigspenders AS
		SELECT okey, ckey, total FROM orders WHERE total >= 250`); err != nil {
		t.Fatal(err)
	}
	c, err := NewCache("cache1", b, nil)
	if err != nil {
		t.Fatal(err)
	}
	shadow := c.DB.Catalog().Table("bigspenders")
	if shadow == nil || len(shadow.Columns) != 3 || len(shadow.PrimaryKey) != 1 {
		t.Fatalf("shadow of bigspenders: %+v", shadow)
	}
	if n := c.DB.TableRowCount("bigspenders"); n != 0 {
		t.Errorf("the shadow of bigspenders holds %d rows, want none", n)
	}
	res, err := c.Exec("SELECT COUNT(*) FROM bigspenders", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Rows[0][0].Int(), int64(b.DB.TableRowCount("bigspenders")); got != want || res.Counters.RemoteQueries != 1 {
		t.Errorf("COUNT(*) on the cache = %d with %d remote queries, want the backend's %d with one", got, res.Counters.RemoteQueries, want)
	}
}

// TestViewsAgreeWithTheirDefinition drives random writes against a base table
// and checks, after every statement and replication round, that everything
// derived from it holds exactly what its definition says — as a multiset,
// re-evaluated here from the base table's stored rows: (a) backend
// materialized views, one of them over another, (b) cached views of the base
// table, (c) cached views over (a); each once keeping the key (rows located by primary key) and once
// dropping it (located by full-row equality, duplicate rows included). One
// change map and one change apply serve all of them.
func TestViewsAgreeWithTheirDefinition(t *testing.T) {
	// t(id, grp, v, w); every view filters on v, so an update of v crosses the
	// boundary in either direction, and none projects w.
	type view struct {
		name string
		on   *engine.Database
		keep func(row types.Row) bool
		cols []int
	}
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			b := NewBackend("backend")
			if err := b.ExecScript(`CREATE TABLE t (id INT PRIMARY KEY, grp INT, v INT, w INT);
				CREATE MATERIALIZED VIEW mv_key AS SELECT id, grp, v FROM t WHERE v <= 60;
				CREATE MATERIALIZED VIEW mv_nokey AS SELECT grp, v FROM t WHERE v <= 60;
				CREATE MATERIALIZED VIEW mv_of_mv AS SELECT v, id FROM mv_key WHERE v >= 30`); err != nil {
				t.Fatal(err)
			}
			nextID := 0
			insert := func() string {
				nextID++
				return fmt.Sprintf("INSERT INTO t (id, grp, v, w) VALUES (%d, %d, %d, %d)", nextID, rng.Intn(3), rng.Intn(10)*10, rng.Intn(100))
			}
			for i := 0; i < 30; i++ {
				if _, err := b.Exec(insert(), nil); err != nil {
					t.Fatal(err)
				}
			}
			c, err := NewCache("cache", b, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, ddl := range []string{
				"CREATE CACHED VIEW cv_key AS SELECT id, grp, v FROM t WHERE v >= 30",
				"CREATE CACHED VIEW cv_nokey AS SELECT v, grp FROM t WHERE v >= 30",
				"CREATE CACHED VIEW cvmv_key AS SELECT id, v FROM mv_key WHERE v >= 30",
				"CREATE CACHED VIEW cvmv_nokey AS SELECT v FROM mv_nokey WHERE v >= 30",
			} {
				if err := c.CreateCachedView(ddl); err != nil {
					t.Fatal(err)
				}
			}
			v := func(row types.Row) int64 { return row[2].Int() }
			views := []view{
				{"mv_key", b.DB, func(r types.Row) bool { return v(r) <= 60 }, []int{0, 1, 2}},
				{"mv_nokey", b.DB, func(r types.Row) bool { return v(r) <= 60 }, []int{1, 2}},
				{"mv_of_mv", b.DB, func(r types.Row) bool { return v(r) >= 30 && v(r) <= 60 }, []int{2, 0}},
				{"cv_key", c.DB, func(r types.Row) bool { return v(r) >= 30 }, []int{0, 1, 2}},
				{"cv_nokey", c.DB, func(r types.Row) bool { return v(r) >= 30 }, []int{2, 1}},
				{"cvmv_key", c.DB, func(r types.Row) bool { return v(r) >= 30 && v(r) <= 60 }, []int{0, 2}},
				{"cvmv_nokey", c.DB, func(r types.Row) bool { return v(r) >= 30 && v(r) <= 60 }, []int{2}},
			}
			stored := func(db *engine.Database, table string) []types.Row {
				tx := db.Store().Begin(false)
				defer tx.Abort()
				return tx.Table(table).Rows()
			}
			multiset := func(rows []types.Row) []string {
				out := make([]string, len(rows))
				for i, r := range rows {
					out[i] = fmt.Sprint(r)
				}
				slices.Sort(out)
				return out
			}
			check := func(after string) {
				t.Helper()
				if err := b.SyncReplication(); err != nil {
					t.Fatalf("after %s: %v", after, err)
				}
				base := stored(b.DB, "t")
				for _, vw := range views {
					var want []types.Row
					for _, r := range base {
						if vw.keep(r) {
							p := make(types.Row, len(vw.cols))
							for i, ord := range vw.cols {
								p[i] = r[ord]
							}
							want = append(want, p)
						}
					}
					if got, want := multiset(stored(vw.on, vw.name)), multiset(want); !slices.Equal(got, want) {
						t.Fatalf("after %s: %s holds\n%v\nits definition says\n%v", after, vw.name, got, want)
					}
				}
			}
			check("the seed")
			for step := 0; step < 60; step++ {
				id := 1 + rng.Intn(nextID)
				var stmt string
				switch rng.Intn(8) {
				case 0, 1:
					stmt = insert()
				case 2, 3: // crosses either filter boundary, in either direction
					stmt = fmt.Sprintf("UPDATE t SET v = %d WHERE id = %d", rng.Intn(10)*10, id)
				case 4: // key-preserving, inside the views
					stmt = fmt.Sprintf("UPDATE t SET grp = %d WHERE id = %d", rng.Intn(3), id)
				case 5: // many rows in one transaction; equal projected rows move together
					stmt = fmt.Sprintf("UPDATE t SET v = v + %d WHERE grp = %d", (rng.Intn(5)-2)*10, rng.Intn(3))
				case 6: // touches no view column: an update of a row to itself
					stmt = fmt.Sprintf("UPDATE t SET w = %d WHERE id = %d", rng.Intn(100), id)
				case 7:
					stmt = fmt.Sprintf("DELETE FROM t WHERE id = %d", id)
				}
				if _, err := b.Exec(stmt, nil); err != nil {
					t.Fatalf("%s: %v", stmt, err)
				}
				check(stmt)
			}
		})
	}
}
