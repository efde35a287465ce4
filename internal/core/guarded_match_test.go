package core

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"mtcache/internal/exec"
	"mtcache/internal/opt"
	"mtcache/internal/resilience"
	"mtcache/internal/sql"
	"mtcache/internal/types"
)

// A cache plans every ad-hoc SELECT once per shape, with its literals as
// parameters; where a cached view's predicate matters that plan is a
// ChoosePlan whose guard reads the bound literals. Two properties make that
// safe to do for every shape:
//
//   - completeness: whenever the optimizer, given the literal statement,
//     answers it from cached views alone, the shape's shared plan run with
//     those literals makes no remote call either — sharing a plan never turns
//     a local answer into a backend call;
//   - soundness: whenever the shared plan makes no remote call, its rows are
//     the backend's.
//
// The fixed table pins the statements this was sized on; the differential
// generates view predicates and literals straddling their bounds.

var guardSeed = flag.Int64("guard.seed", 1, "base seed of TestGuardedMatchDifferential; run k of -count uses seed+k")

// guardRun counts the test's invocations in this process, so -count=3 covers
// three seeds.
var guardRun atomic.Int64

const guardShopDDL = `
	CREATE TABLE item (i_id INT PRIMARY KEY, i_title VARCHAR(20), i_cost FLOAT);
	CREATE TABLE orders (o_id INT PRIMARY KEY, o_i_id INT, o_qty INT);
`

func guardShop(t *testing.T) *BackendServer {
	t.Helper()
	b := NewBackend("backend")
	if err := b.ExecScript(guardShopDDL); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 300; i++ {
		if _, err := b.Exec(fmt.Sprintf("INSERT INTO item VALUES (%d, 'title%d', %d.5)", i, i, i), nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 60; i++ {
		if _, err := b.Exec(fmt.Sprintf("INSERT INTO orders VALUES (%d, %d, %d)", i, i%10, i%4+1), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.DB.Analyze(); err != nil {
		t.Fatal(err)
	}
	return b
}

// checkShared runs q on the cache (through the shape's shared plan) and on
// the backend and holds soundness. It reports whether the literal statement's
// own plan and the shared execution were local, for the caller to hold
// completeness.
func checkShared(t *testing.T, b *BackendServer, c *CacheServer, q string) (literalLocal, sharedLocal bool) {
	t.Helper()
	lit, err := opt.Optimize(sql.MustParseSelect(q), &opt.Env{Cat: c.DB.Catalog(), IsCache: true, Opts: c.DB.Options()})
	if err != nil {
		t.Fatalf("optimize %s: %v", q, err)
	}
	got, err := c.DB.Exec(q, nil)
	if err != nil {
		t.Fatalf("cache %s: %v", q, err)
	}
	want, err := b.DB.Exec(q, nil)
	if err != nil {
		t.Fatalf("backend %s: %v", q, err)
	}
	sharedLocal = got.Counters.RemoteQueries == 0
	if g, w := canonical(got.Rows), canonical(want.Rows); strings.Join(g, "\n") != strings.Join(w, "\n") {
		t.Errorf("soundness (shared plan local: %v): %s\n  cache:   %v\n  backend: %v", sharedLocal, q, g, w)
	}
	return lit.FullyLocal, sharedLocal
}

func TestGuardedMatchFixedTable(t *testing.T) {
	b := guardShop(t)
	c, err := NewCache("fixed", b, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.DB.SetIMCacheEnabled(false)
	for _, v := range []string{
		"CREATE CACHED VIEW v_cheap AS SELECT i_id, i_title FROM item WHERE i_id <= 100",
		"CREATE CACHED VIEW v_stock AS SELECT o_id, o_qty FROM orders WHERE o_i_id = 7",
		"CREATE CACHED VIEW v_set AS SELECT o_id, o_i_id, o_qty FROM orders WHERE o_i_id IN (1, 2, 3)",
	} {
		if err := c.CreateCachedView(v); err != nil {
			t.Fatal(err)
		}
	}
	// local is the verdict at the parent of the change that deleted the
	// literal-text fallback: whether the statement, planned from its literal
	// text, made no remote call there.
	for _, tc := range []struct {
		q            string
		local        bool
		conservative bool // deliberately remote now: DESIGN.md §13
	}{
		{q: "SELECT i_title FROM item WHERE i_id < 101", local: true},                                      // (a)
		{q: "SELECT i_title FROM item WHERE i_id IN (5, 10)", local: true},                                 // (b)
		{q: "SELECT i_title FROM item WHERE i_id <= 2000 AND i_id <= 50", local: true, conservative: true}, // (c)
		{q: "SELECT o_qty FROM orders WHERE o_i_id = 7 AND o_id = 4", local: true},                         // (d)
		{q: "SELECT o_qty FROM orders WHERE o_i_id IN (1, 3)", local: true},                                // (e)
		{q: "SELECT i_title FROM item WHERE i_id = 17", local: true},
		{q: "SELECT i_title FROM item WHERE i_id <= 50", local: true},
		{q: "SELECT i_title FROM item WHERE i_id BETWEEN 5 AND 10", local: true},
		{q: "SELECT i_title FROM item WHERE i_id > 5 AND i_id < 3", local: true},
		{q: "SELECT o_qty FROM orders WHERE o_i_id = 2 AND o_id = 4", local: true},
		{q: "SELECT i_title FROM item WHERE i_id = -3", local: true},
		{q: "SELECT i_title FROM item WHERE i_id = 500", local: false},
	} {
		literalLocal, sharedLocal := checkShared(t, b, c, tc.q)
		if literalLocal != tc.local {
			t.Errorf("%s: the literal statement plans local=%v, recorded verdict %v", tc.q, literalLocal, tc.local)
		}
		if want := tc.local && !tc.conservative; sharedLocal != want {
			t.Errorf("%s: shared plan local=%v, want %v", tc.q, sharedLocal, want)
		}
	}
	// Twelve statements, ten shapes (two point lookups on item, two
	// conjunctions on orders): one plan each.
	if n := c.DB.PlanCacheSize(); n != 10 {
		t.Errorf("plan cache holds %d plans, want 10 (one per shape)", n)
	}
}

// guardCol is one column type of the differential's table: how a domain
// position (an integer, or a half step above one) is spelled as a literal.
type guardCol struct {
	name string
	lit  func(pos int, half bool) string
}

var guardCols = []guardCol{
	{"n", func(pos int, half bool) string { // INT
		if half {
			return fmt.Sprintf("%d.5", pos)
		}
		return fmt.Sprint(pos)
	}},
	{"f", func(pos int, half bool) string { // FLOAT: whole positions spelled as INT or FLOAT literals alike
		switch {
		case half:
			return fmt.Sprintf("%d.5", pos)
		case pos%2 == 0:
			return fmt.Sprintf("%d.0", pos)
		}
		return fmt.Sprint(pos)
	}},
	{"s", func(pos int, half bool) string { // VARCHAR: 'k10' < 'k10x' < 'k11'
		if half {
			return fmt.Sprintf("'k%02dx'", pos)
		}
		return fmt.Sprintf("'k%02d'", pos)
	}},
}

func TestGuardedMatchDifferential(t *testing.T) {
	seed := *guardSeed + guardRun.Add(1) - 1
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))

	b := NewBackend("backend")
	if err := b.ExecScript("CREATE TABLE t (id INT PRIMARY KEY, n INT, f FLOAT, s VARCHAR(8), pay INT)"); err != nil {
		t.Fatal(err)
	}
	// n and s step through 1..24 twice over; f through 0.5..24.0 by halves.
	for id := 1; id <= 48; id++ {
		n := (id + 1) / 2
		if _, err := b.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d, %d, %d.%d, 'k%02d', %d)", id, n, id/2, id%2*5, n, id), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.DB.Analyze(); err != nil {
		t.Fatal(err)
	}

	var cases, literalLocals, sharedLocals int
	for _, col := range guardCols {
		// A view bound is a whole position, or on the FLOAT column also a half
		// step: an INT column's view is not given a bound no INT can take.
		bound := func(lo, hi int) (int, bool, string) {
			pos, half := lo+rng.Intn(hi-lo+1), col.name == "f" && rng.Intn(2) == 0
			return pos, half, col.lit(pos, half)
		}
		l, _, lLit := bound(4, 9)
		h, _, hLit := bound(14, 20)
		p1, _, p1Lit := bound(5, 9)
		p2, _, p2Lit := bound(10, 14)
		p3, _, p3Lit := bound(15, 19)
		c := col.name
		views := []struct {
			where  string
			bounds []int // positions the query literals straddle
		}{
			{fmt.Sprintf("%s <= %s", c, hLit), []int{h}},
			{fmt.Sprintf("%s < %s", c, hLit), []int{h}},
			{fmt.Sprintf("%s >= %s", c, lLit), []int{l}},
			{fmt.Sprintf("%s > %s", c, lLit), []int{l}},
			{fmt.Sprintf("%s >= %s AND %s <= %s", c, lLit, c, hLit), []int{l, h}},
			{fmt.Sprintf("%s > %s AND %s < %s", c, lLit, c, hLit), []int{l, h}},
			{fmt.Sprintf("%s IN (%s, %s, %s)", c, p1Lit, p2Lit, p3Lit), []int{p1, p2, p3}},
			{fmt.Sprintf("%s = %s", c, p2Lit), []int{p2}},
		}
		for vi, v := range views {
			for _, projected := range []bool{true, false} {
				cols := "id, pay"
				if projected {
					cols = "id, pay, " + c
				}
				cache, err := NewCache(fmt.Sprintf("c_%s_%d_%v", c, vi, projected), b, nil)
				if err != nil {
					t.Fatal(err)
				}
				cache.DB.SetIMCacheEnabled(false)
				ddl := fmt.Sprintf("CREATE CACHED VIEW v AS SELECT %s FROM t WHERE %s", cols, v.where)
				if err := cache.CreateCachedView(ddl); err != nil {
					t.Fatalf("%s: %v", ddl, err)
				}

				// Literals straddling each bound: one below, on it, a half
				// step and a whole step above — half steps counted in halves
				// so the list sorts in domain order.
				var halves []int
				for _, pos := range v.bounds {
					halves = append(halves, 2*pos-2, 2*pos, 2*pos+1, 2*pos+2)
				}
				sort.Ints(halves)
				lit := func(i int) string { return col.lit(halves[i]/2, halves[i]%2 == 1) }
				var preds []string
				for i := range halves {
					for _, op := range []string{"=", "<", "<=", ">", ">="} {
						preds = append(preds, fmt.Sprintf("%s %s %s", c, op, lit(i)))
					}
					preds = append(preds,
						fmt.Sprintf("%s IN (%s)", c, lit(i)),
						fmt.Sprintf("%s IN (%s, %s)", c, lit(i), lit(rng.Intn(len(halves)))))
					// BETWEEN up to a later literal: a range that is empty, or a
					// single point spelled as a range, is left conservative
					// (DESIGN.md §13).
					if j := i + 1 + rng.Intn(len(halves)-i); j < len(halves) && halves[j] > halves[i] {
						preds = append(preds, fmt.Sprintf("%s BETWEEN %s AND %s", c, lit(i), lit(j)))
					}
				}
				// The view's own predicate, the one form under which a view
				// that does not project the column answers at all.
				preds = append(preds, v.where)
				for _, pred := range preds {
					q := fmt.Sprintf("SELECT id, pay FROM t WHERE %s", pred)
					switch rng.Intn(4) {
					case 0:
						q += " AND pay <= 40"
					case 1:
						q = fmt.Sprintf("SELECT id, %s FROM t WHERE %s", c, pred)
					}
					literalLocal, sharedLocal := checkShared(t, b, cache, q)
					if literalLocal && !sharedLocal {
						t.Errorf("completeness: %s\n  the literal statement plans fully local, the shared plan called the backend", q)
					}
					cases++
					if literalLocal {
						literalLocals++
					}
					if sharedLocal {
						sharedLocals++
					}
					if t.Failed() {
						t.Fatalf("view: %s", ddl)
					}
				}
			}
		}
	}
	t.Logf("%d statements: %d local as literal statements, %d local through the shared plan", cases, literalLocals, sharedLocals)
	if literalLocals < cases/10 || literalLocals > cases*9/10 {
		t.Errorf("%d of %d generated statements are local as literal statements: the generator no longer straddles the bounds", literalLocals, cases)
	}
}

// Integer tightening (x < 101 ⟺ x <= 100) is licensed by the column's type,
// not the literal's: over a FLOAT column the open bound admits 100.5.
func TestOpenBoundTightenedOnlyOnIntColumns(t *testing.T) {
	b := NewBackend("backend")
	if err := b.ExecScript(`CREATE TABLE p (id INT PRIMARY KEY, cost FLOAT);
		INSERT INTO p VALUES (1, 99); INSERT INTO p VALUES (2, 100);
		INSERT INTO p VALUES (3, 100.5); INSERT INTO p VALUES (4, 102)`); err != nil {
		t.Fatal(err)
	}
	c, err := NewCache("c", b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CreateCachedView("CREATE CACHED VIEW cheap AS SELECT id, cost FROM p WHERE cost <= 100"); err != nil {
		t.Fatal(err)
	}
	// The same statement planned from its literal text (as EXPLAIN and stored
	// procedure bodies are) and through the shape's shared plan.
	const q = "SELECT id FROM p WHERE cost < 101"
	if _, sharedLocal := checkShared(t, b, c, q); sharedLocal {
		t.Errorf("%s: answered from a view holding cost <= 100", q)
	}
	lit, err := c.DB.ExecStmt(sql.MustParseSelect(q), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := canonical(lit.Rows); strings.Join(got, " ") != "1 2 3" {
		t.Errorf("%s planned from its literal text: ids %v, want [1 2 3]", q, got)
	}
	// In reach of the view the answer is local either way.
	if _, sharedLocal := checkShared(t, b, c, "SELECT id FROM p WHERE cost < 100"); !sharedLocal {
		t.Error("cost < 100 not answered from the view holding cost <= 100")
	}
}

// A <> conjunct folds to an unbounded range, which must not read as "implied
// by the view" and drop out of the residual.
func TestNotEqualConjunctStaysInResidual(t *testing.T) {
	b := guardShop(t)
	c, err := NewCache("c", b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CreateCachedView("CREATE CACHED VIEW v_cheap AS SELECT i_id, i_title FROM item WHERE i_id <= 100"); err != nil {
		t.Fatal(err)
	}
	const q = "SELECT i_id FROM item WHERE i_id <= 8 AND i_id <> 5"
	if _, sharedLocal := checkShared(t, b, c, q); !sharedLocal {
		t.Errorf("%s: not answered from v_cheap", q)
	}
	lit, err := c.DB.ExecStmt(sql.MustParseSelect(q), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(lit.Rows) != 7 {
		t.Errorf("%s planned from its literal text: %d rows, want 7", q, len(lit.Rows))
	}
}

// downLink is a backend link that is down: every call fails with the
// transport error a dead TCP link is classified as.
type downLink struct{}

func (downLink) Query(string, exec.Params) (*exec.ResultSet, error) {
	return nil, fmt.Errorf("%w: link cut by the test", resilience.ErrBackendDown)
}
func (downLink) Exec(string, exec.Params) (int64, error) {
	return 0, fmt.Errorf("%w: link cut by the test", resilience.ErrBackendDown)
}

// With the backend unreachable a guarded shape keeps answering the literals
// its guard admits and fails the others with the transport error — also when
// the shape's cached plan has no guard because the optimizer sent the whole
// shape to the backend on cost: the degraded re-plan sees the values.
func TestDegradedGuardedShape(t *testing.T) {
	b := NewBackend("backend")
	if err := b.ExecScript(`CREATE TABLE part (id INT PRIMARY KEY, name VARCHAR(40) NOT NULL, qty INT);
		CREATE INDEX idx_qty ON part(qty)`); err != nil {
		t.Fatal(err)
	}
	var rows []types.Row
	for i := int64(1); i <= 5000; i++ {
		rows = append(rows, types.Row{types.NewInt(i), types.NewString(fmt.Sprintf("part%d", i)), types.NewInt(i)})
	}
	if err := b.DB.BulkLoad("part", rows); err != nil {
		t.Fatal(err)
	}
	if err := b.DB.Analyze(); err != nil {
		t.Fatal(err)
	}
	c, err := NewCache("c", b, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.DB.SetIMCacheEnabled(false)
	if err := c.CreateCachedView("CREATE CACHED VIEW cv_part AS SELECT id, name, qty FROM part WHERE id <= 4000"); err != nil {
		t.Fatal(err)
	}
	// by id the view is sought into and the shape's plan is a ChoosePlan; by
	// qty the view has no index, the backend does, and the plan is remote.
	const byID, byQty = "SELECT name FROM part WHERE id = %d", "SELECT name FROM part WHERE qty = %d AND id <= %d"
	for _, q := range []string{fmt.Sprintf(byID, 41), fmt.Sprintf(byID, 4100), fmt.Sprintf(byQty, 41, 4000)} {
		if _, err := c.DB.Exec(q, nil); err != nil {
			t.Fatal(err)
		}
	}
	if res, _ := c.DB.Exec(fmt.Sprintf(byQty, 43, 4000), nil); res == nil || res.Counters.RemoteQueries != 1 {
		t.Fatalf("fixture: the by-qty shape is expected to plan remote on cost: %+v", res)
	}

	c.DB.SetRemote(downLink{})
	for _, q := range []string{fmt.Sprintf(byID, 42), fmt.Sprintf(byQty, 42, 4000)} {
		res, err := c.DB.Exec(q, nil)
		if err != nil {
			t.Fatalf("%s: not answered from the view with the backend down: %v", q, err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].Str() != "part42" {
			t.Fatalf("%s: degraded answer %v", q, res.Rows)
		}
	}
	for _, q := range []string{fmt.Sprintf(byID, 4200), fmt.Sprintf(byQty, 4200, 4500)} {
		if _, err := c.DB.Exec(q, nil); !errors.Is(err, resilience.ErrBackendDown) {
			t.Fatalf("%s: want the transport error, got %v", q, err)
		}
	}
}
