package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"mtcache/internal/types"
)

// Generated join differential. A seeded generator builds four small tables
// indexed at random (primary key, non-unique index, composite index, or
// nothing; NULL and duplicate join keys; sometimes an empty table) and 2–4-way
// equi-joins over them, some ending in a LEFT JOIN. Every query runs on
//
//   - the indexed database, where the planner picks lookup joins by cost,
//   - a copy without any key or index, where only hash joins (built on the
//     smaller side) and nested loops exist,
//
// and every result must equal, as a multiset, what a nested-loop evaluator
// written against the SQL semantics returns.

const (
	jcID = iota
	jcA
	jcB
	jcV
	jcWidth
)

var jcNames = [jcWidth]string{"id", "a", "b", "v"}

type jtable struct {
	ddl  []string // CREATE TABLE + CREATE INDEX
	rows []types.Row
}

type jcond struct{ lt, lc, rt, rc int } // t<lt>.<lc> = t<rt>.<rc>

type jfilter struct {
	t, c int
	op   string // "<" or "="
	v    int64
}

type jquery struct {
	n        int       // tables t0..t(n-1) joined in a chain
	conds    []jcond   // inner-join predicates (WHERE)
	filters  []jfilter // WHERE filters on inner tables
	left     bool      // the last table is LEFT JOINed
	on       []jcond   // ON equi-predicates of the left join (rt = last table)
	onFilter *jfilter  // extra ON conjunct on the last table
}

func (q jquery) sql() string {
	var sel, from, where []string
	inner := q.n
	if q.left {
		inner--
	}
	for t := 0; t < q.n; t++ {
		sel = append(sel, fmt.Sprintf("t%d.id, t%d.v", t, t))
		if t < inner {
			from = append(from, fmt.Sprintf("t%d", t))
		}
	}
	eq := func(c jcond) string {
		return fmt.Sprintf("t%d.%s = t%d.%s", c.lt, jcNames[c.lc], c.rt, jcNames[c.rc])
	}
	flt := func(f jfilter) string { return fmt.Sprintf("t%d.%s %s %d", f.t, jcNames[f.c], f.op, f.v) }
	for _, c := range q.conds {
		where = append(where, eq(c))
	}
	for _, f := range q.filters {
		where = append(where, flt(f))
	}
	text := "SELECT " + strings.Join(sel, ", ") + " FROM " + strings.Join(from, ", ")
	if q.left {
		var on []string
		for _, c := range q.on {
			on = append(on, eq(c))
		}
		if q.onFilter != nil {
			on = append(on, flt(*q.onFilter))
		}
		text += fmt.Sprintf(" LEFT JOIN t%d ON %s", q.n-1, strings.Join(on, " AND "))
	}
	if len(where) > 0 {
		text += " WHERE " + strings.Join(where, " AND ")
	}
	return text
}

// reference evaluates q by nested loops: comparisons with NULL are not true,
// and a left row without an ON match is padded with NULLs.
func (q jquery) reference(tables []jtable) []string {
	eqOK := func(a, b types.Value) bool { return !a.IsNull() && !b.IsNull() && types.Compare(a, b) == 0 }
	fltOK := func(f jfilter, row types.Row) bool {
		v := row[f.c]
		if v.IsNull() {
			return false
		}
		if f.op == "=" {
			return v.Int() == f.v
		}
		return v.Int() < f.v
	}
	inner := q.n
	if q.left {
		inner--
	}
	var out []string
	emit := func(combo []types.Row) {
		var cells []string
		for _, r := range combo {
			if r == nil {
				cells = append(cells, "NULL", "NULL")
				continue
			}
			cells = append(cells, r[jcID].String(), r[jcV].String())
		}
		out = append(out, strings.Join(cells, "|"))
	}
	combo := make([]types.Row, q.n)
	var rec func(t int)
	rec = func(t int) {
		if t == inner {
			if !q.left {
				emit(combo)
				return
			}
			matched := false
			for _, r := range tables[q.n-1].rows {
				ok := q.onFilter == nil || fltOK(*q.onFilter, r)
				for _, c := range q.on {
					ok = ok && eqOK(combo[c.lt][c.lc], r[c.rc])
				}
				if ok {
					matched = true
					combo[q.n-1] = r
					emit(combo)
				}
			}
			if !matched {
				combo[q.n-1] = nil
				emit(combo)
			}
			return
		}
	rows:
		for _, r := range tables[t].rows {
			combo[t] = r
			for _, f := range q.filters {
				if f.t == t && !fltOK(f, r) {
					continue rows
				}
			}
			for _, c := range q.conds {
				if c.rt == t && !eqOK(combo[c.lt][c.lc], r[c.rc]) {
					continue rows
				}
			}
			rec(t + 1)
		}
	}
	rec(0)
	sort.Strings(out)
	return out
}

func genJoinTables(rng *rand.Rand) []jtable {
	tables := make([]jtable, 4)
	for t := range tables {
		name := fmt.Sprintf("t%d", t)
		pk, extra := "", ""
		switch rng.Intn(5) {
		case 0: // nothing to seek
		case 1:
			pk = " PRIMARY KEY"
		case 2:
			pk = " PRIMARY KEY"
			extra = fmt.Sprintf("CREATE INDEX ix_%s_a ON %s (a)", name, name)
		case 3:
			pk = " PRIMARY KEY"
			extra = fmt.Sprintf("CREATE INDEX ix_%s_ab ON %s (a, b)", name, name)
		case 4:
			extra = fmt.Sprintf("CREATE INDEX ix_%s_a ON %s (a)", name, name)
		}
		tables[t].ddl = []string{fmt.Sprintf("CREATE TABLE %s (id INT%s, a INT, b INT, v INT)", name, pk)}
		if extra != "" {
			tables[t].ddl = append(tables[t].ddl, extra)
		}
		n := []int{0, 3, 9, 14, 40, 120}[rng.Intn(6)]
		key := func() types.Value {
			if rng.Intn(7) == 0 {
				return types.Value{}
			}
			return types.NewInt(int64(rng.Intn(10)))
		}
		for i := 0; i < n; i++ {
			tables[t].rows = append(tables[t].rows,
				types.Row{types.NewInt(int64(i)), key(), key(), types.NewInt(int64(rng.Intn(30)))})
		}
	}
	return tables
}

func genJoinQuery(rng *rand.Rand) jquery {
	q := jquery{n: 2 + rng.Intn(3), left: rng.Intn(3) == 0}
	link := func(lt, rt int) []jcond {
		switch rng.Intn(4) {
		case 0: // foreign key → key
			return []jcond{{lt, jcA, rt, jcID}}
		case 1: // key → foreign key (fan-out)
			return []jcond{{lt, jcID, rt, jcA}}
		case 2: // non-key to non-key
			return []jcond{{lt, jcA, rt, jcA}}
		default: // composite
			return []jcond{{lt, jcA, rt, jcA}, {lt, jcB, rt, jcB}}
		}
	}
	inner := q.n
	if q.left {
		inner--
	}
	for t := 1; t < inner; t++ {
		q.conds = append(q.conds, link(rng.Intn(t), t)...)
	}
	for t := 0; t < inner; t++ {
		switch rng.Intn(4) {
		case 0:
			q.filters = append(q.filters, jfilter{t, jcV, "<", int64(5 + rng.Intn(25))})
		case 1:
			q.filters = append(q.filters, jfilter{t, jcID, "=", int64(rng.Intn(12))})
		}
	}
	if q.left {
		q.on = link(rng.Intn(inner), q.n-1)
		if rng.Intn(2) == 0 {
			q.onFilter = &jfilter{q.n - 1, jcV, "<", int64(5 + rng.Intn(25))}
		}
	}
	return q
}

func loadJoinDB(t *testing.T, cfg Config, tables []jtable, indexed bool) *Database {
	t.Helper()
	db := New(cfg)
	for i, tb := range tables {
		ddl := tb.ddl
		if !indexed {
			ddl = []string{strings.Replace(tb.ddl[0], " PRIMARY KEY", "", 1)}
		}
		for _, stmt := range ddl {
			if _, err := db.Exec(stmt, nil); err != nil {
				t.Fatalf("%s: %v", stmt, err)
			}
		}
		if err := db.BulkLoad(fmt.Sprintf("t%d", i), tb.rows); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestJoinDifferentialGenerated(t *testing.T) {
	seeds, perSeed := 24, 10
	if testing.Short() {
		seeds = 6
	}
	ops := map[string]int{}
	rowsChecked := 0
	for seed := 1; seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		tables := genJoinTables(rng)
		cfg := Config{Name: "j", Role: Backend}
		indexed := loadJoinDB(t, cfg, tables, true)
		plain := loadJoinDB(t, cfg, tables, false)

		for i := 0; i < perSeed; i++ {
			q := genJoinQuery(rng)
			text := q.sql()
			want := q.reference(tables)
			rowsChecked += len(want)
			check := func(label string, db *Database) {
				t.Helper()
				res, err := db.Exec(text, nil)
				if err != nil {
					t.Fatalf("seed %d %s: %s: %v", seed, label, text, err)
				}
				got := imCanon(res.Rows) // sorted "a|b|…" rows, like reference
				if strings.Join(got, "\n") != strings.Join(want, "\n") {
					plan, _ := db.Explain(text)
					t.Fatalf("seed %d %s: %s\n%s\ngot  %d rows %v\nwant %d rows %v",
						seed, label, text, plan, len(got), got, len(want), want)
				}
			}
			check("indexed", indexed)
			plan, err := indexed.Explain(text)
			if err != nil {
				t.Fatal(err)
			}
			check("no indexes", plain)
			plainPlan, err := plain.Explain(text)
			if err != nil {
				t.Fatal(err)
			}
			for _, op := range []string{"IndexJoin", "IndexLeftJoin", "HashJoin", "HashLeftJoin"} {
				if strings.Contains(plan, op+" ") || strings.Contains(plan, op+"\n") {
					ops["indexed "+op]++
				}
			}
			if strings.Contains(plainPlan, "Index") {
				t.Fatalf("seed %d: plan over index-free tables seeks an index:\n%s", seed, plainPlan)
			}
		}
	}
	t.Logf("%d result rows checked per configuration; plans on the indexed database: %v", rowsChecked, ops)
	if !testing.Short() {
		for _, op := range []string{"indexed IndexJoin", "indexed IndexLeftJoin", "indexed HashJoin", "indexed HashLeftJoin"} {
			if ops[op] < 3 {
				t.Errorf("generator exercised %q in only %d plans: %v", op, ops[op], ops)
			}
		}
	}
}

// newBigSmallDB holds big(id PK, k, v) with 1000 rows and small(sid PK, sk,
// sv) with 10; small.sk points at big ids, and nothing indexes either k.
func newBigSmallDB(t *testing.T) *Database {
	t.Helper()
	db := New(Config{Name: "bs", Role: Backend})
	err := db.ExecScript(`
		CREATE TABLE big (id INT PRIMARY KEY, k INT, v INT);
		CREATE TABLE small (sid INT PRIMARY KEY, sk INT, sv INT);`)
	if err != nil {
		t.Fatal(err)
	}
	var big, small []types.Row
	for i := 0; i < 1000; i++ {
		big = append(big, types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 50)), types.NewInt(int64(i))})
	}
	for i := 0; i < 10; i++ {
		small = append(small, types.Row{types.NewInt(int64(i)), types.NewInt(int64(i * 7)), types.NewInt(int64(i))})
	}
	if err := db.BulkLoad("big", big); err != nil {
		t.Fatal(err)
	}
	if err := db.BulkLoad("small", small); err != nil {
		t.Fatal(err)
	}
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	return db
}

// A join no index serves still hashes, and builds on the smaller input
// whichever way the FROM clause lists the tables.
func TestJoinWithoutIndexBuildsOnSmallerSide(t *testing.T) {
	db := newBigSmallDB(t)
	for _, from := range []string{"small, big", "big, small"} {
		plan, err := db.Explain("SELECT sid, id FROM " + from + " WHERE sk = k")
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan, "HashJoin") || strings.Contains(plan, "IndexJoin") {
			t.Fatalf("FROM %s: want a hash join:\n%s", from, plan)
		}
		// Children print probe first, build second.
		probe, build := strings.Index(plan, "Scan big"), strings.Index(plan, "Scan small")
		if probe < 0 || build < probe {
			t.Errorf("FROM %s: hash table not built on small:\n%s", from, plan)
		}
	}
}

// SELECT * expands in FROM order before join ordering, so the orientation
// the planner picks cannot reorder the output columns.
func TestSelectStarOrderSurvivesReorientation(t *testing.T) {
	db := newBigSmallDB(t)
	for from, want := range map[string]string{
		"small, big": "sid sk sv id k v",
		"big, small": "id k v sid sk sv",
	} {
		res, err := db.Exec("SELECT * FROM "+from+" WHERE sk = k", nil)
		if err != nil {
			t.Fatal(err)
		}
		ord := map[string]int{}
		var got []string
		for i, c := range res.Cols {
			ord[c.Name] = i
			got = append(got, c.Name)
		}
		if strings.Join(got, " ") != want {
			t.Fatalf("FROM %s: columns %v, want %s", from, got, want)
		}
		if len(res.Rows) != 8*20 { // sk in {0,7,…,49} each meets 20 big rows
			t.Fatalf("FROM %s: %d rows", from, len(res.Rows))
		}
		for _, row := range res.Rows {
			// The values sit under their own names: sk = 7·sid = k, v = id.
			if row[ord["sk"]].Int() != 7*row[ord["sid"]].Int() || row[ord["k"]].Int() != row[ord["sk"]].Int() ||
				row[ord["v"]].Int() != row[ord["id"]].Int() {
				t.Fatalf("FROM %s: values not under their columns: %v", from, row)
			}
		}
	}
}

// EXPLAIN ANALYZE reports rows, time and the seek count of a lookup join.
func TestExplainAnalyzeIndexJoin(t *testing.T) {
	db := newBigSmallDB(t)
	text := planText(t, db, "EXPLAIN ANALYZE SELECT sid, v FROM small, big WHERE sk = id", nil)
	var line string
	for _, l := range strings.Split(text, "\n") {
		if strings.Contains(l, "IndexJoin big.__pk") {
			line = l
		}
	}
	for _, want := range []string{"(actual rows=10 time=", " seeks=10)"} {
		if !strings.Contains(line, want) {
			t.Errorf("IndexJoin line %q missing %q:\n%s", line, want, text)
		}
	}
	if strings.Contains(text, "Scan big") {
		t.Errorf("lookup join must not scan its inner table:\n%s", text)
	}
}
