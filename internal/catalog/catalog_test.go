package catalog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"mtcache/internal/sql"
	"mtcache/internal/types"
)

func sampleTable() *Table {
	return &Table{
		Name: "customer",
		Columns: []Column{
			{Name: "cid", Type: types.KindInt, NotNull: true},
			{Name: "cname", Type: types.KindString},
			{Name: "cbalance", Type: types.KindFloat},
		},
		PrimaryKey: []int{0},
	}
}

func TestAddLookupDropTable(t *testing.T) {
	c := New()
	if err := c.AddTable(sampleTable()); err != nil {
		t.Fatal(err)
	}
	if c.Table("CUSTOMER") == nil {
		t.Error("lookup should be case-insensitive")
	}
	if err := c.AddTable(sampleTable()); err == nil {
		t.Error("duplicate table should fail")
	}
	if err := c.DropTable("customer"); err != nil {
		t.Fatal(err)
	}
	if c.Table("customer") != nil {
		t.Error("dropped table still visible")
	}
	if err := c.DropTable("customer"); err == nil {
		t.Error("double drop should fail")
	}
}

func TestColumnLookup(t *testing.T) {
	tbl := sampleTable()
	if tbl.ColumnIndex("CNAME") != 1 {
		t.Error("case-insensitive column lookup")
	}
	if tbl.ColumnIndex("nope") != -1 {
		t.Error("missing column should be -1")
	}
	if tbl.Column("cid").Type != types.KindInt {
		t.Error("column type")
	}
}

func TestIndexes(t *testing.T) {
	c := New()
	c.AddTable(sampleTable())
	if err := c.AddIndex("customer", &Index{Name: "ix_name", Columns: []int{1}}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddIndex("customer", &Index{Name: "IX_NAME", Columns: []int{1}}); err == nil {
		t.Error("duplicate index should fail")
	}
	if err := c.AddIndex("missing", &Index{Name: "x"}); err == nil {
		t.Error("index on missing table should fail")
	}
}

func TestProcedures(t *testing.T) {
	c := New()
	p := &Procedure{Name: "getCust", Text: "CREATE PROCEDURE getCust AS SELECT 1"}
	if err := c.AddProcedure(p); err != nil {
		t.Fatal(err)
	}
	if c.Procedure("GETCUST") == nil {
		t.Error("case-insensitive proc lookup")
	}
	if err := c.AddProcedure(p); err == nil {
		t.Error("duplicate proc should fail")
	}
	if err := c.DropProcedure("getCust"); err != nil {
		t.Fatal(err)
	}
	if c.Procedure("getCust") != nil {
		t.Error("dropped proc visible")
	}
}

func intRows(vals ...int64) []types.Row {
	rows := make([]types.Row, len(vals))
	for i, v := range vals {
		rows[i] = types.Row{types.NewInt(v)}
	}
	return rows
}

func TestBuildTableStats(t *testing.T) {
	rows := intRows(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	s := BuildTableStats([]string{"a"}, rows)
	if s.RowCount != 10 {
		t.Errorf("rowcount %d", s.RowCount)
	}
	cs := s.Col("a")
	if cs.Distinct != 10 {
		t.Errorf("distinct %d", cs.Distinct)
	}
	if cs.Min.Int() != 1 || cs.Max.Int() != 10 {
		t.Errorf("min/max %v %v", cs.Min, cs.Max)
	}
}

func TestStatsWithNulls(t *testing.T) {
	rows := []types.Row{{types.NewInt(1)}, {types.Null}, {types.NewInt(3)}}
	s := BuildTableStats([]string{"a"}, rows)
	cs := s.Col("a")
	if cs.NullCount != 1 || cs.Distinct != 2 {
		t.Errorf("nulls=%d distinct=%d", cs.NullCount, cs.Distinct)
	}
}

func TestSelectivityEq(t *testing.T) {
	// 100 rows, values 0..99 — each value should be ~1%.
	vals := make([]int64, 100)
	for i := range vals {
		vals[i] = int64(i)
	}
	s := BuildTableStats([]string{"a"}, intRows(vals...))
	sel := s.Col("a").SelectivityEq(types.NewInt(50))
	if sel < 0.005 || sel > 0.05 {
		t.Errorf("eq selectivity %f, want ~0.01", sel)
	}
}

func TestSelectivityEqSkewed(t *testing.T) {
	// 90 copies of 1, then 2..11 once each.
	vals := make([]int64, 0, 100)
	for i := 0; i < 90; i++ {
		vals = append(vals, 1)
	}
	for i := int64(2); i <= 11; i++ {
		vals = append(vals, i)
	}
	s := BuildTableStats([]string{"a"}, intRows(vals...))
	hot := s.Col("a").SelectivityEq(types.NewInt(1))
	cold := s.Col("a").SelectivityEq(types.NewInt(7))
	if hot < cold {
		t.Errorf("skew not captured: hot=%f cold=%f", hot, cold)
	}
}

func TestSelectivityRange(t *testing.T) {
	vals := make([]int64, 1000)
	for i := range vals {
		vals[i] = int64(i)
	}
	s := BuildTableStats([]string{"a"}, intRows(vals...))
	cs := s.Col("a")
	// [0, 499] should be ~50%
	sel := cs.SelectivityRange(types.NewInt(0), types.NewInt(499), false, false)
	if sel < 0.4 || sel > 0.6 {
		t.Errorf("range selectivity %f, want ~0.5", sel)
	}
	// unbounded hi
	sel = cs.SelectivityRange(types.NewInt(900), types.Value{}, false, false)
	if sel < 0.05 || sel > 0.2 {
		t.Errorf("tail selectivity %f, want ~0.1", sel)
	}
	// full range
	sel = cs.SelectivityRange(types.Value{}, types.Value{}, false, false)
	if sel < 0.95 {
		t.Errorf("full range %f, want ~1", sel)
	}
}

func TestFractionLE(t *testing.T) {
	vals := make([]int64, 1000)
	for i := range vals {
		vals[i] = int64(i + 1) // 1..1000
	}
	s := BuildTableStats([]string{"cid"}, intRows(vals...))
	cs := s.Col("cid")
	f := cs.FractionLE(types.NewInt(1000))
	if f != 1 {
		t.Errorf("FractionLE(max)=%f", f)
	}
	f = cs.FractionLE(types.NewInt(0))
	if f != 0 {
		t.Errorf("FractionLE(below min)=%f", f)
	}
	f = cs.FractionLE(types.NewInt(500))
	if f < 0.45 || f > 0.55 {
		t.Errorf("FractionLE(mid)=%f, want ~0.5", f)
	}
}

func TestStatsClone(t *testing.T) {
	s := BuildTableStats([]string{"a"}, intRows(1, 2, 3))
	c := s.Clone()
	c.RowCount = 99
	c.Col("a").Distinct = 99
	if s.RowCount != 3 || s.Col("a").Distinct != 3 {
		t.Error("clone aliases original")
	}
}

func TestShadowScriptRoundTrip(t *testing.T) {
	c := New()
	tbl := sampleTable()
	c.AddTable(tbl)
	c.AddIndex("customer", &Index{Name: "ix_cname", Columns: []int{1}})
	c.AddTable(&Table{
		Name:    "v_top",
		IsView:  true,
		ViewDef: sql.MustParseSelect("SELECT cid FROM customer WHERE cid < 100"),
		Columns: []Column{{Name: "cid", Type: types.KindInt}},
	})
	script := ShadowScript(c)
	if !strings.Contains(script, "CREATE TABLE customer") {
		t.Errorf("script missing table:\n%s", script)
	}
	if !strings.Contains(script, "CREATE INDEX ix_cname") {
		t.Errorf("script missing index:\n%s", script)
	}
	if !strings.Contains(script, "CREATE VIEW v_top") {
		t.Errorf("script missing view:\n%s", script)
	}
	// script must re-parse
	if _, err := sql.ParseScript(script); err != nil {
		t.Fatalf("shadow script does not re-parse: %v\n%s", err, script)
	}
}

func TestShadowScriptExcludesCachedViews(t *testing.T) {
	c := New()
	c.AddTable(sampleTable())
	c.AddTable(&Table{
		Name: "Cust1000", IsView: true, Cached: true, Materialized: true,
		ViewDef: sql.MustParseSelect("SELECT cid FROM customer WHERE cid <= 1000"),
	})
	if strings.Contains(ShadowScript(c), "Cust1000") {
		t.Error("cached views must not be in the shadow script")
	}
}

func TestSnapshotEncodeDecode(t *testing.T) {
	c := New()
	tbl := sampleTable()
	tbl.Stats.Store(BuildTableStats([]string{"cid", "cname", "cbalance"}, []types.Row{
		{types.NewInt(1), types.NewString("a"), types.NewFloat(1.5)},
		{types.NewInt(2), types.NewString("b"), types.NewFloat(2.5)},
	}))
	c.AddTable(tbl)
	c.AddProcedure(&Procedure{Name: "p1", Text: "CREATE PROCEDURE p1 AS SELECT cid FROM customer"})

	snap := ExportSnapshot(c)
	got, err := DecodeSnapshot(snap.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats["customer"].RowCount != 2 {
		t.Error("stats lost in round trip")
	}
	if len(got.Procs) != 1 || got.Procs[0].Name != "p1" {
		t.Error("procs lost")
	}
	if !strings.Contains(got.Script, "CREATE TABLE customer") {
		t.Error("script lost")
	}

	// Two tables of several columns each and two procedures
	// encode to the same bytes every time, though the stats are maps Go ranges
	// over in a different order each time; the bytes decode to the snapshot
	// they came from and re-encode to themselves.
	t.Run("two tables", snapshotEncodingIsDeterministic)
}

func snapshotEncodingIsDeterministic(t *testing.T) {
	c := New()
	c.AddTable(sampleTable())
	c.AddTable(&Table{Name: "orders", Columns: []Column{
		{Name: "o_id", Type: types.KindInt}, {Name: "o_c_id", Type: types.KindInt},
		{Name: "o_total", Type: types.KindFloat}, {Name: "o_date", Type: types.KindTime}, {Name: "o_status", Type: types.KindString}}})
	var custRows, orderRows []types.Row
	for i := 0; i < 50; i++ {
		custRows = append(custRows, types.Row{types.NewInt(int64(i)), types.NewString(fmt.Sprintf("c%02d", i%7)), types.NewFloat(float64(i) / 3)})
		orderRows = append(orderRows, types.Row{types.NewInt(int64(1000 + i)), types.NewInt(int64(i % 11)), types.NewFloat(float64(i) * 1.25),
			types.NewTime(time.Date(2003, 6, 9, 0, 0, i, i, time.UTC)), types.NewString([]string{"SHIPPED", "PENDING", ""}[i%3])})
	}
	orderRows = append(orderRows, types.Row{types.NewInt(2000), types.Null, types.Null, types.Null, types.Null})
	c.Table("customer").Stats.Store(BuildTableStats([]string{"cid", "cname", "cbalance"}, custRows))
	c.Table("orders").Stats.Store(BuildTableStats([]string{"o_id", "o_c_id", "o_total", "o_date", "o_status"}, orderRows))
	c.AddProcedure(&Procedure{Name: "p1", Text: "CREATE PROCEDURE p1 AS SELECT cid FROM customer"})
	c.AddProcedure(&Procedure{Name: "p2", Text: "CREATE PROCEDURE p2 @id INT AS SELECT o_total FROM orders WHERE o_id = @id"})

	first := ExportSnapshot(c).Encode()
	for i := 0; i < 20; i++ {
		if again := ExportSnapshot(c).Encode(); !bytes.Equal(again, first) {
			t.Fatalf("encode %d gave other bytes than the first", i)
		}
	}
	got, err := DecodeSnapshot(first)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Stats) != 2 || len(got.Stats["orders"].Columns) != 5 || len(got.Stats["customer"].Columns) != 3 || len(got.Procs) != 2 {
		t.Fatalf("decoded %d tables, %d procs", len(got.Stats), len(got.Procs))
	}
	for name, want := range map[string]*TableStats{"customer": c.Table("customer").Stats.Load(), "orders": c.Table("orders").Stats.Load()} {
		have := got.Stats[name]
		if have.RowCount != want.RowCount || have.AvgRowBytes != want.AvgRowBytes {
			t.Errorf("%s: %d rows / %v bytes came back as %d / %v", name, want.RowCount, want.AvgRowBytes, have.RowCount, have.AvgRowBytes)
		}
		for col, wc := range want.Columns {
			hc := have.Columns[col]
			if hc == nil || hc.Distinct != wc.Distinct || hc.NullCount != wc.NullCount || !types.Identical(hc.Min, wc.Min) || !types.Identical(hc.Max, wc.Max) || !slices.EqualFunc(hc.Buckets, wc.Buckets, sameBucket) {
				t.Errorf("%s.%s: %+v came back as %+v", name, col, wc, hc)
			}
		}
	}
	if again := got.Encode(); !bytes.Equal(again, first) {
		t.Error("the decoded snapshot re-encodes to other bytes")
	}
	for _, bad := range [][]byte{append(slices.Clone(first), 0), first[:len(first)-1]} {
		if _, err := DecodeSnapshot(bad); err == nil {
			t.Errorf("%d of %d bytes decoded", len(bad), len(first))
		}
	}

	// Map keys ascend: a repeated or out-of-order table name would decode to
	// a map that re-encodes to other bytes, so it is refused.
	stats := appendTableStats(nil, c.Table("orders").Stats.Load())
	for _, names := range [][2]string{{"a", "b"}, {"b", "a"}, {"a", "a"}} {
		data := binary.AppendUvarint(types.AppendString(nil, ""), 2)
		for _, name := range names {
			data = append(types.AppendString(data, name), stats...)
		}
		data = append(data, 0) // no procs
		if _, err := DecodeSnapshot(data); (err == nil) != (names[0] < names[1]) {
			t.Errorf("tables %q: err = %v", names, err)
		}
	}

	// A snapshot in the layout before v11 had a grant section between the
	// stats and the procedures. Its grant is refused, not misread as a
	// procedure: three strings read as one procedure leave bytes over.
	for _, procs := range []int{0, 1} {
		old := types.AppendString(nil, ShadowScript(c))
		old = binary.AppendUvarint(old, 1)
		old = append(types.AppendString(old, "orders"), stats...)
		old = binary.AppendUvarint(old, 1)
		for _, s := range []string{"web", "customer", "SELECT"} {
			old = types.AppendString(old, s)
		}
		old = binary.AppendUvarint(old, uint64(procs))
		for range procs {
			old = types.AppendString(old, "p1")
			old = types.AppendString(old, "CREATE PROCEDURE p1 AS SELECT cid FROM customer")
		}
		if got, err := DecodeSnapshot(old); err == nil {
			t.Errorf("a grant in the old layout decoded as %d procedures %+v", len(got.Procs), got.Procs)
		}
	}
}

// TestSnapshotKeepsStatisticsBitIdentical: the snapshot a cache provisions
// its shadow database from carries FLOAT and DATETIME Min/Max and every
// histogram bound exactly. gob by reflection would see none of a Value's
// payload and ship zeros, and the cache would quietly plan on them.
func TestSnapshotKeepsStatisticsBitIdentical(t *testing.T) {
	rows := make([]types.Row, 0, 200)
	for i := 0; i < 200; i++ {
		ts := time.Date(1600+2*i, 3, 4, 5, 6, 7, 1_000_000*i+i, time.UTC) // sub-second; before 1678 and past 1970
		rows = append(rows, types.Row{types.NewInt(int64(i)), types.NewFloat(float64(i)*0.1 - 3), types.NewTime(ts)})
	}
	rows = append(rows,
		types.Row{types.NewInt(200), types.NewFloat(math.Copysign(0, -1)), types.NewTime(time.Date(9999, 12, 31, 23, 59, 59, 999_999_999, time.UTC))},
		types.Row{types.NewInt(201), types.NewFloat(math.Inf(1)), types.NewTime(time.Date(1, 1, 1, 0, 0, 0, 1, time.UTC))})
	c := New()
	tbl := &Table{Name: "m", Columns: []Column{
		{Name: "id", Type: types.KindInt}, {Name: "f", Type: types.KindFloat}, {Name: "ts", Type: types.KindTime}}}
	tbl.Stats.Store(BuildTableStats([]string{"id", "f", "ts"}, rows))
	// A NaN bound cannot come out of a sort; put one in by hand.
	nan := types.NewFloat(math.Float64frombits(0x7ff8_0000_dead_beef))
	tbl.Stats.Load().Columns["f"].Buckets = append(tbl.Stats.Load().Columns["f"].Buckets, Bucket{Hi: nan, Count: 1, Distinct: 1})
	c.AddTable(tbl)

	got, err := DecodeSnapshot(ExportSnapshot(c).Encode())
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{"id", "f", "ts"} {
		want, have := tbl.Stats.Load().Columns[col], got.Stats["m"].Columns[col]
		if have == nil {
			t.Fatalf("column %s lost", col)
		}
		if want.Min.IsNull() || want.Max.IsNull() || len(want.Buckets) < 2 {
			t.Fatalf("column %s: statistics too thin to test with: %+v", col, want)
		}
		if !types.Identical(have.Min, want.Min) || !types.Identical(have.Max, want.Max) { // bits, (seconds, nanoseconds)
			t.Errorf("column %s: Min/Max %#v/%#v came back as %#v/%#v", col, want.Min, want.Max, have.Min, have.Max)
		}
		if len(have.Buckets) != len(want.Buckets) {
			t.Fatalf("column %s: %d buckets came back as %d", col, len(want.Buckets), len(have.Buckets))
		}
		for i := range want.Buckets {
			if !sameBucket(have.Buckets[i], want.Buckets[i]) {
				t.Errorf("column %s bucket %d: %#v came back as %#v", col, i, want.Buckets[i], have.Buckets[i])
			}
		}
	}
}

// The catalog lists the materialized and cached views over each relation, in
// name order, from CREATE to DROP; a plain view is in no list.
func TestCachedAndMaterializedViewLists(t *testing.T) {
	c := New()
	c.AddTable(sampleTable())
	for _, v := range []*Table{
		{Name: "mv", IsView: true, Materialized: true},
		{Name: "cv", IsView: true, Materialized: true, Cached: true},
		{Name: "pv", IsView: true},
	} {
		v.ViewDef = sql.MustParseSelect("SELECT cid FROM customer WHERE cid < 100")
		sp, err := SelectProjectOf(v.ViewDef, c.Table)
		if err != nil {
			t.Fatal(err)
		}
		v.SelectProject, v.Columns = sp, sp.Columns()
		c.AddTable(v)
	}
	if len(c.CachedViews()) != 1 || c.CachedViews()[0].Name != "cv" {
		t.Error("cached views")
	}
	names := func(views []*Table) (out []string) {
		for _, v := range views {
			out = append(out, v.Name)
		}
		return out
	}
	over := c.ViewsOver("CUSTOMER")
	if got := names(over); !slices.Equal(got, []string{"cv", "mv"}) {
		t.Errorf("views over customer: %v", got)
	}
	c.DropTable("cv")
	if got := names(c.ViewsOver("customer")); !slices.Equal(got, []string{"mv"}) {
		t.Errorf("views over customer after DROP cv: %v", got)
	}
	if got := names(over); !slices.Equal(got, []string{"cv", "mv"}) {
		t.Errorf("a list handed out earlier was edited in place: %v", got)
	}
	if len(c.ViewsOver("mv")) != 0 {
		t.Error("views over mv")
	}
}

// A definition is taken apart once, into source, ordinals and filter, and the
// view's columns, key and article description are read off that.
func TestSelectProjectOf(t *testing.T) {
	c := New()
	c.AddTable(sampleTable())
	c.AddTable(&Table{Name: "pv", IsView: true, Columns: sampleTable().Columns})
	form := func(def string) (*SelectProject, error) {
		return SelectProjectOf(sql.MustParseSelect(def), c.Table)
	}
	for _, g := range []struct {
		def     string
		ords    []int
		names   []string
		pk      []int
		article []string // SourceColumns
	}{
		{"SELECT * FROM customer", []int{0, 1, 2}, []string{"cid", "cname", "cbalance"}, []int{0}, nil},
		{"SELECT cname AS n, CID FROM Customer WHERE cid < 9", []int{1, 0}, []string{"n", "cid"}, []int{1}, []string{"cname", "cid"}},
		{"SELECT cbalance, cname FROM customer", []int{2, 1}, []string{"cbalance", "cname"}, nil, []string{"cbalance", "cname"}},
		{"SELECT *, cid AS again FROM customer", []int{0, 1, 2, 0}, []string{"cid", "cname", "cbalance", "again"}, []int{0}, []string{"cid", "cname", "cbalance", "cid"}},
	} {
		sp, err := form(g.def)
		if err != nil {
			t.Fatalf("%s: %v", g.def, err)
		}
		var names []string
		for _, col := range sp.Columns() {
			names = append(names, col.Name)
		}
		if sp.Source != c.Table("customer") || !slices.Equal(sp.Ords, g.ords) || !slices.Equal(names, g.names) ||
			!slices.Equal(sp.PrimaryKey(), g.pk) || !slices.Equal(sp.SourceColumns(), g.article) ||
			(sp.SourceColumns() == nil) != (g.article == nil) {
			t.Errorf("%s: ords %v, columns %v, key %v, article columns %v", g.def, sp.Ords, names, sp.PrimaryKey(), sp.SourceColumns())
		}
		if (sp.Filter != nil) != strings.Contains(g.def, "WHERE") {
			t.Errorf("%s: filter %v", g.def, sp.Filter)
		}
	}
	if col := must(form("SELECT cid FROM customer")).Columns()[0]; !col.NotNull || col.Type != types.KindInt {
		t.Errorf("a view column keeps its source's type and nullability: %+v", col)
	}
	for _, def := range []string{
		"SELECT cid FROM customer, pv",
		"SELECT cid FROM customer c JOIN customer d ON c.cid = d.cid",
		"SELECT cname, COUNT(*) FROM customer GROUP BY cname",
		"SELECT TOP 3 cid FROM customer",
		"SELECT DISTINCT cname FROM customer",
		"SELECT cid + 1 FROM customer",
		"SELECT cid FROM pv",
		"SELECT cid FROM (SELECT cid FROM customer) AS s",
	} {
		if _, err := form(def); !errors.Is(err, ErrNotSelectProject) {
			t.Errorf("%s: %v, want ErrNotSelectProject", def, err)
		}
	}
	for _, def := range []string{"SELECT cid FROM nowhere", "SELECT nothing FROM customer"} {
		if _, err := form(def); err == nil || errors.Is(err, ErrNotSelectProject) {
			t.Errorf("%s: %v, want a name-resolution error", def, err)
		}
	}
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func sameBucket(a, b Bucket) bool {
	return types.Identical(a.Hi, b.Hi) && a.Count == b.Count && a.Distinct == b.Distinct
}
