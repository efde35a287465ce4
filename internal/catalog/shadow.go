package catalog

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strings"

	"mtcache/internal/sql"
	"mtcache/internal/types"
)

// Snapshot is a serializable image of a catalog: the DDL script that
// recreates the schema, the statistics for every table and the
// stored-procedure texts. It is what a cache server imports to build its
// shadow database (paper §4: "an automatically generated script that
// configures the cache server and sets up the shadow database").
type Snapshot struct {
	Script string                 // CREATE TABLE / INDEX / VIEW statements
	Stats  map[string]*TableStats // keyed by lower-cased table name
	Procs  []ProcText
}

// ProcText carries one stored procedure as source text so the receiving
// server re-parses it (procedures are not copied into the shadow by default;
// the DBA selects which to copy — paper §5.2).
type ProcText struct {
	Name string
	Text string
}

// ShadowScript generates the DDL script that recreates this catalog's
// schema: tables with constraints, indexes and (non-cached) views, each view
// after every view its definition reads. Data is deliberately absent —
// shadow tables are empty.
func ShadowScript(c *Catalog) string {
	var b strings.Builder
	var views []*Table
	for _, t := range c.Tables() {
		switch {
		case !t.IsView:
			writeCreateTable(&b, t)
			writeIndexes(&b, t)
		case !t.Cached: // cached views are created by the DBA's view script, not the shadow script
			views = append(views, t)
		}
	}
	for _, t := range inCreationOrder(views) {
		kw := "VIEW"
		if t.Materialized {
			kw = "MATERIALIZED VIEW"
		}
		fmt.Fprintf(&b, "CREATE %s %s AS %s;\n", kw, t.Name, sql.Deparse(t.ViewDef))
		writeIndexes(&b, t)
	}
	return b.String()
}

// inCreationOrder orders views so that each comes after every view in the
// list that its definition reads.
func inCreationOrder(views []*Table) []*Table {
	byName := make(map[string]*Table, len(views))
	for _, v := range views {
		byName[key(v.Name)] = v
	}
	placed := make(map[*Table]bool, len(views))
	out := make([]*Table, 0, len(views))
	var place func(*Table)
	place = func(v *Table) {
		if placed[v] {
			return
		}
		placed[v] = true
		readsOf(v.ViewDef, func(name string) {
			if r := byName[key(name)]; r != nil {
				place(r)
			}
		})
		out = append(out, v)
	}
	for _, v := range views {
		place(v)
	}
	return out
}

// readsOf calls visit with the name of every relation def reads, derived
// tables and joins included.
func readsOf(def *sql.SelectStmt, visit func(name string)) {
	var reads func(sql.TableRef)
	reads = func(ref sql.TableRef) {
		switch r := ref.(type) {
		case *sql.TableName:
			visit(r.FullName())
		case *sql.JoinRef:
			reads(r.Left)
			reads(r.Right)
		case *sql.SubqueryRef:
			for _, from := range r.Select.From {
				reads(from)
			}
		}
	}
	for _, from := range def.From {
		reads(from)
	}
}

// writeIndexes writes t's secondary indexes; its primary key index is implied
// by its own DDL.
func writeIndexes(b *strings.Builder, t *Table) {
	for _, idx := range t.Indexes {
		if strings.HasPrefix(idx.Name, "pk_") {
			continue
		}
		cols := make([]string, len(idx.Columns))
		for i, ord := range idx.Columns {
			cols[i] = t.Columns[ord].Name
		}
		uq := ""
		if idx.Unique {
			uq = "UNIQUE "
		}
		fmt.Fprintf(b, "CREATE %sINDEX %s ON %s (%s);\n", uq, idx.Name, t.Name, strings.Join(cols, ", "))
	}
}

func writeCreateTable(b *strings.Builder, t *Table) {
	fmt.Fprintf(b, "CREATE TABLE %s (", t.Name)
	singlePK := len(t.PrimaryKey) == 1
	for i, col := range t.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(b, "%s %s", col.Name, col.Type)
		if singlePK && t.PrimaryKey[0] == i {
			b.WriteString(" PRIMARY KEY")
		} else if col.NotNull {
			b.WriteString(" NOT NULL")
		}
		if col.Default != nil {
			fmt.Fprintf(b, " DEFAULT %s", sql.DeparseExpr(col.Default))
		}
	}
	if len(t.PrimaryKey) > 1 {
		names := make([]string, len(t.PrimaryKey))
		for i, ord := range t.PrimaryKey {
			names[i] = t.Columns[ord].Name
		}
		fmt.Fprintf(b, ", PRIMARY KEY (%s)", strings.Join(names, ", "))
	}
	b.WriteString(");\n")
}

// ExportSnapshot captures what a cache's shadow database takes from the
// catalog (schema script, statistics, procedure texts) for shipment to a
// cache server. Nothing else is shipped: a cache checks no grants, because
// no session carries a user.
func ExportSnapshot(c *Catalog) *Snapshot {
	snap := &Snapshot{
		Script: ShadowScript(c),
		Stats:  make(map[string]*TableStats),
	}
	for _, t := range c.Tables() {
		if t.Stats.Load() != nil {
			snap.Stats[key(t.Name)] = t.Stats.Load().Clone()
		}
	}
	for _, p := range c.Procedures() {
		snap.Procs = append(snap.Procs, ProcText{Name: p.Name, Text: p.Text})
	}
	return snap
}

// Encode serializes the snapshot for the wire in explicit field order:
// script, stats, procs, every value in types/codec.go's bytes. Map
// keys are written sorted, so one catalog always gives the same bytes.
//
//	string Script
//	uvarint #tables, per table in name order: string name, then
//	  varint RowCount, 8-byte LE AvgRowBytes bits,
//	  uvarint #columns, per column in name order: string name,
//	    varint Distinct, varint NullCount, value Min, value Max,
//	    uvarint #buckets, per bucket: value Hi, varint Count, varint Distinct
//	uvarint #procs, per proc: string Name, string Text
func (s *Snapshot) Encode() []byte {
	buf := types.AppendString(nil, s.Script)
	buf = binary.AppendUvarint(buf, uint64(len(s.Stats)))
	for _, name := range sortedKeys(s.Stats) {
		buf = types.AppendString(buf, name)
		buf = appendTableStats(buf, s.Stats[name])
	}
	buf = binary.AppendUvarint(buf, uint64(len(s.Procs)))
	for _, p := range s.Procs {
		buf = types.AppendString(buf, p.Name)
		buf = types.AppendString(buf, p.Text)
	}
	return buf
}

func appendTableStats(buf []byte, ts *TableStats) []byte {
	buf = binary.AppendVarint(buf, ts.RowCount)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(ts.AvgRowBytes))
	buf = binary.AppendUvarint(buf, uint64(len(ts.Columns)))
	for _, name := range sortedKeys(ts.Columns) {
		cs := ts.Columns[name]
		buf = types.AppendString(buf, name)
		buf = binary.AppendVarint(buf, cs.Distinct)
		buf = binary.AppendVarint(buf, cs.NullCount)
		buf = types.AppendValue(buf, &cs.Min)
		buf = types.AppendValue(buf, &cs.Max)
		buf = binary.AppendUvarint(buf, uint64(len(cs.Buckets)))
		for i := range cs.Buckets {
			b := &cs.Buckets[i]
			buf = types.AppendValue(buf, &b.Hi)
			buf = binary.AppendVarint(buf, b.Count)
			buf = binary.AppendVarint(buf, b.Distinct)
		}
	}
	return buf
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// DecodeSnapshot is Encode's inverse. A snapshot arrives from the network, so
// it is decoded defensively: no count sizes an allocation before the bytes it
// promises are there, map keys must ascend (a repeated or out-of-order key is
// an error, not a silent overwrite) and bytes left over are an error. A
// snapshot that decodes re-encodes to the bytes it came from.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	d := types.Decoder{Buf: data}
	s := &Snapshot{Script: d.Str()}
	// Minimum encoded sizes: a table's name and stats header is 11 bytes, a
	// column 6, a bucket 3 and a procedure 2.
	s.Stats = make(map[string]*TableStats)
	for i, n, prev := 0, d.Count(11), ""; i < n; i++ {
		name := ascendingKey(&d, i, &prev)
		ts := &TableStats{RowCount: d.Varint(), AvgRowBytes: math.Float64frombits(d.Fixed64())}
		ts.Columns = make(map[string]*ColumnStats)
		for j, m, prevCol := 0, d.Count(6), ""; j < m; j++ {
			col := ascendingKey(&d, j, &prevCol)
			cs := &ColumnStats{Distinct: d.Varint(), NullCount: d.Varint(), Min: d.Value(), Max: d.Value()}
			if k := d.Count(3); k > 0 {
				cs.Buckets = make([]Bucket, k)
				for b := range cs.Buckets {
					cs.Buckets[b] = Bucket{Hi: d.Value(), Count: d.Varint(), Distinct: d.Varint()}
				}
			}
			ts.Columns[col] = cs
		}
		s.Stats[name] = ts
	}
	if n := d.Count(2); n > 0 {
		s.Procs = make([]ProcText, n)
		for i := range s.Procs {
			s.Procs[i] = ProcText{Name: d.Str(), Text: d.Str()}
		}
	}
	if d.Err == nil && d.Remaining() != 0 {
		d.Fail()
	}
	if d.Err != nil {
		return nil, fmt.Errorf("catalog: decode snapshot: %w", d.Err)
	}
	return s, nil
}

// ascendingKey decodes the i-th key of a map and fails unless it sorts after
// the previous one.
func ascendingKey(d *types.Decoder, i int, prev *string) string {
	key := d.Str()
	if i > 0 && key <= *prev {
		d.Fail()
	}
	*prev = key
	return key
}
