package catalog

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"strings"

	"mtcache/internal/sql"
)

// Snapshot is a serializable image of a catalog: the DDL script that
// recreates the schema, the statistics for every table, the permission
// grants, and the stored-procedure texts. It is what a cache server imports
// to build its shadow database (paper §4: "an automatically generated script
// that configures the cache server and sets up the shadow database").
type Snapshot struct {
	Script string                 // CREATE TABLE / INDEX / VIEW statements
	Stats  map[string]*TableStats // keyed by lower-cased table name
	Perms  []Permission
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
// schema: tables with constraints, indexes and (non-cached) views. Data is
// deliberately absent — shadow tables are empty.
func ShadowScript(c *Catalog) string {
	var b strings.Builder
	for _, t := range c.Tables() {
		if t.IsView {
			continue
		}
		writeCreateTable(&b, t)
		for _, idx := range t.Indexes {
			if strings.HasPrefix(idx.Name, "pk_") {
				continue // primary key index is implied by the table DDL
			}
			cols := make([]string, len(idx.Columns))
			for i, ord := range idx.Columns {
				cols[i] = t.Columns[ord].Name
			}
			uq := ""
			if idx.Unique {
				uq = "UNIQUE "
			}
			fmt.Fprintf(&b, "CREATE %sINDEX %s ON %s (%s);\n", uq, idx.Name, t.Name, strings.Join(cols, ", "))
		}
	}
	for _, t := range c.Tables() {
		if !t.IsView || t.Cached {
			continue // cached views are created by the DBA's view script, not the shadow script
		}
		kw := "VIEW"
		if t.Materialized {
			kw = "MATERIALIZED VIEW"
		}
		fmt.Fprintf(&b, "CREATE %s %s AS %s;\n", kw, t.Name, sql.Deparse(t.ViewDef))
	}
	return b.String()
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

// ExportSnapshot captures the catalog for shipment to a cache server.
func ExportSnapshot(c *Catalog) *Snapshot {
	snap := &Snapshot{
		Script: ShadowScript(c),
		Stats:  make(map[string]*TableStats),
		Perms:  c.Permissions(),
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

// Encode serializes the snapshot for the wire.
func (s *Snapshot) Encode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		return nil, fmt.Errorf("catalog: encode snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeSnapshot deserializes a snapshot.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	var s Snapshot
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&s); err != nil {
		return nil, fmt.Errorf("catalog: decode snapshot: %w", err)
	}
	return &s, nil
}
