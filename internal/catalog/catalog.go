// Package catalog maintains database metadata: tables, columns, indexes,
// views, stored procedures, permissions and optimizer statistics.
//
// The catalog is the piece MTCache "shadows": a cache server imports the
// backend's full catalog — schema, constraints, permissions and statistics —
// while keeping every table empty (paper §3). Shadowing lets the cache parse
// queries, perform view matching, check permissions and cost plans locally
// without contacting the backend.
package catalog

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"mtcache/internal/sql"
	"mtcache/internal/types"
)

// Column describes one table column.
type Column struct {
	Name    string
	Type    types.Kind
	NotNull bool
	Default sql.Expr // nil if none
}

// Index describes a secondary (or primary) index.
type Index struct {
	Name    string
	Table   string
	Columns []int // ordinals into the table's Columns
	Unique  bool
}

// Table describes a base table, view, materialized view or cached view.
type Table struct {
	Name       string
	Columns    []Column
	PrimaryKey []int // column ordinals; empty if none
	Indexes    []*Index

	// View fields. For cached views the definition is a select-project
	// expression over a table or materialized view on the *backend* server
	// (paper §3); for local materialized views it is over local tables.
	IsView       bool
	Materialized bool
	Cached       bool // MTCache cached view, maintained by replication
	ViewDef      *sql.SelectStmt
	// SelectProject is ViewDef taken apart (SelectProjectOf). Every
	// materialized and cached view has one; a plain view is free-form and has
	// one only if its definition happens to be select-project.
	SelectProject *SelectProject

	// Virtual marks a read-only system table (sys.* DMV equivalents):
	// no storage, no indexes, rows produced on demand by RowsFn. Virtual
	// tables resolve through Catalog.Table but are excluded from Tables()
	// so view matching, the advisor, shadow export, ANALYZE and user
	// listings never see them.
	Virtual bool
	RowsFn  func() []types.Row

	// Stats is replaced whole (ANALYZE, a shadow catalog refresh) while
	// optimizations that read it are running, hence the atomic pointer; the
	// statistics a pointer leads to are never written again.
	Stats atomic.Pointer[TableStats]
}

// ColumnIndex returns the ordinal of the named column, or -1.
func (t *Table) ColumnIndex(name string) int {
	for i, c := range t.Columns {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// Column returns the column with the given name, or nil.
func (t *Table) Column(name string) *Column {
	if i := t.ColumnIndex(name); i >= 0 {
		return &t.Columns[i]
	}
	return nil
}

// ColumnNames returns the column names in ordinal order.
func (t *Table) ColumnNames() []string {
	out := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		out[i] = c.Name
	}
	return out
}

// Procedure is a stored procedure: a parameterized statement sequence.
type Procedure struct {
	Name   string
	Params []sql.ProcParam
	Body   []sql.Statement
	Text   string // original CREATE PROCEDURE text, for copying to caches
}

// Writes reports whether the body has an INSERT, UPDATE or DELETE. A cache
// runs only a copy that does not write; a call to one that does goes to the
// backend as it arrived.
func (p *Procedure) Writes() bool {
	for _, stmt := range p.Body {
		switch stmt.(type) {
		case *sql.InsertStmt, *sql.UpdateStmt, *sql.DeleteStmt:
			return true
		}
	}
	return false
}

// Permission grants are deliberately simple: user -> object -> action set.
// They exist because the shadow database must replicate them so the cache
// can check permissions locally (paper §3).
type Permission struct {
	User   string
	Object string // table/view/proc name, or "*" for all
	Action string // "SELECT", "INSERT", "UPDATE", "DELETE", "EXEC", or "*"
}

// Catalog is the metadata store for one database. It is safe for concurrent
// use; DDL takes the write lock, lookups take the read lock.
type Catalog struct {
	mu      sync.RWMutex
	tables  map[string]*Table
	derived map[string][]*Table // source relation -> the materialized and cached views over it, by name
	seeding map[string]bool     // materialized views registered but not yet populated
	procs   map[string]*Procedure
	perms   []Permission
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{
		tables:  make(map[string]*Table),
		derived: make(map[string][]*Table),
		seeding: make(map[string]bool),
		procs:   make(map[string]*Procedure),
	}
}

func key(name string) string { return strings.ToLower(name) }

// lookup reads m at key(name) without allocating for the names statements
// carry: an ASCII name folds into a stack buffer, and the compiler's
// m[string(bytes)] lookup does not copy it. Anything else (non-ASCII, very
// long) goes through key, so no lookup changes meaning.
func lookup[V any](m map[string]V, name string) V {
	var buf [64]byte
	if len(name) > len(buf) {
		return m[key(name)]
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c >= 0x80 {
			return m[key(name)]
		}
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		buf[i] = c
	}
	return m[string(buf[:len(name)])]
}

// AddTable registers a table or view definition.
func (c *Catalog) AddTable(t *Table) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := key(t.Name)
	if _, ok := c.tables[k]; ok {
		return fmt.Errorf("catalog: table %s already exists", t.Name)
	}
	if t.Stats.Load() == nil {
		t.Stats.Store(NewTableStats())
	}
	c.tables[k] = t
	if t.Materialized && t.SelectProject != nil {
		// Copied, never edited in place: ViewsOver hands the slice out.
		src := key(t.SelectProject.Source.Name)
		views := append(slices.Clip(c.derived[src]), t)
		sort.Slice(views, func(i, j int) bool { return views[i].Name < views[j].Name })
		c.derived[src] = views
	}
	return nil
}

// PutVirtualTable registers (or replaces) a read-only virtual system
// table. Virtual tables are registered under their full dotted name
// ("sys.query_stats") and may be re-registered freely — a role-specific
// provider (backend repl health vs cache pull state) overrides the
// engine's default. Replacing a non-virtual table is refused.
func (c *Catalog) PutVirtualTable(t *Table) error {
	if t.RowsFn == nil {
		return fmt.Errorf("catalog: virtual table %s has no row provider", t.Name)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	k := key(t.Name)
	if old, ok := c.tables[k]; ok && !old.Virtual {
		return fmt.Errorf("catalog: %s exists and is not virtual", t.Name)
	}
	t.Virtual = true
	if t.Stats.Load() == nil {
		t.Stats.Store(NewTableStats())
	}
	c.tables[k] = t
	return nil
}

// VirtualTables returns all virtual system tables sorted by name.
func (c *Catalog) VirtualTables() []*Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Table, 0, 8)
	for _, t := range c.tables {
		if t.Virtual {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// DropTable removes a table and its indexes.
func (c *Catalog) DropTable(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := key(name)
	t, ok := c.tables[k]
	if !ok {
		return fmt.Errorf("catalog: table %s does not exist", name)
	}
	delete(c.tables, k)
	delete(c.seeding, k)
	if t.Materialized && t.SelectProject != nil {
		src := key(t.SelectProject.Source.Name)
		c.derived[src] = slices.DeleteFunc(slices.Clone(c.derived[src]), func(v *Table) bool { return v == t })
	}
	return nil
}

// ViewsOver returns the materialized and cached views defined over the named
// table or materialized view, sorted by name: the objects a change to it must
// reach, and the candidates that can answer a query on it. The slice is shared;
// callers must not modify it.
func (c *Catalog) ViewsOver(source string) []*Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return lookup(c.derived, source)
}

// SetSeeding marks a materialized or cached view as registered but not yet
// populated (on), or as populated (off). While it is seeding the view is in
// the catalog — its population writes to it by name — but view matching must
// not answer queries from it: it holds nothing, or part, of what it defines.
func (c *Catalog) SetSeeding(name string, on bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if on {
		c.seeding[key(name)] = true
	} else {
		delete(c.seeding, key(name))
	}
}

// Seeding reports whether the named view is still being populated.
func (c *Catalog) Seeding(name string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return lookup(c.seeding, name)
}

// Table looks up a table by name (case-insensitive).
func (c *Catalog) Table(name string) *Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return lookup(c.tables, name)
}

// Tables returns all user tables sorted by name. Virtual system tables
// are deliberately excluded: every consumer of this listing — view
// matching, the advisor, shadow catalog export, ANALYZE, SHOW TABLES —
// must see only real user objects.
func (c *Catalog) Tables() []*Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Table, 0, len(c.tables))
	for _, t := range c.tables {
		if t.Virtual {
			continue
		}
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// AddIndex registers an index on an existing table.
func (c *Catalog) AddIndex(tableName string, idx *Index) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tables[key(tableName)]
	if !ok {
		return fmt.Errorf("catalog: table %s does not exist", tableName)
	}
	for _, existing := range t.Indexes {
		if strings.EqualFold(existing.Name, idx.Name) {
			return fmt.Errorf("catalog: index %s already exists on %s", idx.Name, tableName)
		}
	}
	idx.Table = t.Name
	t.Indexes = append(t.Indexes, idx)
	return nil
}

// AddProcedure registers a stored procedure.
func (c *Catalog) AddProcedure(p *Procedure) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := key(p.Name)
	if _, ok := c.procs[k]; ok {
		return fmt.Errorf("catalog: procedure %s already exists", p.Name)
	}
	c.procs[k] = p
	return nil
}

// DropProcedure removes a stored procedure.
func (c *Catalog) DropProcedure(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := key(name)
	if _, ok := c.procs[k]; !ok {
		return fmt.Errorf("catalog: procedure %s does not exist", name)
	}
	delete(c.procs, k)
	return nil
}

// Procedure looks up a stored procedure, or nil. Whether a procedure is
// found locally decides where it runs: locally if present, else forwarded
// to the backend (paper §5.2).
func (c *Catalog) Procedure(name string) *Procedure {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return lookup(c.procs, name)
}

// Procedures returns all stored procedures sorted by name.
func (c *Catalog) Procedures() []*Procedure {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Procedure, 0, len(c.procs))
	for _, p := range c.procs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Grant records a permission.
func (c *Catalog) Grant(user, object, action string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.perms = append(c.perms, Permission{User: user, Object: object, Action: strings.ToUpper(action)})
}

// Allowed checks a permission. An empty permission list means open access
// (single-user mode); otherwise a matching grant is required.
func (c *Catalog) Allowed(user, object, action string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if len(c.perms) == 0 {
		return true
	}
	action = strings.ToUpper(action)
	for _, p := range c.perms {
		if p.User != user && p.User != "*" {
			continue
		}
		if p.Object != "*" && !strings.EqualFold(p.Object, object) {
			continue
		}
		if p.Action == "*" || p.Action == action {
			return true
		}
	}
	return false
}

// Permissions returns a copy of all grants.
func (c *Catalog) Permissions() []Permission {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]Permission(nil), c.perms...)
}

// CachedViews returns all cached views sorted by name.
func (c *Catalog) CachedViews() []*Table {
	var out []*Table
	for _, t := range c.Tables() {
		if t.Cached {
			out = append(out, t)
		}
	}
	return out
}
