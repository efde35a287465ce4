package catalog

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"mtcache/internal/sql"
)

// SelectProject is the select-project form of a view definition,
// SELECT columns FROM Source [WHERE Filter] — the only form a materialized or
// cached view may have (paper §2.2: "an article is defined by a select-project
// expression over a table or a materialized view"). It is derived once, when
// the view is created, and everything that needs the definition taken apart —
// the view's schema, its maintenance, its replication article, view matching —
// reads it from the view's Table.
type SelectProject struct {
	Source *Table   // the table or materialized view selected from
	Ords   []int    // source ordinal of each view column, SELECT * expanded
	Filter sql.Expr // over source columns; nil = every row

	names []string // view column names: the definition's aliases, else the source's names
}

// ErrNotSelectProject refuses a definition no materialized or cached view can
// have: nothing but a select-project of one stored relation can be kept
// current from that relation's change log alone.
var ErrNotSelectProject = errors.New("catalog: a materialized or cached view must be a select-project over one table or materialized view: " +
	"SELECT columns FROM relation [WHERE predicate], without join, GROUP BY, HAVING, TOP, DISTINCT or computed columns")

// SelectProjectOf takes a view definition apart. relation resolves the FROM
// clause's name (Catalog.Table).
func SelectProjectOf(def *sql.SelectStmt, relation func(name string) *Table) (*SelectProject, error) {
	if len(def.From) != 1 || def.GroupBy != nil || def.Having != nil || def.Top != nil || def.Distinct {
		return nil, ErrNotSelectProject
	}
	tn, ok := def.From[0].(*sql.TableName)
	if !ok {
		return nil, ErrNotSelectProject
	}
	src := relation(tn.FullName())
	if src == nil {
		return nil, fmt.Errorf("catalog: view source %s does not exist", tn.FullName())
	}
	if src.Virtual || src.IsView && !src.Materialized {
		return nil, ErrNotSelectProject // no rows of its own, so no changes to follow
	}
	var cols, names []string
	for _, item := range def.Columns {
		if item.Star {
			cols = append(cols, src.ColumnNames()...)
			names = append(names, make([]string, len(src.Columns))...)
			continue
		}
		ref, ok := item.Expr.(*sql.ColumnRef)
		if !ok {
			return nil, ErrNotSelectProject
		}
		cols = append(cols, ref.Name)
		names = append(names, item.Alias)
	}
	sp, err := NewSelectProject(src, cols, def.Where)
	if err != nil {
		return nil, err
	}
	sp.names = names
	return sp, nil
}

// NewSelectProject is the form of SELECT columns FROM source [WHERE filter];
// nil columns mean all of them, in table order (a replication article's
// description, which is a view definition with the names taken out).
func NewSelectProject(source *Table, columns []string, filter sql.Expr) (*SelectProject, error) {
	sp := &SelectProject{Source: source, Filter: filter}
	if columns == nil {
		columns = source.ColumnNames()
	}
	for _, c := range columns {
		ord := source.ColumnIndex(c)
		if ord < 0 {
			return nil, fmt.Errorf("catalog: column %s not in %s", c, source.Name)
		}
		sp.Ords = append(sp.Ords, ord)
	}
	sp.names = make([]string, len(sp.Ords))
	return sp, nil
}

// Columns returns the view's columns: the projected source columns under the
// names the definition gives them.
func (sp *SelectProject) Columns() []Column {
	out := make([]Column, len(sp.Ords))
	for i, ord := range sp.Ords {
		c := sp.Source.Columns[ord]
		out[i] = Column{Name: cmp.Or(sp.names[i], c.Name), Type: c.Type, NotNull: c.NotNull}
	}
	return out
}

// PrimaryKey returns the view ordinals of the source's primary key, or nil
// when the projection drops part of it (or there is none to keep).
func (sp *SelectProject) PrimaryKey() []int {
	var pk []int
	for _, ord := range sp.Source.PrimaryKey {
		i := slices.Index(sp.Ords, ord)
		if i < 0 {
			return nil
		}
		pk = append(pk, i)
	}
	return pk
}

// SourceColumns names the projected source columns — nil when they are all of
// them in table order, which is how an article says SELECT *.
func (sp *SelectProject) SourceColumns() []string {
	all := len(sp.Ords) == len(sp.Source.Columns)
	out := make([]string, len(sp.Ords))
	for i, ord := range sp.Ords {
		out[i] = sp.Source.Columns[ord].Name
		all = all && ord == i
	}
	if all {
		return nil
	}
	return out
}
