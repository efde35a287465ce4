package engine

import (
	"fmt"
	"strings"

	"mtcache/internal/catalog"
	"mtcache/internal/opt"
	"mtcache/internal/sql"
	"mtcache/internal/types"
)

func (db *Database) execCreateTable(x *sql.CreateTableStmt) (*Result, error) {
	t := &catalog.Table{Name: x.Name}
	for _, cd := range x.Columns {
		t.Columns = append(t.Columns, catalog.Column{
			Name: cd.Name, Type: cd.Type, NotNull: cd.NotNull, Default: cd.Default,
		})
		if cd.PrimaryKey {
			t.PrimaryKey = append(t.PrimaryKey, len(t.Columns)-1)
		}
	}
	for _, pk := range x.PrimaryKey {
		ord := -1
		for i, c := range t.Columns {
			if strEqualFold(c.Name, pk) {
				ord = i
				break
			}
		}
		if ord < 0 {
			return nil, fmt.Errorf("engine: PRIMARY KEY column %s not in table", pk)
		}
		t.PrimaryKey = append(t.PrimaryKey, ord)
	}
	if err := db.addStored(t); err != nil {
		return nil, err
	}
	db.InvalidatePlans()
	return &Result{}, nil
}

func (db *Database) execCreateIndex(x *sql.CreateIndexStmt) (*Result, error) {
	t := db.cat.Table(x.Table)
	if t == nil {
		return nil, fmt.Errorf("engine: table %s does not exist", x.Table)
	}
	idx := &catalog.Index{Name: x.Name, Table: t.Name, Unique: x.Unique}
	for _, col := range x.Columns {
		ord := t.ColumnIndex(col)
		if ord < 0 {
			return nil, fmt.Errorf("engine: column %s not in %s", col, x.Table)
		}
		idx.Columns = append(idx.Columns, ord)
	}
	if err := db.cat.AddIndex(t.Name, idx); err != nil {
		return nil, err
	}
	if db.store.Table(t.Name) != nil {
		if err := db.store.AddIndex(t.Name, idx); err != nil {
			return nil, err
		}
	}
	db.InvalidatePlans()
	return &Result{}, nil
}

func (db *Database) execCreateView(x *sql.CreateViewStmt) (*Result, error) {
	if x.Cached && db.role != Cache {
		return nil, fmt.Errorf("engine: CREATE CACHED VIEW is only valid on a cache server")
	}
	t := &catalog.Table{
		Name:         x.Name,
		IsView:       true,
		Materialized: x.Materialized || x.Cached,
		Cached:       x.Cached,
		ViewDef:      x.Select,
	}
	// The definition is taken apart here, once. A materialized or cached view
	// must be select-project; a plain view need not be, and is then planned
	// for its schema.
	sp, err := catalog.SelectProjectOf(x.Select, db.cat.Table)
	switch {
	case err == nil:
		t.SelectProject, t.Columns = sp, sp.Columns()
	case t.Materialized:
		return nil, fmt.Errorf("engine: CREATE VIEW %s: %w", t.Name, err)
	default:
		p, err := opt.Optimize(x.Select, db.env())
		if err != nil {
			return nil, fmt.Errorf("engine: invalid view definition: %w", err)
		}
		for _, c := range p.Cols {
			t.Columns = append(t.Columns, catalog.Column{Name: c.Name, Type: c.Kind})
		}
	}
	if !t.Materialized {
		if err := db.cat.AddTable(t); err != nil {
			return nil, err
		}
		db.InvalidatePlans()
		return &Result{}, nil
	}
	t.PrimaryKey = sp.PrimaryKey()
	if db.role == Cache && !x.Cached {
		// A backend's materialized view, re-created by the shadow script: a
		// shadow like the tables around it — schema and statistics, no data,
		// nothing to maintain — that plans read remotely.
		if err := db.addStored(t); err != nil {
			return nil, err
		}
		db.InvalidatePlans()
		return &Result{}, nil
	}

	// A backend's materialized view: compile its maintenance, and compute the
	// initial contents *before* registering the view, so the population query
	// cannot be answered from the still-empty view itself.
	var initial []types.Row
	if !x.Cached {
		changes, err := opt.CompileChangeMap(sp)
		if err != nil {
			return nil, err
		}
		res, err := db.ExecStmt(x.Select, nil)
		if err != nil {
			return nil, fmt.Errorf("engine: populating %s: %w", t.Name, err)
		}
		initial = res.Rows
		db.viewMaps.Store(t, changes)
	}
	// The view is registered before it is populated — the population writes
	// to it by name — and stays invisible to view matching until its contents
	// have committed: a plan made in between reads the base table.
	if err := db.addStored(t); err != nil {
		db.viewMaps.Delete(t)
		return nil, err
	}
	db.cat.SetSeeding(t.Name, true)
	if x.Cached {
		// Cached views are populated and maintained by replication; hand off
		// to the MTCache layer to create the matching subscription (§4).
		if db.onCachedViewCreate != nil {
			if err := db.onCachedViewCreate(t); err != nil {
				db.dropStored(t)
				return nil, fmt.Errorf("engine: provisioning cached view %s: %w", t.Name, err)
			}
		}
	} else {
		tx := db.store.Begin(true)
		for _, row := range initial {
			if _, err := tx.Insert(t.Name, row); err != nil {
				tx.Abort()
				db.dropStored(t)
				return nil, err
			}
		}
		// Initial population is not replicated as individual changes.
		if err := tx.CommitUnlogged(); err != nil {
			return nil, err
		}
	}
	db.cat.SetSeeding(t.Name, false)
	if err := db.AnalyzeTable(t.Name); err != nil {
		return nil, err
	}
	db.InvalidatePlans()
	return &Result{}, nil
}

// addStored registers a relation and creates its empty storage.
func (db *Database) addStored(t *catalog.Table) error {
	if err := db.cat.AddTable(t); err != nil {
		return err
	}
	if err := db.store.CreateTable(t); err != nil {
		db.cat.DropTable(t.Name)
		return err
	}
	return nil
}

// dropStored removes a relation, its storage and, for a materialized view,
// its maintenance.
func (db *Database) dropStored(t *catalog.Table) {
	db.cat.DropTable(t.Name)
	db.store.DropTable(t.Name)
	db.viewMaps.Delete(t)
}

func (db *Database) execCreateProc(x *sql.CreateProcStmt, text string) (*Result, error) {
	p := &catalog.Procedure{Name: x.Name, Params: x.Params, Body: x.Body, Text: text}
	if err := db.cat.AddProcedure(p); err != nil {
		return nil, err
	}
	return &Result{}, nil
}

func (db *Database) execDrop(x *sql.DropStmt) (*Result, error) {
	switch x.What {
	case "TABLE", "VIEW":
		t := db.cat.Table(x.Name)
		if t == nil {
			return nil, fmt.Errorf("engine: %s %s does not exist", strings.ToLower(x.What), x.Name)
		}
		db.dropStored(t)
		// Intermediates derived from the dropped relation are now orphans.
		db.InvalidateIntermediates(t.Name)
	case "PROCEDURE":
		if err := db.cat.DropProcedure(x.Name); err != nil {
			return nil, err
		}
	case "INDEX":
		return nil, fmt.Errorf("engine: DROP INDEX is not supported")
	}
	db.InvalidatePlans()
	return &Result{}, nil
}
