package engine

import (
	"fmt"
	"strings"

	"mtcache/internal/catalog"
	"mtcache/internal/opt"
	"mtcache/internal/sql"
	"mtcache/internal/storage"
)

// execDDL runs one CREATE or DROP. On a backend it is a transaction of its
// own (storage.Store.DDL): the catalog change commits as one log record that
// holds the statement's text, at the LSN the result reports, so the log and
// every checkpoint describe their own schema and a restart needs no script.
// Recovery replays the record through here too. A cache logs nothing.
func (db *Database) execDDL(stmt sql.Statement) (*Result, error) {
	var lsn storage.LSN
	var err error
	if db.role == Backend {
		lsn, err = db.store.DDL(sql.Deparse(stmt), func(tx *storage.Txn) error { return db.applyDDL(stmt, tx) })
	} else {
		err = db.applyDDL(stmt, nil)
	}
	// A view populated here turns visible to view matching once its rows
	// have committed, and with its statistics: a materialized view's are
	// built here, a cached view's by the provisioning that seeded it
	// (repl.Subscriber.Attach).
	if x, ok := stmt.(*sql.CreateViewStmt); ok && db.cat.Seeding(x.Name) {
		db.cat.SetSeeding(x.Name, false)
		if !x.Cached {
			if aerr := db.AnalyzeTable(x.Name); err == nil {
				err = aerr
			}
		}
	}
	db.InvalidatePlans()
	if err != nil {
		return nil, err
	}
	res := NewResult()
	res.CommitLSN = lsn
	return res, nil
}

// applyDDL makes stmt's catalog and storage change. tx is the statement's
// transaction on a backend (nil on a cache): it latches every table the
// statement reads or makes, so no write lands between what the statement saw
// and its record, and it holds a materialized view's population.
func (db *Database) applyDDL(stmt sql.Statement, tx *storage.Txn) error {
	switch x := stmt.(type) {
	case *sql.CreateTableStmt:
		return db.createTable(x, tx)
	case *sql.CreateIndexStmt:
		return db.createIndex(x)
	case *sql.CreateViewStmt:
		return db.createView(x, tx)
	case *sql.CreateProcStmt:
		return db.createProc(x, sql.Deparse(x))
	case *sql.DropStmt:
		return db.drop(x, tx)
	}
	return fmt.Errorf("engine: %s is not DDL", sql.Deparse(stmt))
}

// latch takes the named table's write latch for tx, when there is a tx and
// a table: writers of it wait until the statement's record is in the log.
func latch(tx *storage.Txn, name string) error {
	if tx == nil {
		return nil
	}
	if _, ok := tx.Table(name); !ok {
		return tx.Err()
	}
	return nil
}

func (db *Database) createTable(x *sql.CreateTableStmt, tx *storage.Txn) error {
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
			return fmt.Errorf("engine: PRIMARY KEY column %s not in table", pk)
		}
		t.PrimaryKey = append(t.PrimaryKey, ord)
	}
	return db.addStored(t, tx)
}

func (db *Database) createIndex(x *sql.CreateIndexStmt) error {
	t := db.cat.Table(x.Table)
	if t == nil {
		return fmt.Errorf("engine: table %s does not exist", x.Table)
	}
	idx := &catalog.Index{Name: x.Name, Table: t.Name, Unique: x.Unique}
	for _, col := range x.Columns {
		ord := t.ColumnIndex(col)
		if ord < 0 {
			return fmt.Errorf("engine: column %s not in %s", col, x.Table)
		}
		idx.Columns = append(idx.Columns, ord)
	}
	if err := db.cat.AddIndex(t.Name, idx); err != nil {
		return err
	}
	if db.store.Table(t.Name) != nil {
		return db.store.AddIndex(t.Name, idx)
	}
	return nil
}

// createView registers a view. A materialized or cached one it leaves
// seeding, populated in tx or by the cache's hook; execDDL makes it visible.
func (db *Database) createView(x *sql.CreateViewStmt, tx *storage.Txn) error {
	if x.Cached && db.role != Cache {
		return fmt.Errorf("engine: CREATE CACHED VIEW is only valid on a cache server")
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
		return fmt.Errorf("engine: CREATE VIEW %s: %w", t.Name, err)
	default:
		p, err := opt.Optimize(x.Select, db.env())
		if err != nil {
			return fmt.Errorf("engine: invalid view definition: %w", err)
		}
		for _, c := range p.Cols {
			t.Columns = append(t.Columns, catalog.Column{Name: c.Name, Type: c.Kind})
		}
	}
	if !t.Materialized {
		return db.cat.AddTable(t)
	}
	t.PrimaryKey = sp.PrimaryKey()
	if db.role == Cache && !x.Cached {
		// A backend's materialized view, re-created by the shadow script: a
		// shadow like the tables around it — schema and statistics, no data,
		// nothing to maintain — that plans read remotely.
		return db.addStored(t, tx)
	}
	if x.Cached {
		// Cached views are populated and maintained by replication; hand off
		// to the MTCache layer to create the matching subscription (§4). The
		// view is registered first — the population writes to it by name —
		// and stays invisible to view matching until its contents have
		// committed: a plan made in between reads the base table.
		if err := db.addStored(t, nil); err != nil {
			return err
		}
		db.cat.SetSeeding(t.Name, true)
		if db.onCachedViewCreate != nil {
			if err := db.onCachedViewCreate(t); err != nil {
				db.dropStored(t)
				return fmt.Errorf("engine: provisioning cached view %s: %w", t.Name, err)
			}
		}
		return nil
	}

	// A backend's materialized view: compile its maintenance, and compute the
	// initial contents *before* registering the view, so the population query
	// cannot be answered from the still-empty view itself. The base table is
	// latched first, so the population is the state just before the view's
	// record, which a replay of the record populates it from again. The
	// population commits with the record and is not logged row by row.
	changes, err := opt.CompileChangeMap(sp)
	if err != nil {
		return err
	}
	if err := latch(tx, sp.Source.Name); err != nil {
		return err
	}
	res, err := db.ExecStmt(x.Select, nil)
	if err != nil {
		return fmt.Errorf("engine: populating %s: %w", t.Name, err)
	}
	initial := res.Rows
	db.viewMaps.Store(t, changes)
	if err := db.addStored(t, tx); err != nil {
		db.viewMaps.Delete(t)
		return err
	}
	db.cat.SetSeeding(t.Name, true)
	if err := tx.Fill(t.Name, initial); err != nil {
		db.dropStored(t)
		return err
	}
	return nil
}

// addStored creates a relation's empty storage and registers it. The storage
// is latched for tx before the catalog names it, so every writer of the new
// table waits for the statement's record.
func (db *Database) addStored(t *catalog.Table, tx *storage.Txn) error {
	if err := db.store.CreateTable(t); err != nil {
		return err
	}
	err := latch(tx, t.Name)
	if err == nil {
		err = db.cat.AddTable(t)
	}
	if err != nil {
		db.store.DropTable(t.Name)
		return err
	}
	return nil
}

// dropStored removes a relation, its storage and, for a materialized view,
// its maintenance. The catalog refuses while a view reads the relation.
func (db *Database) dropStored(t *catalog.Table) error {
	if err := db.cat.DropTable(t.Name); err != nil {
		return err
	}
	db.store.DropTable(t.Name)
	db.viewMaps.Delete(t)
	return nil
}

func (db *Database) createProc(x *sql.CreateProcStmt, text string) error {
	return db.cat.AddProcedure(&catalog.Procedure{Name: x.Name, Params: x.Params, Body: x.Body, Text: text})
}

func (db *Database) drop(x *sql.DropStmt, tx *storage.Txn) error {
	switch x.What {
	case "TABLE", "VIEW":
		t := db.cat.Table(x.Name)
		if t == nil {
			return fmt.Errorf("engine: %s %s does not exist", strings.ToLower(x.What), x.Name)
		}
		if db.store.Table(t.Name) != nil {
			if err := latch(tx, t.Name); err != nil {
				return err
			}
		}
		if err := db.dropStored(t); err != nil {
			return err
		}
		// Intermediates derived from the dropped relation are now orphans.
		db.InvalidateIntermediates(t.Name)
	case "PROCEDURE":
		return db.cat.DropProcedure(x.Name)
	case "INDEX":
		return fmt.Errorf("engine: DROP INDEX is not supported")
	}
	return nil
}
