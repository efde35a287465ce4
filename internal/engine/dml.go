package engine

import (
	"fmt"

	"mtcache/internal/catalog"
	"mtcache/internal/exec"
	"mtcache/internal/opt"
	"mtcache/internal/sql"
	"mtcache/internal/storage"
	"mtcache/internal/trace"
	"mtcache/internal/types"
)

// execDML routes a data modification. On a cache server the statement is
// deparsed and forwarded to the backend unchanged — the application never
// knows it talked to a cache (paper §5). On the backend it executes locally
// inside its own transaction.
func (db *Database) execDML(stmt sql.Statement, params exec.Params, rec *trace.Record) (*Result, error) {
	// Virtual system tables are read-only everywhere — reject before the
	// cache role forwards the statement to a backend that would only reject
	// it against *its own* sys tables.
	if t := db.virtualDMLTarget(stmt); t != nil {
		return nil, fmt.Errorf("engine: %s is a read-only system table", t.Name)
	}
	if db.role == Cache {
		if db.remote == nil {
			return nil, fmt.Errorf("engine: cache has no backend link for update forwarding")
		}
		rec.Tier = trace.TierForwarded
		// Prefer the LSN-acknowledging path: the backend's commit LSN rides
		// back with the row count, giving the session its read-your-writes
		// watermark.
		if lx, ok := db.remote.(exec.LSNExecer); ok {
			n, lsn, err := lx.ExecLSN(sql.Deparse(stmt), params)
			if err != nil {
				return nil, err
			}
			db.invalidateDMLTarget(stmt)
			return &Result{RowsAffected: n, CommitLSN: lsn}, nil
		}
		n, err := db.remote.Exec(sql.Deparse(stmt), params)
		if err != nil {
			return nil, err
		}
		db.invalidateDMLTarget(stmt)
		return &Result{RowsAffected: n}, nil
	}
	tx := db.store.Begin(true)
	n, err := db.execDMLInTxn(stmt, params, tx)
	if err != nil {
		tx.Abort()
		return nil, err
	}
	lsn, err := tx.Commit()
	if err != nil {
		return nil, err
	}
	db.invalidateDMLTarget(stmt)
	return &Result{RowsAffected: n, CommitLSN: lsn}, nil
}

// invalidateDMLTarget drops intermediates derived from a DML statement's
// target table, after the write committed (locally on a backend, at the
// backend for a cache's forwarded write — the forwarding cache must not
// keep serving its own overwritten read).
func (db *Database) invalidateDMLTarget(stmt sql.Statement) {
	switch x := stmt.(type) {
	case *sql.InsertStmt:
		db.InvalidateIntermediates(x.Table.Name)
	case *sql.UpdateStmt:
		db.InvalidateIntermediates(x.Table.Name)
	case *sql.DeleteStmt:
		db.InvalidateIntermediates(x.Table.Name)
	}
}

// virtualDMLTarget returns the virtual system table a DML statement names,
// or nil. The sys database qualifier alone is enough to reject — a typo'd
// sys.* name must not be silently forwarded to the backend as user DML.
func (db *Database) virtualDMLTarget(stmt sql.Statement) *catalog.Table {
	var tn *sql.TableName
	switch x := stmt.(type) {
	case *sql.InsertStmt:
		tn = x.Table
	case *sql.UpdateStmt:
		tn = x.Table
	case *sql.DeleteStmt:
		tn = x.Table
	}
	if tn == nil {
		return nil
	}
	if t := db.cat.Table(tn.FullName()); t != nil && t.Virtual {
		return t
	}
	if strEqualFold(tn.Database, "sys") {
		return &catalog.Table{Name: tn.FullName(), Virtual: true}
	}
	return nil
}

// execDMLInTxn performs a DML statement inside an open write transaction
// (stored procedures share one transaction across their whole body).
func (db *Database) execDMLInTxn(stmt sql.Statement, params exec.Params, tx *storage.Txn) (int64, error) {
	switch x := stmt.(type) {
	case *sql.InsertStmt:
		return db.execInsert(x, params, tx)
	case *sql.UpdateStmt:
		return db.execUpdate(x, params, tx)
	case *sql.DeleteStmt:
		return db.execDelete(x, params, tx)
	}
	return 0, fmt.Errorf("engine: not a DML statement: %T", stmt)
}

func (db *Database) execInsert(x *sql.InsertStmt, params exec.Params, tx *storage.Txn) (int64, error) {
	t := db.cat.Table(x.Table.Name)
	if t == nil {
		return 0, fmt.Errorf("engine: table %s does not exist", x.Table.Name)
	}
	colOrds, err := insertColumnOrds(t, x.Columns)
	if err != nil {
		return 0, err
	}
	views := db.cat.ViewsOver(t.Name)
	var count int64
	insertRow := func(vals []types.Value) error {
		row, err := buildInsertRow(t, colOrds, vals)
		if err != nil {
			return err
		}
		if _, err := tx.Insert(t.Name, row); err != nil {
			return err
		}
		if err := db.maintainViews(tx, views, storage.ChangeRec{Op: storage.OpInsert, After: row}); err != nil {
			return err
		}
		count++
		return nil
	}

	if x.Select != nil {
		plan, err := db.Plan(x.Select)
		if err != nil {
			return 0, err
		}
		rs, err := db.runPlanAlone(tx, plan, params)
		if err != nil {
			return 0, err
		}
		for _, r := range rs.Rows {
			if err := insertRow(r); err != nil {
				return 0, err
			}
		}
		return count, nil
	}
	sc := &scopeless{}
	env := &exec.Env{Named: params}
	for _, exprRow := range x.Rows {
		vals := make([]types.Value, len(exprRow))
		for i, e := range exprRow {
			ce, err := sc.compile(e)
			if err != nil {
				return 0, err
			}
			v, err := ce.Eval(nil, env)
			if err != nil {
				return 0, err
			}
			vals[i] = v
		}
		if err := insertRow(vals); err != nil {
			return 0, err
		}
	}
	return count, nil
}

// scopeless compiles expressions that may reference only literals and
// parameters (VALUES rows, SET right-hand sides without columns).
type scopeless struct{}

func (s *scopeless) compile(e sql.Expr) (exec.Expr, error) {
	return opt.CompileScalar(e, nil)
}

func insertColumnOrds(t *catalog.Table, cols []string) ([]int, error) {
	if len(cols) == 0 {
		ords := make([]int, len(t.Columns))
		for i := range ords {
			ords[i] = i
		}
		return ords, nil
	}
	ords := make([]int, len(cols))
	for i, c := range cols {
		ord := t.ColumnIndex(c)
		if ord < 0 {
			return nil, fmt.Errorf("engine: column %s not in %s", c, t.Name)
		}
		ords[i] = ord
	}
	return ords, nil
}

func buildInsertRow(t *catalog.Table, colOrds []int, vals []types.Value) (types.Row, error) {
	if len(vals) != len(colOrds) {
		return nil, fmt.Errorf("engine: %s: %d values for %d columns", t.Name, len(vals), len(colOrds))
	}
	row := make(types.Row, len(t.Columns))
	assigned := make([]bool, len(t.Columns))
	for i, ord := range colOrds {
		v, err := vals[i].Cast(t.Columns[ord].Type)
		if err != nil {
			return nil, fmt.Errorf("engine: column %s: %w", t.Columns[ord].Name, err)
		}
		row[ord] = v
		assigned[ord] = true
	}
	for i, col := range t.Columns {
		if assigned[i] {
			continue
		}
		if col.Default != nil {
			ce, err := opt.CompileScalar(col.Default, nil)
			if err != nil {
				return nil, err
			}
			v, err := ce.Eval(nil, nil)
			if err != nil {
				return nil, err
			}
			row[i], err = v.Cast(col.Type)
			if err != nil {
				return nil, err
			}
			continue
		}
		if col.NotNull {
			return nil, fmt.Errorf("engine: column %s of %s is NOT NULL and has no default", col.Name, t.Name)
		}
		row[i] = types.Null
	}
	return row, nil
}

// targetRows finds the RowIDs a WHERE clause selects, using the primary key
// when the predicate pins every key column (the hot path for OLTP updates).
func (db *Database) targetRows(t *catalog.Table, where sql.Expr, params exec.Params, tx *storage.Txn) ([]storage.RowID, exec.Expr, error) {
	td := tx.Table(t.Name)
	if td == nil {
		return nil, nil, fmt.Errorf("engine: no storage for %s", t.Name)
	}
	var filter exec.Expr
	if where != nil {
		f, err := opt.CompileScalar(where, t)
		if err != nil {
			return nil, nil, err
		}
		filter = f
	}

	// PK fast path.
	if where != nil && len(t.PrimaryKey) > 0 {
		if key, ok := pkKey(t, where, params); ok {
			rid := td.PKLookup(key)
			if rid < 0 {
				return nil, filter, nil
			}
			return []storage.RowID{rid}, filter, nil
		}
	}

	var rids []storage.RowID
	var evalErr error
	env := &exec.Env{Named: params}
	td.Scan(func(rid storage.RowID, row types.Row) bool {
		if filter != nil {
			ok, err := exec.EvalBool(filter, row, env)
			if err != nil {
				evalErr = err
				return false
			}
			if !ok {
				return true
			}
		}
		rids = append(rids, rid)
		return true
	})
	if evalErr != nil {
		return nil, nil, evalErr
	}
	return rids, filter, nil
}

// pkKey extracts a full primary-key binding from equality conjuncts.
func pkKey(t *catalog.Table, where sql.Expr, params exec.Params) (types.Row, bool) {
	bindings := map[string]types.Value{}
	for _, c := range opt.Conjuncts(where) {
		be, ok := c.(*sql.BinaryExpr)
		if !ok || be.Op != sql.OpEQ {
			continue
		}
		ref, val := be.L, be.R
		if _, ok := ref.(*sql.ColumnRef); !ok {
			ref, val = be.R, be.L
		}
		cr, ok := ref.(*sql.ColumnRef)
		if !ok {
			continue
		}
		switch v := val.(type) {
		case *sql.Literal:
			bindings[keyLower(cr.Name)] = v.Val
		case *sql.Param:
			if pv, ok := params[v.Name]; ok {
				bindings[keyLower(cr.Name)] = pv
			}
		}
	}
	key := make(types.Row, len(t.PrimaryKey))
	for i, ord := range t.PrimaryKey {
		v, ok := bindings[keyLower(t.Columns[ord].Name)]
		if !ok {
			return nil, false
		}
		cast, err := v.Cast(t.Columns[ord].Type)
		if err != nil {
			return nil, false
		}
		key[i] = cast
	}
	return key, true
}

func keyLower(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}

func (db *Database) execUpdate(x *sql.UpdateStmt, params exec.Params, tx *storage.Txn) (int64, error) {
	t := db.cat.Table(x.Table.Name)
	if t == nil {
		return 0, fmt.Errorf("engine: table %s does not exist", x.Table.Name)
	}
	rids, _, err := db.targetRows(t, x.Where, params, tx)
	if err != nil {
		return 0, err
	}
	type setOp struct {
		ord int
		e   exec.Expr
	}
	var sets []setOp
	for _, a := range x.Set {
		ord := t.ColumnIndex(a.Column)
		if ord < 0 {
			return 0, fmt.Errorf("engine: column %s not in %s", a.Column, t.Name)
		}
		ce, err := opt.CompileScalar(a.Expr, t)
		if err != nil {
			return 0, err
		}
		sets = append(sets, setOp{ord: ord, e: ce})
	}
	td := tx.Table(t.Name)
	views := db.cat.ViewsOver(t.Name)
	env := &exec.Env{Named: params}
	var count int64
	for _, rid := range rids {
		old := td.Get(rid)
		if old == nil {
			continue
		}
		newRow := old.Clone()
		for _, s := range sets {
			v, err := s.e.Eval(old, env)
			if err != nil {
				return 0, err
			}
			newRow[s.ord], err = v.Cast(t.Columns[s.ord].Type)
			if err != nil {
				return 0, err
			}
		}
		if err := tx.Update(t.Name, rid, newRow); err != nil {
			return 0, err
		}
		if err := db.maintainViews(tx, views, storage.ChangeRec{Op: storage.OpUpdate, Before: old, After: newRow}); err != nil {
			return 0, err
		}
		count++
	}
	return count, nil
}

func (db *Database) execDelete(x *sql.DeleteStmt, params exec.Params, tx *storage.Txn) (int64, error) {
	t := db.cat.Table(x.Table.Name)
	if t == nil {
		return 0, fmt.Errorf("engine: table %s does not exist", x.Table.Name)
	}
	rids, _, err := db.targetRows(t, x.Where, params, tx)
	if err != nil {
		return 0, err
	}
	td := tx.Table(t.Name)
	views := db.cat.ViewsOver(t.Name)
	var count int64
	for _, rid := range rids {
		old := td.Get(rid)
		if old == nil {
			continue
		}
		if err := tx.Delete(t.Name, rid); err != nil {
			return 0, err
		}
		if err := db.maintainViews(tx, views, storage.ChangeRec{Op: storage.OpDelete, Before: old}); err != nil {
			return 0, err
		}
		count++
	}
	return count, nil
}
