package engine

import (
	"fmt"
	"slices"

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
// inside its own transaction and invalidates the results that read its table.
func (db *Database) execDML(stmt sql.Statement, params exec.Params, rec *trace.Record) (*Result, error) {
	// Virtual system tables are read-only everywhere — reject before the
	// cache role forwards the statement to a backend that would only reject
	// it against *its own* sys tables.
	if t := db.virtualDMLTarget(stmt); t != nil {
		return nil, fmt.Errorf("engine: %s is a read-only system table", t.Name)
	}
	if db.role == Cache {
		return db.forward(sql.Deparse(stmt), params, rec)
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

// forward sends a statement a cache does not run itself to the backend, and
// answers what the backend did: its rows, row count and commit LSN. It is the
// one way out for a client DML statement and for a call the cache holds no
// read-only copy of, sent as it arrived; text is the statement, or a call
// shape whose values are in params. It changes nothing on the cache: a write
// reaches the cache's views, and through them its result cache, only by
// replication apply.
func (db *Database) forward(text string, params exec.Params, rec *trace.Record) (*Result, error) {
	if db.remote == nil {
		return nil, fmt.Errorf("engine: cache has no backend link for forwarding")
	}
	rec.Tier = trace.TierForwarded
	rs, err := db.remote.Query(text, params)
	if err != nil {
		return nil, err
	}
	return &Result{Cols: rs.Cols, Rows: rs.Rows, RowsAffected: rs.RowsAffected, CommitLSN: rs.CommitLSN}, nil
}

// invalidateDMLTarget drops intermediates derived from a DML statement's
// target table after a backend committed it locally. A cache never calls it:
// replication apply is a cache's one result invalidation.
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
		if slices.Contains(ords[:i], ord) {
			return nil, fmt.Errorf("engine: column %s is named more than once in the column list of an INSERT into %s", c, t.Name)
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
// when the predicate pins every key column (the hot path for OLTP updates):
// the row the key finds is selected only if the whole clause holds for it.
func (db *Database) targetRows(t *catalog.Table, where sql.Expr, env *exec.Env, tx *storage.Txn) ([]storage.RowID, error) {
	td := tx.Table(t.Name)
	if td == nil {
		return nil, fmt.Errorf("engine: no storage for %s", t.Name)
	}
	var filter exec.Expr
	if where != nil {
		f, err := opt.CompileScalar(where, t)
		if err != nil {
			return nil, err
		}
		filter = f
	}

	// PK fast path.
	if where != nil && len(t.PrimaryKey) > 0 {
		if key, ok := pkKey(t, where, env.Named); ok {
			rid := td.PKLookup(key)
			if rid < 0 {
				return nil, nil
			}
			if ok, err := exec.EvalBool(filter, td.Get(rid), env); err != nil || !ok {
				return nil, err
			}
			return []storage.RowID{rid}, nil
		}
	}

	var rids []storage.RowID
	var evalErr error
	td.Scan(func(rid storage.RowID, row types.Row) bool {
		ok, err := exec.EvalBool(filter, row, env)
		if err != nil {
			evalErr = err
			return false
		}
		if ok {
			rids = append(rids, rid)
		}
		return true
	})
	if evalErr != nil {
		return nil, evalErr
	}
	return rids, nil
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
	env := &exec.Env{Named: params}
	rids, err := db.targetRows(t, x.Where, env, tx)
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
		for _, s := range sets {
			if s.ord == ord {
				return 0, fmt.Errorf("engine: column %s is named more than once in the SET of an UPDATE of %s", a.Column, t.Name)
			}
		}
		ce, err := opt.CompileScalar(a.Expr, t)
		if err != nil {
			return 0, err
		}
		sets = append(sets, setOp{ord: ord, e: ce})
	}
	td := tx.Table(t.Name)
	views := db.cat.ViewsOver(t.Name)
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
	rids, err := db.targetRows(t, x.Where, &exec.Env{Named: params}, tx)
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
