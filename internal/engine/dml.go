package engine

import (
	"fmt"
	"slices"
	"sync"

	"mtcache/internal/catalog"
	"mtcache/internal/exec"
	"mtcache/internal/metrics"
	"mtcache/internal/opt"
	"mtcache/internal/sql"
	"mtcache/internal/storage"
	"mtcache/internal/trace"
	"mtcache/internal/types"
)

// execDML routes an INSERT, UPDATE or DELETE: e is its plan-cache entry when
// the front door found it (nil: it is looked up by deparse), and autoArgs the
// literal values the front door extracted. On a cache server it is forwarded
// to the backend as its shape, with the values in the one named-parameter map
// — the application never knows it talked to a cache (paper §5). On the
// backend it executes locally inside its own transaction, on the write plan
// its entry keeps.
func (db *Database) execDML(stmt keyed, e *planEntry, params exec.Params, autoArgs []types.Value, rec *trace.Record) (*Result, error) {
	// Virtual system tables are read-only everywhere — reject before the
	// cache role forwards the statement to a backend that would only reject
	// it against *its own* sys tables.
	if t := db.virtualDMLTarget(stmt); t != nil {
		return nil, fmt.Errorf("engine: %s is a read-only system table", t.Name)
	}
	if db.role == Cache {
		return db.forward(stmt.CacheKey(), withAutoArgs(params, autoArgs), rec)
	}
	wp, err := db.writePlanOf(e, stmt)
	if err != nil {
		return nil, err
	}
	var ctr exec.Counters
	tx := db.beginWrite()
	defer writeTxns.Put(tx)
	n, err := db.runWrite(wp, params, autoArgs, tx, &ctr)
	if err != nil {
		tx.Abort()
		return nil, err
	}
	lsn, err := tx.Commit()
	if err != nil {
		return nil, err
	}
	res := NewResult()
	res.RowsAffected, res.CommitLSN, res.Counters, rec.Counters = n, lsn, ctr, ctr
	return res, nil
}

// forward sends a statement a cache does not run itself to the backend, and
// answers what the backend did: its rows, row count and commit LSN, in the
// storage they were decoded into, which the Result's slab adopts and its
// Release recycles. It is the one way out for a client DML statement and for
// a call the cache holds no read-only copy of, sent as it arrived: text is
// the statement's or the call's shape, whose values are in params. It
// changes nothing on the cache: a write reaches the cache's views, and
// through them its result cache, only by replication apply.
func (db *Database) forward(text string, params exec.Params, rec *trace.Record) (*Result, error) {
	if db.remote == nil {
		return nil, fmt.Errorf("engine: cache has no backend link for forwarding")
	}
	rec.Tier = trace.TierForwarded
	rs, err := db.remote.Query(text, params)
	if err != nil {
		return nil, err
	}
	res := NewResult()
	res.Cols, res.Rows, res.RowsAffected, res.CommitLSN = rs.Cols, rs.Rows, rs.RowsAffected, rs.CommitLSN
	res.slab = answerSlabs.Get().(*exec.Slab)
	res.slab.Adopt(rs)
	return res, nil
}

// dmlTarget is the table an INSERT, UPDATE or DELETE names, or nil for any
// other statement.
func dmlTarget(stmt sql.Statement) *sql.TableName {
	switch x := stmt.(type) {
	case *sql.InsertStmt:
		return x.Table
	case *sql.UpdateStmt:
		return x.Table
	case *sql.DeleteStmt:
		return x.Table
	}
	return nil
}

// virtualDMLTarget returns the virtual system table a DML statement names,
// or nil. The sys database qualifier alone is enough to reject — a typo'd
// sys.* name must not be silently forwarded to the backend as user DML.
func (db *Database) virtualDMLTarget(stmt sql.Statement) *catalog.Table {
	tn := dmlTarget(stmt)
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

// writePlan is an INSERT, UPDATE or DELETE taken apart once: its target
// table, its compiled expressions, and the index seek its WHERE allows, which
// the read planner's index chooser picks (opt.WriteSeek). An execution
// walks the index between the evaluated bounds, or scans, and writes the rows
// the whole WHERE holds for. A compiled scalar holds no run state — a
// parameter reads its slot in the execution's Env, an IN list's set is built
// when it is compiled — so one plan serves concurrent executions. A
// statement keeps its plan on its plan-cache entry (writePlanOf), whether it
// is a procedure body's or a text's shape.
type writePlan struct {
	t      *catalog.Table
	op     storage.ChangeOp
	params opt.Params // the parameters its expressions read, in slot order

	// INSERT: the column each value goes to, the values — compiled VALUES
	// rows, or a SELECT planned per execution through the plan cache — and
	// every column the list leaves out.
	cols   []int
	values [][]exec.Expr
	sel    *sql.SelectStmt
	fill   []fillCol

	// UPDATE: the SET assignments.
	sets []setOp

	// UPDATE, DELETE: the whole WHERE (nil: every row), and the index it
	// seeks with its prefix bounds ("": none, the write scans). A row the
	// seek finds is written only if the whole WHERE holds for it.
	filter exec.Expr
	index  string
	lo, hi []exec.Expr
}

// fillCol is a column an INSERT gives no value: it takes its default,
// compiled once, or NULL — or fails the row, if it is NOT NULL.
type fillCol struct {
	ord int
	def exec.Expr // nil: no default
}

// setOp is one SET assignment: the column and its compiled value.
type setOp struct {
	ord int
	e   exec.Expr
}

// writePlanOf is the write plan of an INSERT, UPDATE or DELETE whose shape
// or deparse keys e (nil: the entry stmt's deparse keys): the plan stored on
// e, or — when there is none yet — stmt built outside the lock and stored on
// e, as planOf does for a SELECT, with the same rule: e is the entry a lookup
// returned before the build began, so a plan built across InvalidatePlans is
// never served again. A build that fails stores nothing. What writePlanOf did
// is counted by engine.plan_cache_hits and engine.plan_cache_misses.
func (db *Database) writePlanOf(e *planEntry, stmt keyed) (*writePlan, error) {
	if e == nil {
		e = db.entryFor(stmt)
	}
	if wp := e.write.Load(); wp != nil {
		metrics.Default.Counter("engine.plan_cache_hits").Add(1)
		return wp, nil
	}
	metrics.Default.Counter("engine.plan_cache_misses").Add(1)
	wp, err := db.buildWritePlan(stmt)
	if err != nil {
		return nil, err
	}
	e.write.CompareAndSwap(nil, wp) // a concurrent miss that stored first keeps its plan
	return wp, nil
}

// buildWritePlan takes a DML statement apart against the catalog: it resolves
// the target and every column it names, refusing a column named twice in an
// INSERT's list or an UPDATE's SET, compiles every expression, and takes the
// WHERE's index seek from opt.WriteSeek.
func (db *Database) buildWritePlan(stmt sql.Statement) (*writePlan, error) {
	tn := dmlTarget(stmt)
	if tn == nil {
		return nil, fmt.Errorf("engine: not a DML statement: %T", stmt)
	}
	t := db.cat.Table(tn.Name)
	if t == nil {
		return nil, fmt.Errorf("engine: table %s does not exist", tn.Name)
	}
	wp := &writePlan{t: t, op: storage.OpInsert}
	var where sql.Expr
	var err error
	switch x := stmt.(type) {
	case *sql.InsertStmt:
		err = wp.planInsert(x)
	case *sql.UpdateStmt:
		where, wp.op = x.Where, storage.OpUpdate
		err = wp.planSet(x.Set)
	case *sql.DeleteStmt:
		where, wp.op = x.Where, storage.OpDelete
	}
	if err != nil || where == nil {
		return wp, err
	}
	if wp.filter, err = opt.CompileScalar(where, t, &wp.params); err != nil {
		return nil, err
	}
	wp.index, wp.lo, wp.hi, _ = opt.WriteSeek(t, where, &wp.params)
	return wp, nil
}

func (wp *writePlan) planInsert(x *sql.InsertStmt) error {
	t := wp.t
	cols, err := insertColumnOrds(t, x.Columns)
	if err != nil {
		return err
	}
	wp.cols, wp.sel = cols, x.Select
	for _, row := range x.Rows {
		compiled := make([]exec.Expr, len(row))
		for i, e := range row {
			if compiled[i], err = opt.CompileScalar(e, nil, &wp.params); err != nil {
				return err
			}
		}
		wp.values = append(wp.values, compiled)
	}
	for i, col := range t.Columns {
		if slices.Contains(cols, i) {
			continue
		}
		f := fillCol{ord: i}
		if col.Default != nil {
			if f.def, err = opt.CompileScalar(col.Default, nil, nil); err != nil {
				return err
			}
		}
		wp.fill = append(wp.fill, f)
	}
	return nil
}

func (wp *writePlan) planSet(set []sql.Assignment) error {
	t := wp.t
	for _, a := range set {
		ord := t.ColumnIndex(a.Column)
		if ord < 0 {
			return fmt.Errorf("engine: column %s not in %s", a.Column, t.Name)
		}
		if slices.ContainsFunc(wp.sets, func(s setOp) bool { return s.ord == ord }) {
			return fmt.Errorf("engine: column %s is named more than once in the SET of an UPDATE of %s", a.Column, t.Name)
		}
		ce, err := opt.CompileScalar(a.Expr, t, &wp.params)
		if err != nil {
			return err
		}
		wp.sets = append(wp.sets, setOp{ord: ord, e: ce})
	}
	return nil
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

// runWrite executes wp inside tx with params and the front door's literals
// autoArgs bound, and returns the number of rows it wrote; the rows it
// examined are added to ctr's RowsScanned. An UPDATE or DELETE binds its
// target's view once: finding the rows and reading them before the write go
// through the same view.
func (db *Database) runWrite(wp *writePlan, params exec.Params, autoArgs []types.Value, tx *storage.Txn, ctr *exec.Counters) (int64, error) {
	env := writeEnvs.Get().(*exec.Env)
	defer func() {
		clear(env.Slots)
		writeEnvs.Put(env)
	}()
	if err := env.Bind(wp.params, params, autoArgs); err != nil {
		return 0, err
	}
	if wp.op == storage.OpInsert {
		return db.execInsert(wp, env, params, autoArgs, tx, ctr)
	}
	td, ok := tx.Table(wp.t.Name)
	if !ok {
		return 0, noStorage(tx, wp.t.Name)
	}
	var one [1]storage.RowID
	rids, err := wp.targetRows(one[:0], env, &td, ctr)
	if err != nil {
		return 0, err
	}
	if wp.op == storage.OpUpdate {
		return db.execUpdate(wp, rids, env, tx, &td)
	}
	return db.execDelete(wp, rids, tx, &td)
}

// noStorage is why a write transaction has no view of table: the deadlock
// that poisoned it (storage.ErrDeadlock), or no storage.
func noStorage(tx *storage.Txn, table string) error {
	if err := tx.Err(); err != nil {
		return err
	}
	return fmt.Errorf("engine: no storage for %s", table)
}

// writeEnvs recycles the Envs writes bind their parameters into: nothing
// keeps one past runWrite, as the rows a write stores copy the values.
var writeEnvs = sync.Pool{New: func() any { return new(exec.Env) }}

func (db *Database) execInsert(wp *writePlan, env *exec.Env, params exec.Params, autoArgs []types.Value, tx *storage.Txn, ctr *exec.Counters) (int64, error) {
	t := wp.t
	// Latched before the views are read: a materialized view created
	// meanwhile has committed by then, and the insert maintains it.
	if _, ok := tx.Table(t.Name); !ok {
		return 0, noStorage(tx, t.Name)
	}
	views := db.cat.ViewsOver(t.Name)
	var count int64
	write := func(vals []types.Value) error {
		row, err := wp.insertRow(vals, env)
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

	if wp.sel != nil {
		plan, err := db.Plan(wp.sel)
		if err != nil {
			return 0, err
		}
		rs, err := db.runPlanAlone(tx, plan, params, autoArgs)
		if err != nil {
			return 0, err
		}
		ctr.Add(&rs.Counters)
		for _, r := range rs.Rows {
			if err := write(r); err != nil {
				return 0, err
			}
		}
		return count, nil
	}
	var buf [16]types.Value
	for _, exprRow := range wp.values {
		vals := buf[:0]
		for _, e := range exprRow {
			v, err := e.Eval(nil, env)
			if err != nil {
				return 0, err
			}
			vals = append(vals, v)
		}
		if err := write(vals); err != nil {
			return 0, err
		}
	}
	return count, nil
}

// insertRow is the row an INSERT writes for one list of values: each cast to
// its column's type, and every column the list leaves out filled.
func (wp *writePlan) insertRow(vals []types.Value, env *exec.Env) (types.Row, error) {
	t := wp.t
	if len(vals) != len(wp.cols) {
		return nil, fmt.Errorf("engine: %s: %d values for %d columns", t.Name, len(vals), len(wp.cols))
	}
	row := make(types.Row, len(t.Columns))
	for i, ord := range wp.cols {
		v, err := vals[i].Cast(t.Columns[ord].Type)
		if err != nil {
			return nil, fmt.Errorf("engine: column %s: %w", t.Columns[ord].Name, err)
		}
		row[ord] = v
	}
	for _, f := range wp.fill {
		col := t.Columns[f.ord]
		switch {
		case f.def != nil:
			v, err := f.def.Eval(nil, nil)
			if err != nil {
				return nil, err
			}
			if row[f.ord], err = v.Cast(col.Type); err != nil {
				return nil, err
			}
		case col.NotNull:
			return nil, fmt.Errorf("engine: column %s of %s is NOT NULL and has no default", col.Name, t.Name)
		default:
			row[f.ord] = types.Null
		}
	}
	return row, nil
}

// targetRows appends to dst the RowIDs of the rows the whole WHERE holds for,
// and counts in ctr every row it examines: the rows in the plan's index range,
// or when it has no index, every row of td. A seek finds each row once: the
// walk skips an entry whose key the visible row no longer carries.
func (wp *writePlan) targetRows(dst []storage.RowID, env *exec.Env, td *storage.TableView, ctr *exec.Counters) ([]storage.RowID, error) {
	var evalErr error
	visit := func(rid storage.RowID, row types.Row) bool {
		ctr.RowsScanned++
		ok, err := exec.EvalBool(wp.filter, row, env)
		if err != nil {
			evalErr = err
			return false
		}
		if ok {
			dst = append(dst, rid)
		}
		return true
	}
	iv, ok := td.Index(wp.index)
	if !ok { // no index, or one a CREATE INDEX has yet to build: the WHERE decides alone
		td.Scan(visit)
		return dst, evalErr
	}
	var loBuf, hiBuf [4]types.Value
	lo, hi, ok, err := exec.SeekBounds(wp.lo, wp.hi, env, loBuf[:0], hiBuf[:0])
	if err != nil || !ok {
		return dst, err
	}
	iv.Walk(lo, hi, false, func(it storage.Item) bool { return visit(it.RID, td.Get(it.RID)) })
	return dst, evalErr
}

func (db *Database) execUpdate(wp *writePlan, rids []storage.RowID, env *exec.Env, tx *storage.Txn, td *storage.TableView) (int64, error) {
	t := wp.t
	views := db.cat.ViewsOver(t.Name)
	var count int64
	for _, rid := range rids {
		old := td.Get(rid)
		if old == nil {
			continue
		}
		newRow := old.Clone()
		for _, s := range wp.sets {
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

func (db *Database) execDelete(wp *writePlan, rids []storage.RowID, tx *storage.Txn, td *storage.TableView) (int64, error) {
	t := wp.t
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
