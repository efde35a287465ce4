package engine

import (
	"fmt"

	"mtcache/internal/catalog"
	"mtcache/internal/exec"
	"mtcache/internal/sql"
	"mtcache/internal/storage"
	"mtcache/internal/trace"
	"mtcache/internal/types"
)

// execProcCall runs EXEC proc. A cache runs a copy whose body only reads (its
// queries may still be computed remotely, decided per statement by the
// optimizer): "a stored procedure can be run locally even when some of the
// data it requires is not available locally" (paper §5.2). Every other call on
// a cache — to a procedure it has no copy of, or to a copy that writes, in one
// statement or several — goes to the backend as it arrived: its shape, with
// the arguments and any extracted literals in the one named-parameter map,
// which the backend's front door resolves without parsing. A write is one
// backend transaction (paper §5). autoArgs are the literals the front door
// extracted from the call's text, bound to its @__pN arguments.
func (db *Database) execProcCall(x *sql.ExecStmt, outer exec.Params, autoArgs []types.Value, rec *trace.Record) (*Result, error) {
	proc := db.cat.Procedure(x.Proc)
	if db.role == Cache && (proc == nil || proc.Writes()) {
		return db.forward(x.Text(), withAutoArgs(outer, autoArgs), rec)
	}
	if proc == nil {
		return nil, fmt.Errorf("engine: procedure %s does not exist", x.Proc)
	}
	params, err := bindProcArgs(proc, x.Args, outer, autoArgs)
	if err != nil {
		return nil, err
	}
	res, err := db.callProcedure(proc, params)
	if err == nil {
		rec.Counters = res.Counters
	}
	return res, err
}

// bindProcArgs evaluates EXEC arguments (positional or named) into the
// procedure's parameter map. A parameter given twice is refused. When the
// binding would copy outer unchanged — every argument is @p = @p for a
// declared parameter spelled as declared, outer holds exactly those names,
// and each value already has its parameter's type, as in every call
// sql.CallShape renders — the map is outer itself; otherwise a map is made at
// the first argument that differs.
func bindProcArgs(proc *catalog.Procedure, args []sql.ExecArg, outer exec.Params, autoArgs []types.Value) (exec.Params, error) {
	var params exec.Params // nil while every argument binds outer's own entry
	for i, arg := range args {
		var name string
		if arg.Name != "" {
			name = arg.Name
		} else {
			if i >= len(proc.Params) {
				return nil, fmt.Errorf("engine: too many arguments for %s", proc.Name)
			}
			name = proc.Params[i].Name
		}
		var target *sql.ProcParam
		for j := range proc.Params {
			if strEqualFold(proc.Params[j].Name, name) {
				target = &proc.Params[j]
				break
			}
		}
		if target == nil {
			return nil, fmt.Errorf("engine: procedure %s has no parameter @%s", proc.Name, name)
		}
		if givenBefore(params, args[:i], target.Name) {
			return nil, fmt.Errorf("engine: parameter @%s of %s is given more than once", target.Name, proc.Name)
		}
		var v types.Value
		self := false // @p = @p, bound to outer's own entry
		switch e := arg.Expr.(type) {
		case *sql.Literal:
			v = e.Val
		case *sql.Param:
			pv, ok := exec.ParamValue(e.Name, outer, autoArgs)
			if !ok {
				return nil, fmt.Errorf("engine: missing value for @%s", e.Name)
			}
			v = pv
			self = arg.Name == target.Name && e.Name == target.Name && len(autoArgs) == 0
		default:
			return nil, fmt.Errorf("engine: EXEC argument must be a literal or parameter")
		}
		cast, err := v.Cast(target.Type)
		if err != nil {
			return nil, fmt.Errorf("engine: parameter @%s: %w", name, err)
		}
		if params == nil {
			if self && types.Identical(cast, v) {
				continue
			}
			params = outerEntries(args[:i], outer, len(args))
		}
		params[target.Name] = cast
	}
	if params == nil && len(outer) != len(args) {
		params = outerEntries(args, outer, len(args))
	}
	if params == nil {
		return outer, nil
	}
	return params, nil
}

// givenBefore reports whether a parameter named name is bound already: in
// params, or — while params is nil — by one of the arguments before, each of
// which named its parameter as declared.
func givenBefore(params exec.Params, before []sql.ExecArg, name string) bool {
	if params != nil {
		_, dup := params[name]
		return dup
	}
	for _, a := range before {
		if a.Name == name {
			return true
		}
	}
	return false
}

// outerEntries is a parameter map with room for n arguments holding outer's
// entry for each of args, all of which are @p = @p.
func outerEntries(args []sql.ExecArg, outer exec.Params, n int) exec.Params {
	params := make(exec.Params, n)
	for _, a := range args {
		params[a.Name] = outer[a.Name]
	}
	return params
}

// CallProcedure calls a stored procedure with its arguments bound by name. It
// is Exec of the call's shape (sql.CallShape) with the values in params, so a
// call made in process enters where a routed one does.
func (db *Database) CallProcedure(name string, params exec.Params) (*Result, error) {
	return db.Exec(sql.CallShape(name, params), params)
}

// callProcedure runs a procedure this database holds. A body that writes runs
// in one write transaction, taken from writeTxns, so multi-statement business
// operations (order placement, cart updates) are atomic and replicate as one
// transaction; only a backend gets here with one, as a cache forwards every
// call that writes. A body that only reads runs statement by statement, each
// with a record of its own from ExecStmt; the call's result is its first
// statement's, with the later ones folded in. A body statement's result is
// released once folded.
func (db *Database) callProcedure(proc *catalog.Procedure, params exec.Params) (*Result, error) {
	if proc.Writes() {
		res := NewResult()
		tx := db.beginWrite()
		defer writeTxns.Put(tx)
		err := db.runWriteBody(proc, params, tx, res)
		if err != nil {
			tx.Abort()
		} else {
			res.CommitLSN, err = tx.Commit()
		}
		if err != nil {
			res.Release()
			return nil, err
		}
		return res, nil
	}

	var res *Result
	for _, stmt := range proc.Body {
		r, err := db.ExecStmt(stmt, params)
		if err != nil {
			return nil, fmt.Errorf("engine: %s: %w", proc.Name, err)
		}
		if res == nil {
			// A call reports no snapshot: its statements may read at several.
			res, r.SnapshotLSN = r, 0
			continue
		}
		res.RowsAffected += r.RowsAffected
		if r.CommitLSN > res.CommitLSN {
			// A nested EXEC may write; its commit is the session watermark.
			res.CommitLSN = r.CommitLSN
		}
		if len(r.Cols) > 0 {
			res.takeRows(r)
		}
		res.Counters.Add(&r.Counters)
		r.Release()
	}
	if res == nil {
		res = NewResult()
	}
	return res, nil
}

// runWriteBody runs a writing procedure's body in tx, folding what each
// statement answers into res.
func (db *Database) runWriteBody(proc *catalog.Procedure, params exec.Params, tx *storage.Txn, res *Result) error {
	for _, stmt := range proc.Body {
		switch x := stmt.(type) {
		case *sql.InsertStmt, *sql.UpdateStmt, *sql.DeleteStmt:
			wp, err := db.writePlanOf(nil, x.(keyed))
			var n int64
			if err == nil {
				n, err = db.runWrite(wp, params, nil, tx, &res.Counters)
			}
			if err != nil {
				return fmt.Errorf("engine: %s: %w", proc.Name, err)
			}
			res.RowsAffected += n
		case *sql.SelectStmt:
			plan, err := db.Plan(x)
			if err != nil {
				return err
			}
			r, err := db.runPlanAlone(tx, plan, params, nil)
			if err != nil {
				return err
			}
			res.takeRows(r)
			res.Counters.Add(&r.Counters)
			r.Release()
		default:
			return fmt.Errorf("engine: unsupported statement in procedure %s", proc.Name)
		}
	}
	return nil
}

// CopyProcedureFrom installs a procedure from its source text (used by the
// MTCache setup flow: the DBA selectively copies procedures to the cache,
// paper §5.2).
func (db *Database) CopyProcedureFrom(text string) error {
	stmt, err := sql.Parse(text)
	if err != nil {
		return err
	}
	cp, ok := stmt.(*sql.CreateProcStmt)
	if !ok {
		return fmt.Errorf("engine: not a CREATE PROCEDURE statement")
	}
	return db.createProc(cp, text)
}
