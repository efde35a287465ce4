package engine

import (
	"fmt"

	"mtcache/internal/catalog"
	"mtcache/internal/exec"
	"mtcache/internal/sql"
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
	return db.callProcedure(proc, params)
}

// bindProcArgs evaluates EXEC arguments (positional or named) into the
// procedure's parameter map. A parameter given twice is refused.
func bindProcArgs(proc *catalog.Procedure, args []sql.ExecArg, outer exec.Params, autoArgs []types.Value) (exec.Params, error) {
	params := make(exec.Params, len(args))
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
		if _, dup := params[target.Name]; dup {
			return nil, fmt.Errorf("engine: parameter @%s of %s is given more than once", target.Name, proc.Name)
		}
		var v types.Value
		switch e := arg.Expr.(type) {
		case *sql.Literal:
			v = e.Val
		case *sql.Param:
			pv, ok := paramValue(e.Name, outer, autoArgs)
			if !ok {
				return nil, fmt.Errorf("engine: missing value for @%s", e.Name)
			}
			v = pv
		default:
			return nil, fmt.Errorf("engine: EXEC argument must be a literal or parameter")
		}
		cast, err := v.Cast(target.Type)
		if err != nil {
			return nil, fmt.Errorf("engine: parameter @%s: %w", name, err)
		}
		params[target.Name] = cast
	}
	return params, nil
}

// CallProcedure calls a stored procedure with its arguments bound by name. It
// is Exec of the call's shape (sql.CallShape) with the values in params, so a
// call made in process enters where a routed one does.
func (db *Database) CallProcedure(name string, params exec.Params) (*Result, error) {
	return db.Exec(sql.CallShape(name, params), params)
}

// callProcedure runs a procedure this database holds. A body that writes runs
// in one write transaction, so multi-statement business operations (order
// placement, cart updates) are atomic and replicate as one transaction; only
// a backend gets here with one, as a cache forwards every call that writes. A
// body that only reads runs statement by statement, each with a record of its
// own from ExecStmt.
func (db *Database) callProcedure(proc *catalog.Procedure, params exec.Params) (*Result, error) {
	res := &Result{}
	if proc.Writes() {
		tx := db.store.Begin(true)
		for _, stmt := range proc.Body {
			switch x := stmt.(type) {
			case *sql.InsertStmt, *sql.UpdateStmt, *sql.DeleteStmt:
				wp, err := db.writePlanOf(db.entryFor(x.(keyed)), x)
				var n int64
				if err == nil {
					n, err = db.runWrite(wp, params, tx)
				}
				if err != nil {
					tx.Abort()
					return nil, fmt.Errorf("engine: %s: %w", proc.Name, err)
				}
				res.RowsAffected += n
			case *sql.SelectStmt:
				plan, err := db.Plan(x)
				if err != nil {
					tx.Abort()
					return nil, err
				}
				r, err := db.runPlanAlone(tx, plan, params)
				if err != nil {
					tx.Abort()
					return nil, err
				}
				res.Cols, res.Rows = r.Cols, r.Rows
				res.Counters.Add(&r.Counters)
			default:
				tx.Abort()
				return nil, fmt.Errorf("engine: unsupported statement in procedure %s", proc.Name)
			}
		}
		lsn, err := tx.Commit()
		if err != nil {
			return nil, err
		}
		for _, stmt := range proc.Body {
			db.invalidateDMLTarget(stmt)
		}
		res.CommitLSN = lsn
		return res, nil
	}

	for _, stmt := range proc.Body {
		r, err := db.ExecStmt(stmt, params)
		if err != nil {
			return nil, fmt.Errorf("engine: %s: %w", proc.Name, err)
		}
		res.RowsAffected += r.RowsAffected
		if r.CommitLSN > res.CommitLSN {
			// A nested EXEC may write; its commit is the session watermark.
			res.CommitLSN = r.CommitLSN
		}
		if len(r.Cols) > 0 {
			res.Cols, res.Rows = r.Cols, r.Rows
		}
		res.Counters.Add(&r.Counters)
	}
	return res, nil
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
	_, err = db.execCreateProc(cp, text)
	return err
}
