package engine

import (
	"fmt"

	"mtcache/internal/catalog"
	"mtcache/internal/exec"
	"mtcache/internal/sql"
	"mtcache/internal/trace"
	"mtcache/internal/types"
)

// execProcCall runs EXEC proc. If the procedure exists locally it runs here
// (its queries may still be computed remotely, decided per statement by the
// optimizer); otherwise the call is transparently forwarded to the backend
// (paper §5.2). "A stored procedure can be run locally even when some of the
// data it requires is not available locally." autoArgs are the literals the
// front door extracted from the call's text, bound to its @__pN arguments.
func (db *Database) execProcCall(x *sql.ExecStmt, outer exec.Params, autoArgs []types.Value, rec *trace.Record) (*Result, error) {
	proc := db.cat.Procedure(x.Proc)
	if proc == nil {
		if db.role == Cache && db.remote != nil {
			// The call goes on as it came: its shape, with the arguments and
			// any extracted literals in the one named-parameter map, which the
			// backend's front door resolves without parsing.
			return db.forward(x.Text(), withAutoArgs(outer, autoArgs), rec)
		}
		return nil, fmt.Errorf("engine: procedure %s does not exist", x.Proc)
	}
	params, err := bindProcArgs(proc, x.Args, outer, autoArgs)
	if err != nil {
		return nil, err
	}
	return db.callProcedure(proc, params, rec)
}

// bindProcArgs evaluates EXEC arguments (positional or named) into the
// procedure's parameter map.
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

// CallProcedure executes a stored procedure with pre-bound parameters.
// The whole body runs in a single transaction when it contains any DML, so
// multi-statement business operations (order placement, cart updates) are
// atomic — and replicate as one transaction.
func (db *Database) CallProcedure(name string, params exec.Params) (*Result, error) {
	var unkept trace.Record // a direct call is not a statement: nothing asks where it ran
	proc := db.cat.Procedure(name)
	if proc != nil {
		return db.callProcedure(proc, params, &unkept)
	}
	if db.role == Cache && db.remote != nil {
		return db.forward(sql.CallShape(name, params), params, &unkept)
	}
	return nil, fmt.Errorf("engine: procedure %s does not exist", name)
}

// callProcedure runs a procedure this database holds; a body that runs here
// gets a record per statement from ExecStmt.
func (db *Database) callProcedure(proc *catalog.Procedure, params exec.Params, rec *trace.Record) (*Result, error) {
	hasDML := false
	for _, stmt := range proc.Body {
		switch stmt.(type) {
		case *sql.InsertStmt, *sql.UpdateStmt, *sql.DeleteStmt:
			hasDML = true
		}
	}
	// A cache forwards the whole call for a copied procedure that writes in
	// more than one statement: the call is one backend transaction there,
	// which statements forwarded one by one are not. (A body that is exactly
	// one DML statement is atomic either way and keeps forwarding that
	// statement.)
	if hasDML && len(proc.Body) > 1 && db.role == Cache {
		return db.forward(sql.CallShape(proc.Name, params), params, rec)
	}

	res := &Result{}
	// Only run a local write transaction when this server owns the data.
	if hasDML && db.role == Backend {
		tx := db.store.Begin(true)
		for _, stmt := range proc.Body {
			switch x := stmt.(type) {
			case *sql.InsertStmt, *sql.UpdateStmt, *sql.DeleteStmt:
				n, err := db.execDMLInTxn(stmt, params, tx)
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
			// A cache-local procedure forwards its one DML statement; that
			// backend commit is the session watermark.
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
