package opt

import (
	"fmt"

	"mtcache/internal/catalog"
	"mtcache/internal/exec"
	"mtcache/internal/storage"
	"mtcache/internal/types"
)

// ChangeMap is a compiled select-project: it carries a row-level change of the
// source relation over to what is derived from it. Maintaining a materialized
// view and filtering the log for a replication article are the same
// computation, so both run this one (paper §3: cached data is a materialized
// view).
type ChangeMap struct {
	pred exec.Expr // nil = every row
	ords []int     // source ordinals of the derived columns
}

// CompileChangeMap compiles sp's filter against its source.
func CompileChangeMap(sp *catalog.SelectProject) (*ChangeMap, error) {
	m := &ChangeMap{ords: sp.Ords}
	if sp.Filter != nil {
		pred, err := CompileScalar(sp.Filter, sp.Source)
		if err != nil {
			return nil, fmt.Errorf("opt: select-project filter over %s: %w", sp.Source.Name, err)
		}
		m.pred = pred
	}
	return m, nil
}

func (m *ChangeMap) project(row types.Row) types.Row {
	out := make(types.Row, len(m.ords))
	for i, ord := range m.ords {
		out[i] = row[ord]
	}
	return out
}

func (m *ChangeMap) matches(row types.Row) (bool, error) {
	if row == nil || m.pred == nil {
		return row != nil, nil
	}
	return exec.EvalBool(m.pred, row, nil)
}

// Map maps one change of the source: rows are filtered and projected, an
// update that moves a row across the filter boundary becomes an insert or a
// delete, and ok is false for a change that stays outside. The result's Table
// is left for the caller, who knows what it feeds.
func (m *ChangeMap) Map(ch storage.ChangeRec) (out storage.ChangeRec, ok bool, err error) {
	oldIn, err := m.matches(ch.Before)
	if err != nil {
		return out, false, err
	}
	newIn, err := m.matches(ch.After)
	if err != nil {
		return out, false, err
	}
	switch {
	case oldIn && newIn:
		return storage.ChangeRec{Op: storage.OpUpdate, Before: m.project(ch.Before), After: m.project(ch.After)}, true, nil
	case oldIn:
		return storage.ChangeRec{Op: storage.OpDelete, Before: m.project(ch.Before)}, true, nil
	case newIn:
		return storage.ChangeRec{Op: storage.OpInsert, After: m.project(ch.After)}, true, nil
	}
	return out, false, nil
}
