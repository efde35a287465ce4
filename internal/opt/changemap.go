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
		pred, err := CompileScalar(sp.Filter, sp.Source, nil)
		if err != nil {
			return nil, fmt.Errorf("opt: select-project filter over %s: %w", sp.Source.Name, err)
		}
		m.pred = pred
	}
	return m, nil
}

// Width is the number of columns of a derived row.
func (m *ChangeMap) Width() int { return len(m.ords) }

// project returns row's derived columns in a row of its own, nil for nil.
func (m *ChangeMap) project(row types.Row) types.Row {
	if row == nil {
		return nil
	}
	_, out := m.appendRow(make([]types.Value, 0, len(m.ords)), row)
	return out
}

// appendRow appends row's derived columns to vals and returns vals and the
// row they make, clipped to its length so that nothing appended later writes
// into it; nil for nil.
func (m *ChangeMap) appendRow(vals []types.Value, row types.Row) ([]types.Value, types.Row) {
	if row == nil {
		return vals, nil
	}
	start := len(vals)
	for _, ord := range m.ords {
		vals = append(vals, row[ord])
	}
	return vals, vals[start:len(vals):len(vals)]
}

func (m *ChangeMap) matches(row types.Row) (bool, error) {
	if row == nil || m.pred == nil {
		return row != nil, nil
	}
	return exec.EvalBool(m.pred, row, nil)
}

// classify returns ch as the derived relation sees it, before projection:
// rows are filtered, an update that moves a row across the filter boundary
// becomes an insert or a delete, and ok is false for a change that stays
// outside. The result carries the source images that stay.
func (m *ChangeMap) classify(ch storage.ChangeRec) (out storage.ChangeRec, ok bool, err error) {
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
		return storage.ChangeRec{Op: storage.OpUpdate, Before: ch.Before, After: ch.After}, true, nil
	case oldIn:
		return storage.ChangeRec{Op: storage.OpDelete, Before: ch.Before}, true, nil
	case newIn:
		return storage.ChangeRec{Op: storage.OpInsert, After: ch.After}, true, nil
	}
	return out, false, nil
}

// Map maps one change of the source: rows are filtered and projected, an
// update that moves a row across the filter boundary becomes an insert or a
// delete, and ok is false for a change that stays outside. Each projected
// row is its own allocation, for a caller that keeps it. The result's Table
// is left for the caller, who knows what it feeds.
func (m *ChangeMap) Map(ch storage.ChangeRec) (storage.ChangeRec, bool, error) {
	out, ok, err := m.classify(ch)
	if ok {
		out.Before, out.After = m.project(out.Before), m.project(out.After)
	}
	return out, ok, err
}

// AppendMap is Map with the projected rows' values appended to vals, which
// it returns: the rows share vals' array, each clipped to its length. vals
// needs room for Width values per image the change keeps, or append moves it
// to a new array and the rows before stay in the old one.
func (m *ChangeMap) AppendMap(vals []types.Value, ch storage.ChangeRec) (storage.ChangeRec, []types.Value, bool, error) {
	out, ok, err := m.classify(ch)
	if ok {
		vals, out.Before = m.appendRow(vals, out.Before)
		vals, out.After = m.appendRow(vals, out.After)
	}
	return out, vals, ok, err
}
