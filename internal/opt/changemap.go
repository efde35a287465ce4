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
//
// A derived relation that keeps its source's primary key
// (catalog.SelectProject.PrimaryKey) finds a changed row by that key, as a
// transactional-replication subscriber does, so a mapped update that leaves
// the key as it was carries no Before image (storage.Txn.Apply finds the row
// by the After image's key). Every other mapped change carries the images it
// has, projected alike.
type ChangeMap struct {
	pred exec.Expr // nil = every row
	ords []int     // source ordinals of the derived columns
	key  []int     // source ordinals of the primary key the derived relation keeps; nil: it keeps none
}

// CompileChangeMap compiles sp's filter against its source.
func CompileChangeMap(sp *catalog.SelectProject) (*ChangeMap, error) {
	m := &ChangeMap{ords: sp.Ords}
	if sp.PrimaryKey() != nil {
		m.key = sp.Source.PrimaryKey
	}
	if sp.Filter != nil {
		pred, err := CompileScalar(sp.Filter, sp.Source, nil)
		if err != nil {
			return nil, fmt.Errorf("opt: select-project filter over %s: %w", sp.Source.Name, err)
		}
		m.pred = pred
	}
	return m, nil
}

// Values is the number of values Map makes for ch, a change of the source:
// exact when the filter passes every image ch has, an upper bound when not
// (a change the filter turns into an insert or a delete keeps one image).
func (m *ChangeMap) Values(ch storage.ChangeRec) int {
	images := 0
	if ch.Before != nil && !m.keepsKey(ch) {
		images++
	}
	if ch.After != nil {
		images++
	}
	return images * len(m.ords)
}

// keepsKey reports whether ch is an update of a keyed derived relation that
// leaves the key as it was, which the relation finds by its After image.
func (m *ChangeMap) keepsKey(ch storage.ChangeRec) bool {
	if ch.Op != storage.OpUpdate || m.key == nil {
		return false
	}
	for _, ord := range m.key {
		if !types.Identical(ch.Before[ord], ch.After[ord]) {
			return false
		}
	}
	return true
}

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
// rows are filtered on their full images, an update that moves a row across
// the filter boundary becomes an insert or a delete, and ok is false for a
// change that stays outside. The result carries the source images that stay,
// which for an update that keeps the key is only the After image.
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
	case oldIn && newIn && m.keepsKey(ch):
		return storage.ChangeRec{Op: storage.OpUpdate, After: ch.After}, true, nil
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
// needs room for Values(ch) values, or append moves it to a new array and
// the rows before stay in the old one.
func (m *ChangeMap) AppendMap(vals []types.Value, ch storage.ChangeRec) (storage.ChangeRec, []types.Value, bool, error) {
	out, ok, err := m.classify(ch)
	if ok {
		vals, out.Before = m.appendRow(vals, out.Before)
		vals, out.After = m.appendRow(vals, out.After)
	}
	return out, vals, ok, err
}
