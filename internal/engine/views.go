package engine

import (
	"fmt"

	"mtcache/internal/catalog"
	"mtcache/internal/opt"
	"mtcache/internal/storage"
)

// maintainViews carries one change of a relation, inside the transaction that
// made it, to views — the materialized views defined over the relation
// (Catalog.ViewsOver) — and from each of those to the views over it. It is
// replication run in place: the view's compiled definition maps the change
// (what the log reader does with an article) and the store applies the outcome
// to the view (what a subscriber does with it). Because the writes run in the
// same transaction, the WAL records them under the view's name — which is
// exactly what lets replication articles be defined over materialized views as
// well as tables (paper §2.2: "an article is defined by a select-project
// expression over a table or a materialized view").
func (db *Database) maintainViews(tx *storage.Txn, views []*catalog.Table, ch storage.ChangeRec) error {
	for _, v := range views {
		m, ok := db.viewMaps.Load(v)
		if !ok {
			continue // a cached view or a shadow on a cache: not this database's to maintain
		}
		out, ok, err := m.(*opt.ChangeMap).Map(ch)
		if err != nil {
			return fmt.Errorf("engine: maintaining %s: %w", v.Name, err)
		}
		if !ok {
			continue
		}
		out.Table = v.Name
		if err := tx.Apply(out); err != nil {
			return err
		}
		// A view over v filters on v's whole rows, and out carries no Before
		// image on an update that keeps v's key: it maps the change as v's
		// log record holds it.
		if over := db.cat.ViewsOver(v.Name); len(over) > 0 {
			if err := db.maintainViews(tx, over, tx.LastChange()); err != nil {
				return err
			}
		}
	}
	return nil
}
