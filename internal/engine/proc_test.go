package engine

import (
	"strings"
	"testing"
)

// TestProcArgumentGivenTwiceIsRefused: a call that gives one parameter twice,
// by name both times or first by position and then by name, is refused with
// an error naming the parameter — by a backend, by a cache running its copy
// of a procedure that reads, and by the backend for a copied writer the cache
// forwards — and nothing is written. The last value given used to win.
func TestProcArgumentGivenTwiceIsRefused(t *testing.T) {
	backend, cache := newCachePair(t)
	for _, ddl := range []string{
		"CREATE PROCEDURE getBook @i_id INT AS SELECT i_title FROM item WHERE i_id = @i_id",
		"CREATE PROCEDURE setCost @i_id INT, @cost FLOAT AS UPDATE item SET i_cost = @cost WHERE i_id = @i_id",
	} {
		if _, err := backend.Exec(ddl, nil); err != nil {
			t.Fatal(err)
		}
		if err := cache.CopyProcedureFrom(ddl); err != nil {
			t.Fatal(err)
		}
	}
	commits := backend.Store().WAL().End()
	for _, c := range []struct {
		db    *Database
		text  string
		param string
	}{
		{backend, "EXEC getBook @i_id = 1, @i_id = 2", "@i_id"},
		{backend, "EXEC getBook 1, @i_id = 2", "@i_id"},
		{cache, "EXEC getBook @i_id = 1, @i_id = 2", "@i_id"},
		{cache, "EXEC getBook 1, @i_id = 2", "@i_id"},
		{backend, "EXEC setCost 1, @cost = 2.5, @i_id = 2", "@i_id"},
		{cache, "EXEC setCost 1, @cost = 2.5, @i_id = 2", "@i_id"},
		{cache, "EXEC setCost @i_id = 1, @cost = 2.5, @cost = 3.5", "@cost"},
	} {
		res, err := c.db.Exec(c.text, nil)
		if err == nil || !strings.Contains(err.Error(), c.param+" ") || !strings.Contains(err.Error(), "more than once") {
			t.Errorf("%s: %s gave %v, %v; want an error naming %s", c.db.Name, c.text, res, err, c.param)
		}
	}
	if end := backend.Store().WAL().End(); end != commits {
		t.Errorf("refused calls committed %d transactions on the backend", end-commits)
	}
}
