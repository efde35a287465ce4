package engine

import (
	"fmt"

	"mtcache/internal/exec"
	"mtcache/internal/storage"
	"mtcache/internal/trace"
)

// Link is an in-process linked-server connection: it lets one Database act
// as the remote executor for another (the cache's backend link). The TCP
// transport in internal/wire implements the same exec.RemoteClient interface
// for cross-process deployments; the engine cannot tell them apart.
type Link struct {
	db *Database
}

// NewLink wraps a database as a linked server.
func NewLink(db *Database) *Link { return &Link{db: db} }

// Query executes SQL text expected to return rows (SELECT or EXEC).
func (l *Link) Query(sqlText string, params exec.Params) (*exec.ResultSet, error) {
	res, err := l.db.Exec(sqlText, params)
	if err != nil {
		return nil, fmt.Errorf("link(%s): %w", l.db.Name, err)
	}
	return &exec.ResultSet{Cols: res.Cols, Rows: res.Rows, CommitLSN: res.CommitLSN}, nil
}

// QueryTraced implements exec.SpanQuerier: the linked database executes under
// the caller's trace ID and its record's span tree is returned for the caller's
// remote span, exactly like the TCP transport does — minus the serialization.
func (l *Link) QueryTraced(sqlText string, params exec.Params, traceID string) (*exec.ResultSet, *trace.WireSpan, error) {
	res, rec, err := l.db.ExecSessionTraced(sqlText, params, 0, 0, traceID)
	if err != nil {
		return nil, nil, fmt.Errorf("link(%s): %w", l.db.Name, err)
	}
	return &exec.ResultSet{Cols: res.Cols, Rows: res.Rows}, rec.Tree(), nil
}

// Exec executes SQL text for its side effects (forwarded DML).
func (l *Link) Exec(sqlText string, params exec.Params) (int64, error) {
	res, err := l.db.Exec(sqlText, params)
	if err != nil {
		return 0, fmt.Errorf("link(%s): %w", l.db.Name, err)
	}
	return res.RowsAffected, nil
}

// ExecLSN implements exec.LSNExecer: forwarded DML additionally reports the
// commit LSN the backend assigned, so sessions can track read-your-writes
// watermarks over in-process links exactly as over the TCP transport.
func (l *Link) ExecLSN(sqlText string, params exec.Params) (int64, storage.LSN, error) {
	res, err := l.db.Exec(sqlText, params)
	if err != nil {
		return 0, 0, fmt.Errorf("link(%s): %w", l.db.Name, err)
	}
	return res.RowsAffected, res.CommitLSN, nil
}
