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

// Query executes one statement on the linked database: a query, a write or a
// call.
func (l *Link) Query(sqlText string, params exec.Params) (*exec.ResultSet, error) {
	rs, _, err := l.QueryTraced(sqlText, params, "")
	return rs, err
}

// QueryTraced is Query under the caller's trace ID, as trace.FormatID renders
// it ("" for none: the linked database mints its own), which the linked
// database keeps its record under, exactly as the TCP transport does. The
// span is always nil (see exec.RemoteClient). A traceID that does not parse
// is refused.
func (l *Link) QueryTraced(sqlText string, params exec.Params, traceID string) (*exec.ResultSet, *trace.WireSpan, error) {
	id, err := trace.ParseID(traceID)
	if err != nil {
		return nil, nil, fmt.Errorf("link(%s): %w", l.db.Name, err)
	}
	res, rec, err := l.db.ExecSessionTraced(sqlText, params, 0, 0, id)
	rec.Release()
	if err != nil {
		return nil, nil, fmt.Errorf("link(%s): %w", l.db.Name, err)
	}
	return &exec.ResultSet{Cols: res.Cols, Rows: res.Rows, RowsAffected: res.RowsAffected, CommitLSN: res.CommitLSN}, nil, nil
}

// ExecLSN is Query's row count and commit LSN. It stays only for the fleet
// benchmark's counting link; the benchmark change that counts backend
// requests where they arrive (ROADMAP direction 2) deletes it.
func (l *Link) ExecLSN(sqlText string, params exec.Params) (int64, storage.LSN, error) {
	rs, err := l.Query(sqlText, params)
	if err != nil {
		return 0, 0, err
	}
	return rs.RowsAffected, rs.CommitLSN, nil
}
