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

// QueryTraced is Query under the caller's trace ID: the linked database's
// record's span tree is returned for the caller's remote span, exactly like
// the TCP transport does — minus the serialization.
func (l *Link) QueryTraced(sqlText string, params exec.Params, traceID string) (*exec.ResultSet, *trace.WireSpan, error) {
	res, rec, err := l.db.ExecSessionTraced(sqlText, params, 0, 0, traceID)
	if err != nil {
		return nil, nil, fmt.Errorf("link(%s): %w", l.db.Name, err)
	}
	rs := &exec.ResultSet{Cols: res.Cols, Rows: res.Rows, RowsAffected: res.RowsAffected, CommitLSN: res.CommitLSN}
	if traceID == "" {
		return rs, nil, nil
	}
	return rs, rec.Tree(), nil
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
