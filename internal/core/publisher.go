package core

import (
	"fmt"
	"time"

	"mtcache/internal/engine"
	"mtcache/internal/exec"
	"mtcache/internal/opt"
	"mtcache/internal/repl"
	"mtcache/internal/sql"
	"mtcache/internal/storage"
	"mtcache/internal/types"
)

// BackendClient is everything a cache server needs of its backend: the
// linked-server calls for remote queries and forwarded updates, the shadow
// setup payload, and the publisher half of its pull subscription. The
// in-process link below, wire.Client and wire.ResilientClient implement it.
//
// Provision and Resume attach the article (table, columns, filter) to the
// subscription named subName — one per cache, created on first use — as the
// feed of the cache's view target; both answer the subscription's id. See
// repl.Server.Provision and Resume.
type BackendClient interface {
	exec.RemoteClient
	exec.LSNExecer
	Snapshot() ([]byte, error)
	Provision(table string, columns []string, filter, subName, target string) (int, storage.LSN, []types.Row, error)
	Resume(table string, columns []string, filter, subName, target string, fromLSN storage.LSN) (int, bool, error)
	Pull(subID, max int, ack storage.LSN) ([]repl.TxnBatch, storage.LSN, error)
	Close() error
}

// article finds or creates the article for (table, columns, filter); filter
// is a deparsed predicate, "" for none.
func (b *BackendServer) article(table string, columns []string, filter string) (*repl.Article, error) {
	var pred sql.Expr
	if filter != "" {
		var err error
		if pred, err = sql.ParseExpr(filter); err != nil {
			return nil, fmt.Errorf("core: bad filter: %v", err)
		}
	}
	return b.Repl.EnsureArticle(table, columns, pred)
}

// Provision is BackendClient.Provision as the backend answers it.
func (b *BackendServer) Provision(table string, columns []string, filter, subName, target string) (int, storage.LSN, []types.Row, error) {
	art, err := b.article(table, columns, filter)
	if err != nil {
		return 0, 0, nil, err
	}
	return b.Repl.Provision(subName, art, target)
}

// Resume is BackendClient.Resume as the backend answers it. ok is false —
// with no error — when the backend cannot serve fromLSN anymore and the
// caller must Provision afresh.
func (b *BackendServer) Resume(table string, columns []string, filter, subName, target string, fromLSN storage.LSN) (id int, ok bool, err error) {
	art, err := b.article(table, columns, filter)
	if err != nil {
		return 0, false, err
	}
	id, ok = b.Repl.Resume(subName, art, target, fromLSN)
	return id, ok, nil
}

// Pull is one subscriber pull (repl.Server.Pull).
func (b *BackendServer) Pull(subID, max int, ack storage.LSN) ([]repl.TxnBatch, storage.LSN, error) {
	return b.Repl.Pull(subID, max, ack)
}

// link is the in-process BackendClient: statements travel over engine.Link
// and Provision, Resume and Pull are the backend's own methods.
type link struct {
	*engine.Link
	*BackendServer
}

func (l link) Exec(sqlText string, params exec.Params) (int64, error) {
	return l.Link.Exec(sqlText, params)
}
func (l link) Snapshot() ([]byte, error) { return l.BackendServer.Snapshot().Encode() }
func (l link) Close() error              { return nil }

// NewCache provisions an in-process cache server against a backend — the
// same server a deployment runs, over a direct link instead of TCP. The
// backend remembers it, so SyncReplication and the next StartReplication
// drive its pull agent.
func NewCache(name string, backend *BackendServer, options *opt.Options) (*CacheServer, error) {
	c, err := NewCacheOver(name, link{engine.NewLink(backend.DB), backend}, options, "")
	if err != nil {
		return nil, err
	}
	backend.mu.Lock()
	backend.caches = append(backend.caches, c)
	backend.mu.Unlock()
	return c, nil
}

// inProcessCaches returns the caches NewCache has built so far (append-only).
func (b *BackendServer) inProcessCaches() []*CacheServer {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.caches
}

// StartReplication launches the replication agents: the backend's log reader
// and the pull agent of every in-process cache.
func (b *BackendServer) StartReplication(readerInterval, distInterval time.Duration) {
	b.Repl.Start(readerInterval)
	for _, c := range b.inProcessCaches() {
		c.StartPulling(distInterval)
	}
}

// StopReplication halts the agents.
func (b *BackendServer) StopReplication() {
	for _, c := range b.inProcessCaches() {
		c.StopPulling()
	}
	b.Repl.Stop()
}

// SyncReplication performs one synchronous propagation round (deterministic
// alternative to the background agents): a log-reader pass, then one pull
// round on every in-process cache.
func (b *BackendServer) SyncReplication() error {
	b.Repl.RunLogReader()
	var firstErr error
	for _, c := range b.inProcessCaches() {
		if _, err := c.Pull(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
