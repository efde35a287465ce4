package core

import (
	"errors"
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
// setup payload, and the publisher half of its pull subscriptions. The
// in-process link below, wire.Client and wire.ResilientClient implement it.
type BackendClient interface {
	exec.RemoteClient
	exec.LSNExecer
	Snapshot() ([]byte, error)
	Provision(table string, columns []string, filter, subName string) (int, storage.LSN, []types.Row, error)
	Resume(table string, columns []string, filter, subName string, fromLSN storage.LSN) (int, bool, error)
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

// findSub returns the id of the subscription named name over art, or -1.
// Callers hold b.mu.
func (b *BackendServer) findSub(name string, art *repl.Article) int {
	for i, sub := range b.subs {
		if sub.Name == name && sub.Article == art {
			return i
		}
	}
	return -1
}

// Provision creates an article + pull subscription for a cached view and
// returns the subscription id, the LSN the change stream starts from and the
// initial population. It is idempotent by subscription name — find-or-reset
// under one lock — so a client retrying a provision whose response was lost,
// even racing its slow original, leaves no orphan behind (an undrained queue
// would pin the WAL forever).
func (b *BackendServer) Provision(table string, columns []string, filter, subName string) (int, storage.LSN, []types.Row, error) {
	art, err := b.article(table, columns, filter)
	if err != nil {
		return 0, 0, nil, err
	}
	rows, lsn, err := b.Repl.SnapshotRows(art)
	if err != nil {
		return 0, 0, nil, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	id := b.findSub(subName, art)
	if id >= 0 {
		b.Repl.ResetRemote(b.subs[id], lsn)
	} else {
		b.subs = append(b.subs, b.Repl.SubscribeRemote(art, subName, lsn))
		id = len(b.subs) - 1
	}
	return id, lsn, rows, nil
}

// Resume reattaches a subscriber restarting with durable state: the change
// stream continues from fromLSN (the first LSN it has not applied) with no
// initial population. ok is false — with no error — when the backend cannot
// serve that position anymore and the caller must Provision afresh.
func (b *BackendServer) Resume(table string, columns []string, filter, subName string, fromLSN storage.LSN) (id int, ok bool, err error) {
	art, err := b.article(table, columns, filter)
	if err != nil {
		return 0, false, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	// Fast path: the backend never restarted and still holds this
	// subscription — reattach to it. Its queue retains every batch the
	// subscriber has not acknowledged, so the stream continues seamlessly.
	if id := b.findSub(subName, art); id >= 0 {
		return id, true, nil
	}
	// The backend restarted (or never saw this subscriber): resume is
	// possible only while the WAL still retains fromLSN onward.
	sub, ok := b.Repl.ResumeRemote(art, subName, fromLSN)
	if !ok {
		return 0, false, nil
	}
	b.subs = append(b.subs, sub)
	return len(b.subs) - 1, true, nil
}

// Pull is one subscriber pull: a log-reader pass, then the subscription's
// queue past ack (repl.DrainAfterThrough).
func (b *BackendServer) Pull(subID, max int, ack storage.LSN) ([]repl.TxnBatch, storage.LSN, error) {
	b.mu.Lock()
	if subID < 0 || subID >= len(b.subs) {
		b.mu.Unlock()
		return nil, 0, errors.New("core: unknown subscription")
	}
	sub := b.subs[subID]
	b.mu.Unlock()
	b.Repl.RunLogReader()
	batches, through := b.Repl.DrainAfterThrough(sub, ack, max)
	return batches, through, nil
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
