package core

import (
	"fmt"

	"mtcache/internal/engine"
	"mtcache/internal/exec"
	"mtcache/internal/opt"
	"mtcache/internal/repl"
	"mtcache/internal/sql"
	"mtcache/internal/storage"
)

// BackendClient is everything a cache server needs of its backend: the
// linked-server call that carries every statement (remote queries and
// forwarded writes alike), the shadow setup payload, and the publisher half
// of its pull subscription. The in-process link below, wire.Client and
// wire.ResilientClient implement it.
//
// Provision attaches the article (table, columns, filter) to the
// subscription named subName — one per cache, created on first use — as the
// feed of the cache's view target: resumed at from when from > 0 and the
// backend's log still holds from, with id the ID of its position from-1;
// seeded otherwise. See repl.Server.Provision.
type BackendClient interface {
	exec.RemoteClient
	Snapshot() ([]byte, error)
	Provision(table string, columns []string, filter, subName, target string, id uint64, from storage.LSN) (repl.Attachment, error)
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
func (b *BackendServer) Provision(table string, columns []string, filter, subName, target string, id uint64, from storage.LSN) (repl.Attachment, error) {
	art, err := b.article(table, columns, filter)
	if err != nil {
		return repl.Attachment{}, err
	}
	return b.Repl.Provision(subName, art, target, id, from)
}

// Pull is one subscriber pull (repl.Server.Pull): each After row is an
// allocation of its own, since the in-process subscriber keeps it.
func (b *BackendServer) Pull(subID, max int, ack storage.LSN) ([]repl.TxnBatch, storage.LSN, error) {
	return b.Repl.Pull(subID, max, ack)
}

// link is the in-process BackendClient: statements travel over engine.Link
// and Provision and Pull are the backend's own methods.
type link struct {
	*engine.Link
	*BackendServer
}

func (l link) Snapshot() ([]byte, error) { return l.BackendServer.Snapshot().Encode(), nil }
func (l link) Close() error              { return nil }

// NewCache provisions an in-process cache server against a backend — the
// same server a deployment runs, over a direct link instead of TCP. The
// backend keeps no reference to it: the caller drives its pull agent with
// Pull or StartPulling, as a deployed cache's owner does.
func NewCache(name string, backend *BackendServer, options *opt.Options) (*CacheServer, error) {
	return NewCacheOver(name, link{engine.NewLink(backend.DB), backend}, options, "")
}
