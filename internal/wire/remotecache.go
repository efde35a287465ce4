package wire

import (
	"mtcache/internal/core"
	"mtcache/internal/opt"
)

// The cache server lives in internal/core; a deployed cache is that server
// over one of this package's TCP clients. These four names are kept for the
// callers that spell them.

// RemoteCache is the cache server.
type RemoteCache = core.CacheServer

// BackendClient is the client surface a cache server needs. Both the bare
// *Client and the fault-tolerant *ResilientClient implement it.
type BackendClient = core.BackendClient

// NewRemoteCache provisions a cache over a connected client.
func NewRemoteCache(name string, client BackendClient, options *opt.Options) (*RemoteCache, error) {
	return core.NewCacheOver(name, client, options, "")
}

// NewRemoteCacheDurable is NewRemoteCache plus a data directory the cache
// checkpoints its state to and restarts from.
func NewRemoteCacheDurable(name string, client BackendClient, options *opt.Options, dataDir string) (*RemoteCache, error) {
	return core.NewCacheOver(name, client, options, dataDir)
}
