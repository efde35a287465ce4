package mtcache

// There is one cache server: the in-process Cache and the deployed
// RemoteCache are the same type over different BackendClients, so
// ConnectCache, ServeCache and every method work on both.
var _ *Cache = (*RemoteCache)(nil)
