package engine

import "container/list"

// lru is a bounded least-recently-used map from string keys to V; the
// plan cache (key → *opt.Plan) and the auto-parameterization shape cache
// (normalized text → parsed statement) are both instances. Not
// self-locking: the Database guards each instance with its own mutex.
type lru[V any] struct {
	cap     int
	items   map[string]*list.Element
	order   *list.List       // front = most recently used
	onEvict func(key string) // called for each entry pushed out by put

	// gen counts clears. A caller that computes a value from the catalog
	// outside the lock snapshots gen with its miss and inserts through
	// putIfGen, so a plan optimized against a catalog that InvalidatePlans
	// has since discarded is used once but never cached.
	gen uint64
}

type lruEntry[V any] struct {
	key string
	val V
}

func newLRU[V any](cap int, onEvict func(key string)) *lru[V] {
	return &lru[V]{cap: cap, items: make(map[string]*list.Element), order: list.New(), onEvict: onEvict}
}

func (c *lru[V]) get(key string) (V, bool) {
	return c.touch(c.items[key])
}

// getBytes is get for a key held as bytes: the compiler's
// map[string(bytes)] lookup optimization keeps a hit allocation-free; only
// the insert after a miss materializes the key string.
func (c *lru[V]) getBytes(key []byte) (V, bool) {
	return c.touch(c.items[string(key)])
}

func (c *lru[V]) touch(el *list.Element) (V, bool) {
	if el == nil {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// putIfGen is put unless the cache was cleared since the caller read gen;
// it reports whether the value went in.
func (c *lru[V]) putIfGen(gen uint64, key string, val V) bool {
	if c.gen != gen {
		return false
	}
	c.put(key, val)
	return true
}

// put inserts (or replaces) key, evicting from the cold end beyond cap.
func (c *lru[V]) put(key string, val V) {
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry[V]).val = val
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&lruEntry[V]{key: key, val: val})
	for len(c.items) > c.cap {
		back := c.order.Back()
		c.order.Remove(back)
		victim := back.Value.(*lruEntry[V]).key
		delete(c.items, victim)
		c.onEvict(victim)
	}
}

func (c *lru[V]) clear() {
	c.items = make(map[string]*list.Element)
	c.order.Init()
	c.gen++
}

func (c *lru[V]) len() int { return len(c.items) }
