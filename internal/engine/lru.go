package engine

import "container/list"

// lru is a bounded least-recently-used map from string keys to V; the plan
// cache (SQL text → *planEntry: a SELECT's plan, or an INSERT, UPDATE or
// DELETE's write plan) is its one instance. Not self-locking: the
// Database guards it with plansMu.
type lru[V any] struct {
	cap     int
	items   map[string]*list.Element
	order   *list.List       // front = most recently used
	onEvict func(key string) // called for each entry pushed out by add
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

// add is get-or-insert: it inserts val unless key is already present, and
// returns the value the cache holds under key, evicting from the cold end
// beyond cap. Two callers that missed on one key concurrently end on one
// value.
func (c *lru[V]) add(key string, val V) V {
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*lruEntry[V]).val
	}
	c.items[key] = c.order.PushFront(&lruEntry[V]{key: key, val: val})
	for len(c.items) > c.cap {
		back := c.order.Back()
		c.order.Remove(back)
		victim := back.Value.(*lruEntry[V]).key
		delete(c.items, victim)
		c.onEvict(victim)
	}
	return val
}

func (c *lru[V]) clear() {
	c.items = make(map[string]*list.Element)
	c.order.Init()
}

func (c *lru[V]) len() int { return len(c.items) }

// each calls fn with every value, most recently used first.
func (c *lru[V]) each(fn func(V)) {
	for el := c.order.Front(); el != nil; el = el.Next() {
		fn(el.Value.(*lruEntry[V]).val)
	}
}
