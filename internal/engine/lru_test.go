package engine

import (
	"reflect"
	"testing"
)

// TestLRU drives one script of operations per case through the generic LRU
// and checks what survives, what was evicted (in callback order) and the
// generation.
func TestLRU(t *testing.T) {
	type op struct {
		do   string // put, get, getBytes, stalePut, clear
		key  string
		val  int
		want int  // get/getBytes: expected value
		ok   bool // get/getBytes: expected hit; put/stalePut: expected insert
	}
	cases := []struct {
		name    string
		cap     int
		ops     []op
		keys    []string // surviving keys, most recently used first
		evicted []string
		gen     uint64
	}{
		{
			name: "least recently inserted goes first",
			cap:  2,
			ops:  []op{{do: "put", key: "a", val: 1, ok: true}, {do: "put", key: "b", val: 2, ok: true}, {do: "put", key: "c", val: 3, ok: true}},
			keys: []string{"c", "b"}, evicted: []string{"a"},
		},
		{
			name: "get and getBytes refresh recency",
			cap:  2,
			ops: []op{
				{do: "put", key: "a", val: 1, ok: true}, {do: "put", key: "b", val: 2, ok: true},
				{do: "get", key: "a", want: 1, ok: true},
				{do: "put", key: "c", val: 3, ok: true}, // evicts b, not a
				{do: "getBytes", key: "a", want: 1, ok: true},
				{do: "put", key: "d", val: 4, ok: true}, // evicts c
				{do: "get", key: "b"}, {do: "getBytes", key: "c"},
			},
			keys: []string{"d", "a"}, evicted: []string{"b", "c"},
		},
		{
			name: "put replaces in place without evicting",
			cap:  2,
			ops: []op{
				{do: "put", key: "a", val: 1, ok: true}, {do: "put", key: "b", val: 2, ok: true},
				{do: "put", key: "a", val: 9, ok: true},
				{do: "get", key: "a", want: 9, ok: true},
			},
			keys: []string{"a", "b"},
		},
		{
			name: "clear empties, bumps the generation and refuses stale inserts",
			cap:  4,
			ops: []op{
				{do: "put", key: "a", val: 1, ok: true},
				{do: "clear"},
				{do: "get", key: "a"},
				{do: "stalePut", key: "a", val: 1}, // computed against generation 0
				{do: "put", key: "b", val: 2, ok: true},
				{do: "clear"},
			},
			gen: 2,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var evicted []string
			l := newLRU[int](c.cap, func(key string) { evicted = append(evicted, key) })
			staleGen := l.gen
			for i, o := range c.ops {
				switch o.do {
				case "put", "stalePut":
					gen := l.gen
					if o.do == "stalePut" {
						gen = staleGen
					}
					if got := l.putIfGen(gen, o.key, o.val); got != o.ok {
						t.Fatalf("op %d %s %q: inserted = %v, want %v", i, o.do, o.key, got, o.ok)
					}
				case "get", "getBytes":
					got, ok := l.get(o.key)
					if o.do == "getBytes" {
						got, ok = l.getBytes([]byte(o.key))
					}
					if ok != o.ok || got != o.want {
						t.Fatalf("op %d %s %q = %d, %v; want %d, %v", i, o.do, o.key, got, ok, o.want, o.ok)
					}
				case "clear":
					l.clear()
				}
			}
			var keys []string
			for el := l.order.Front(); el != nil; el = el.Next() {
				keys = append(keys, el.Value.(*lruEntry[int]).key)
			}
			if !reflect.DeepEqual(keys, c.keys) || l.len() != len(c.keys) {
				t.Errorf("surviving keys %v (len %d), want %v", keys, l.len(), c.keys)
			}
			if !reflect.DeepEqual(evicted, c.evicted) {
				t.Errorf("evicted %v, want %v", evicted, c.evicted)
			}
			if l.gen != c.gen {
				t.Errorf("generation %d, want %d", l.gen, c.gen)
			}
		})
	}
}

// TestLRUGetBytesDoesNotAllocate pins the property the auto-parameterization
// hit path is built on.
func TestLRUGetBytesDoesNotAllocate(t *testing.T) {
	l := newLRU[*int](4, func(string) {})
	one := 1
	l.putIfGen(l.gen, "SELECT v FROM t WHERE id = @__p0", &one)
	key := []byte("SELECT v FROM t WHERE id = @__p0")
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := l.getBytes(key); !ok {
			t.Fatal("miss")
		}
	}); n != 0 {
		t.Fatalf("getBytes allocates %v times per hit, want 0", n)
	}
}
