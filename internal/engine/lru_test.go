package engine

import (
	"reflect"
	"testing"
)

// TestLRU drives one script of operations per case through the generic LRU
// and checks what survives and what was evicted (in callback order).
func TestLRU(t *testing.T) {
	type op struct {
		do   string // add, get, getBytes, clear
		key  string
		val  int
		want int  // add/get/getBytes: expected value
		ok   bool // get/getBytes: expected hit
	}
	cases := []struct {
		name    string
		cap     int
		ops     []op
		keys    []string // surviving keys, most recently used first
		evicted []string
	}{
		{
			name: "least recently inserted goes first",
			cap:  2,
			ops:  []op{{do: "add", key: "a", val: 1, want: 1}, {do: "add", key: "b", val: 2, want: 2}, {do: "add", key: "c", val: 3, want: 3}},
			keys: []string{"c", "b"}, evicted: []string{"a"},
		},
		{
			name: "get and getBytes refresh recency",
			cap:  2,
			ops: []op{
				{do: "add", key: "a", val: 1, want: 1}, {do: "add", key: "b", val: 2, want: 2},
				{do: "get", key: "a", want: 1, ok: true},
				{do: "add", key: "c", val: 3, want: 3}, // evicts b, not a
				{do: "getBytes", key: "a", want: 1, ok: true},
				{do: "add", key: "d", val: 4, want: 4}, // evicts c
				{do: "get", key: "b"}, {do: "getBytes", key: "c"},
			},
			keys: []string{"d", "a"}, evicted: []string{"b", "c"},
		},
		{
			name: "add keeps the value it holds, without evicting",
			cap:  2,
			ops: []op{
				{do: "add", key: "a", val: 1, want: 1}, {do: "add", key: "b", val: 2, want: 2},
				{do: "add", key: "a", val: 9, want: 1}, // a concurrent miss ends on the first value
				{do: "get", key: "a", want: 1, ok: true},
			},
			keys: []string{"a", "b"},
		},
		{
			name: "clear empties",
			cap:  4,
			ops: []op{
				{do: "add", key: "a", val: 1, want: 1},
				{do: "clear"},
				{do: "get", key: "a"},
				{do: "add", key: "b", val: 2, want: 2},
				{do: "clear"},
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var evicted []string
			l := newLRU[int](c.cap, func(key string) { evicted = append(evicted, key) })
			for i, o := range c.ops {
				switch o.do {
				case "add":
					if got := l.add(o.key, o.val); got != o.want {
						t.Fatalf("op %d add %q = %d, want %d", i, o.key, got, o.want)
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
		})
	}
}

// TestLRUGetBytesDoesNotAllocate pins the property the auto-parameterization
// hit path is built on.
func TestLRUGetBytesDoesNotAllocate(t *testing.T) {
	l := newLRU[*int](4, func(string) {})
	one := 1
	l.add("SELECT v FROM t WHERE id = @__p0", &one)
	key := []byte("SELECT v FROM t WHERE id = @__p0")
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := l.getBytes(key); !ok {
			t.Fatal("miss")
		}
	}); n != 0 {
		t.Fatalf("getBytes allocates %v times per hit, want 0", n)
	}
}
