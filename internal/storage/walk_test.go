package storage

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"mtcache/internal/catalog"
	"mtcache/internal/types"
)

// walkStore is a two-column table (id INT PRIMARY KEY, k INT) with an index
// on (k, id), churned so that its index holds what a production index holds:
// NULL keys, duplicate keys, entries left behind under old keys by updates,
// and entries of deleted rows.
func walkStore(t *testing.T, rng *rand.Rand, n int) (*Store, *Txn) {
	t.Helper()
	s := NewStore()
	meta := &catalog.Table{
		Name:       "w",
		Columns:    []catalog.Column{{Name: "id", Type: types.KindInt, NotNull: true}, {Name: "k", Type: types.KindInt}},
		PrimaryKey: []int{0},
		Indexes:    []*catalog.Index{{Name: "ix_k", Table: "w", Columns: []int{1, 0}}},
	}
	if err := s.CreateTable(meta); err != nil {
		t.Fatal(err)
	}
	key := func() types.Value {
		if rng.Intn(6) == 0 {
			return types.Null
		}
		return types.NewInt(int64(rng.Intn(12)))
	}
	commit := func(tx *Txn) {
		t.Helper()
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	tx := s.Begin(true)
	for i := 0; i < n; i++ {
		if _, err := tx.Insert("w", types.Row{types.NewInt(int64(i)), key()}); err != nil {
			t.Fatal(err)
		}
	}
	commit(tx)
	old := s.Begin(false) // a snapshot older than everything below
	for round := 0; round < 3; round++ {
		tx = s.Begin(true)
		tv := tx.Table("w")
		for i := 0; i < n; i++ {
			rid := tv.PKLookup(types.Row{types.NewInt(int64(i))})
			if rid < 0 {
				continue
			}
			switch rng.Intn(5) {
			case 0:
				if err := tx.Delete("w", rid); err != nil {
					t.Fatal(err)
				}
			case 1, 2:
				if err := tx.Update("w", rid, types.Row{types.NewInt(int64(i)), key()}); err != nil {
					t.Fatal(err)
				}
			}
		}
		commit(tx)
	}
	return s, old
}

// bruteWalk is Walk computed from a heap scan.
func bruteWalk(tv *TableView, lo, hi types.Row, desc bool) []string {
	type entry struct {
		key types.Row
		rid RowID
	}
	var all []entry
	tv.Scan(func(rid RowID, row types.Row) bool {
		k := types.Row{row[1], row[0]}
		if (lo == nil || prefixCmp(k, lo) >= 0) && (hi == nil || prefixCmp(k, hi) <= 0) {
			all = append(all, entry{k, rid})
		}
		return true
	})
	sort.Slice(all, func(i, j int) bool {
		c := cmpItem(Item{Key: all[i].key, RID: all[i].rid}, Item{Key: all[j].key, RID: all[j].rid})
		if desc {
			return c > 0
		}
		return c < 0
	})
	out := make([]string, len(all))
	for i, e := range all {
		out[i] = fmt.Sprint(e.key, e.rid)
	}
	return out
}

// TestWalkMatchesHeapScan: in both directions, under every combination of
// open and closed prefix bounds, Walk yields exactly the visible rows a heap
// scan finds, in key order — from a current snapshot, from one older than
// every update, and from inside a transaction with uncommitted writes.
func TestWalkMatchesHeapScan(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := []int{0, 1, 40, 300, 5000}[seed-1] // 5000 rows churned: more than 64×64 entries, three levels of nodes
		s, old := walkStore(t, rng, n)
		writer := s.Begin(true)
		for i := 0; i < 10; i++ {
			if _, err := writer.Insert("w", types.Row{types.NewInt(int64(n + i)), types.NewInt(int64(rng.Intn(14)))}); err != nil {
				t.Fatal(err)
			}
		}
		if rid := writer.Table("w").PKLookup(types.Row{types.NewInt(0)}); rid >= 0 {
			if err := writer.Update("w", rid, types.Row{types.NewInt(0), types.NewInt(13)}); err != nil {
				t.Fatal(err)
			}
		}
		now := s.Begin(false)
		bound := func() types.Row {
			switch rng.Intn(4) {
			case 0:
				return nil
			case 1:
				return types.Row{types.NewInt(int64(rng.Intn(14))), types.NewInt(int64(rng.Intn(n + 1)))}
			}
			return types.Row{types.NewInt(int64(rng.Intn(14) - 1))}
		}
		for name, tx := range map[string]*Txn{"old": old, "now": now, "writer": writer} {
			tv := tx.Table("w")
			for trial := 0; trial < 40; trial++ {
				lo, hi, desc := bound(), bound(), trial%2 == 0
				if trial < 2 {
					lo, hi = nil, nil
				}
				var got []string
				tv.Index("ix_k").Walk(lo, hi, desc, func(it Item) bool {
					got = append(got, fmt.Sprint(it.Key, it.RID))
					return true
				})
				want := bruteWalk(tv, lo, hi, desc)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("seed %d %s: Walk(%v, %v, desc=%v) visits %d entries, a heap scan finds %d\n got %v\nwant %v",
						seed, name, lo, hi, desc, len(got), len(want), got, want)
				}
				// Stopping early stops: the first entry is the endpoint.
				if len(want) > 0 {
					var first []string
					tv.Index("ix_k").Walk(lo, hi, desc, func(it Item) bool {
						first = append(first, fmt.Sprint(it.Key, it.RID))
						return false
					})
					if len(first) != 1 || first[0] != want[0] {
						t.Fatalf("seed %d %s: endpoint of Walk(%v, %v, desc=%v) is %v, want %v", seed, name, lo, hi, desc, first, want[0])
					}
				}
			}
		}
		old.Abort()
		now.Abort()
		writer.Abort()
	}
}
