package storage

import (
	"fmt"
	"testing"

	"mtcache/internal/catalog"
	"mtcache/internal/types"
)

// newPartStore builds a table with a secondary index on cname and n
// committed rows (i, name_i%7).
func newPartStore(t *testing.T, n int64) *Store {
	t.Helper()
	s := NewStore()
	meta := custMeta()
	meta.Indexes = []*catalog.Index{{Name: "ix_name", Table: "customer", Columns: []int{1}}}
	if err := s.CreateTable(meta); err != nil {
		t.Fatal(err)
	}
	tx := s.Begin(true)
	for i := int64(0); i < n; i++ {
		row := types.Row{types.NewInt(i), types.NewString(fmt.Sprintf("name_%03d", i%7))}
		if _, err := tx.Insert("customer", row); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSlotPartitionsCoverDisjointly(t *testing.T) {
	s := newPartStore(t, 103)
	tx := s.Begin(false)
	defer tx.Abort()
	tv := tx.Table("customer")
	for _, n := range []int{1, 2, 3, 4, 8, 16, 1000} {
		parts := tv.SlotPartitions(n)
		if len(parts) == 0 || len(parts) > n {
			t.Fatalf("n=%d: %d partitions", n, len(parts))
		}
		// Contiguous cover of [0, Cap()) with no gaps or overlaps.
		next := 0
		total := 0
		for _, p := range parts {
			if p.Lo != next || p.Hi <= p.Lo {
				t.Fatalf("n=%d: bad range %+v (want lo=%d)", n, p, next)
			}
			next = p.Hi
			cnt := 0
			tv.ScanRange(p.Lo, p.Hi, func(RowID, types.Row) bool { cnt++; return true })
			total += cnt
		}
		if next != tv.Cap() {
			t.Fatalf("n=%d: cover ends at %d, cap %d", n, next, tv.Cap())
		}
		if total != 103 {
			t.Fatalf("n=%d: partitions saw %d rows, want 103", n, total)
		}
	}
}

func TestSlotPartitionsEmptyTable(t *testing.T) {
	s := newCustStore(t)
	tx := s.Begin(false)
	defer tx.Abort()
	if parts := tx.Table("customer").SlotPartitions(4); parts != nil {
		t.Fatalf("empty table partitions: %v", parts)
	}
}

// TestSeparatorKeysPartitionIndex checks the partition property end to end:
// for any worker count, iterating every [sep[i-1], sep[i]) range visits each
// visible index entry exactly once, in the same order as a full Ascend.
func TestSeparatorKeysPartitionIndex(t *testing.T) {
	s := newPartStore(t, 200)
	tx := s.Begin(false)
	defer tx.Abort()
	for _, idxName := range []string{"__pk", "ix_name"} {
		iv := tx.Table("customer").Index(idxName)
		var full []RowID
		iv.Walk(nil, nil, false, func(it Item) bool { full = append(full, it.RID); return true })
		if len(full) != 200 {
			t.Fatalf("%s: full scan saw %d entries", idxName, len(full))
		}
		for _, n := range []int{2, 3, 4, 8} {
			seps := iv.SeparatorKeys(n)
			if len(seps) > n-1 {
				t.Fatalf("%s n=%d: %d separators", idxName, n, len(seps))
			}
			for i := 1; i < len(seps); i++ {
				if types.CompareRows(seps[i-1], seps[i]) >= 0 {
					t.Fatalf("%s n=%d: separators not strictly sorted", idxName, n)
				}
			}
			var got []RowID
			for i := 0; i <= len(seps); i++ {
				var lo, hi types.Row
				if i > 0 {
					lo = seps[i-1]
				}
				if i < len(seps) {
					hi = seps[i]
				}
				iv.AscendPartition(lo, hi, func(it Item) bool { got = append(got, it.RID); return true })
			}
			if len(got) != len(full) {
				t.Fatalf("%s n=%d: partitions saw %d entries, want %d", idxName, n, len(got), len(full))
			}
			for i := range full {
				if got[i] != full[i] {
					t.Fatalf("%s n=%d: entry %d = rid %d, want %d", idxName, n, i, got[i], full[i])
				}
			}
		}
	}
}

// TestAscendPartitionRespectsVisibility: entries committed after the reader's
// snapshot must not appear in any partition.
func TestAscendPartitionRespectsVisibility(t *testing.T) {
	s := newPartStore(t, 50)
	rd := s.Begin(false)
	defer rd.Abort()

	wr := s.Begin(true)
	for i := int64(1000); i < 1010; i++ {
		if _, err := wr.Insert("customer", types.Row{types.NewInt(i), types.NewString("zzz")}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := wr.Commit(); err != nil {
		t.Fatal(err)
	}

	iv := rd.Table("customer").Index("__pk")
	cnt := 0
	iv.AscendPartition(nil, nil, func(Item) bool { cnt++; return true })
	if cnt != 50 {
		t.Fatalf("snapshot partition scan saw %d entries, want 50", cnt)
	}
}

// TestAppendMatchesAgreesWithAscendRange: the allocation-free prefix seek
// returns exactly the rows the callback-based range scan visits, on a tree
// deep enough to have internal nodes, for a non-unique index and the primary
// key, after updates have left stale entries behind.
func TestAppendMatchesAgreesWithAscendRange(t *testing.T) {
	s := newPartStore(t, 5000)
	// Move every third row to a new name: stale entries under the old one.
	wtx := s.Begin(true)
	for i := int64(0); i < 5000; i += 3 {
		rid := wtx.Table("customer").PKLookup(types.Row{types.NewInt(i)})
		if err := wtx.Update("customer", rid, types.Row{types.NewInt(i), types.NewString("moved")}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := wtx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx := s.Begin(false)
	defer tx.Abort()
	tv := tx.Table("customer")
	check := func(index string, key types.Row) int {
		t.Helper()
		iv := tv.Index(index)
		var want []types.Row
		iv.Walk(key, key, false, func(it Item) bool {
			want = append(want, tv.Get(it.RID))
			return true
		})
		got := iv.AppendMatches(nil, key)
		if len(got) != len(want) {
			t.Fatalf("%s %v: %d rows, want %d", index, key, len(got), len(want))
		}
		for i := range want {
			if types.CompareRows(got[i], want[i]) != 0 {
				t.Fatalf("%s %v: row %d = %v, want %v", index, key, i, got[i], want[i])
			}
		}
		return len(got)
	}
	total := check("ix_name", types.Row{types.NewString("moved")})
	for i := 0; i < 8; i++ { // name_007 matches nothing
		total += check("ix_name", types.Row{types.NewString(fmt.Sprintf("name_%03d", i))})
	}
	if total != 5000 {
		t.Errorf("seeks over every name found %d rows, want 5000", total)
	}
	for _, id := range []int64{0, 1, 63, 64, 65, 2499, 4999, 5000, -1} {
		check("__pk", types.Row{types.NewInt(id)})
	}
}
