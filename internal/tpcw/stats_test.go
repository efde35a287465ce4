package tpcw

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"mtcache/internal/catalog"
	"mtcache/internal/core"
	"mtcache/internal/types"
)

// TestTableStatsMatchTheReference: the statistics ANALYZE builds for every
// TPC-W table at the default scale, columns sorted in place, are identical to
// those of the algorithm that sorted a second copy of each column by
// reflection (referenceTableStats), and leave the scanned rows as they were.
func TestTableStatsMatchTheReference(t *testing.T) {
	b := core.NewBackend("backend")
	if err := Load(b, DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	if err := b.DB.Analyze(); err != nil {
		t.Fatal(err)
	}
	tx := b.DB.Store().Begin(false)
	defer tx.Abort()
	tables := 0
	for _, tab := range b.DB.Catalog().Tables() {
		tv, ok := tx.Table(tab.Name)
		if !ok {
			continue
		}
		rows := tv.Rows()
		want := referenceTableStats(tab.ColumnNames(), rows)
		got := catalog.BuildTableStats(tab.ColumnNames(), rows)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the statistics differ from the reference's", tab.Name)
		}
		if !reflect.DeepEqual(rows, tv.Rows()) {
			t.Errorf("%s: building the statistics changed the rows", tab.Name)
		}
		tables++
	}
	if tables < 10 {
		t.Fatalf("compared %d tables", tables)
	}
}

// referenceTableStats is catalog.BuildTableStats as it was before each
// column's values were sorted in place: a copy of them sorted by sort.Slice.
func referenceTableStats(cols []string, rows []types.Row) *catalog.TableStats {
	s := catalog.NewTableStats()
	s.RowCount = int64(len(rows))
	var bytes int64
	for _, r := range rows {
		for _, v := range r {
			if v.K == types.KindString {
				bytes += int64(len(v.Str()) + 4)
			} else {
				bytes += 9
			}
		}
	}
	if len(rows) > 0 {
		s.AvgRowBytes = float64(bytes) / float64(len(rows))
	} else {
		s.AvgRowBytes = 32
	}
	for i, name := range cols {
		vals := make([]types.Value, 0, len(rows))
		nulls := int64(0)
		for _, r := range rows {
			if i >= len(r) || r[i].IsNull() {
				nulls++
				continue
			}
			vals = append(vals, r[i])
		}
		s.Columns[strings.ToLower(name)] = referenceColumnStats(vals, nulls)
	}
	return s
}

func referenceColumnStats(vals []types.Value, nulls int64) *catalog.ColumnStats {
	cs := &catalog.ColumnStats{NullCount: nulls}
	if len(vals) == 0 {
		return cs
	}
	sorted := append([]types.Value(nil), vals...)
	sort.Slice(sorted, func(i, j int) bool { return types.Compare(sorted[i], sorted[j]) < 0 })
	cs.Min, cs.Max = sorted[0], sorted[len(sorted)-1]
	nb := catalog.DefaultHistogramBuckets
	if len(sorted) < nb {
		nb = len(sorted)
	}
	per := len(sorted) / nb
	if per == 0 {
		per = 1
	}
	totalDistinct := int64(0)
	start := 0
	for start < len(sorted) {
		end := start + per
		if end > len(sorted) || len(cs.Buckets) == nb-1 {
			end = len(sorted)
		}
		for end < len(sorted) && types.Equal(sorted[end-1], sorted[end]) {
			end++
		}
		distinct := int64(1)
		for i := start + 1; i < end; i++ {
			if !types.Equal(sorted[i], sorted[i-1]) {
				distinct++
			}
		}
		totalDistinct += distinct
		cs.Buckets = append(cs.Buckets, catalog.Bucket{Hi: sorted[end-1], Count: int64(end - start), Distinct: distinct})
		start = end
	}
	cs.Distinct = totalDistinct
	return cs
}
