package catalog

import (
	"slices"

	"mtcache/internal/types"
)

// DefaultHistogramBuckets is the equi-depth histogram resolution.
const DefaultHistogramBuckets = 32

// Bucket is one equi-depth histogram bucket: rows with value in
// (previous bucket's Hi, Hi].
type Bucket struct {
	Hi       types.Value
	Count    int64
	Distinct int64
}

// ColumnStats summarizes the value distribution of one column.
type ColumnStats struct {
	Distinct  int64
	NullCount int64
	Min, Max  types.Value
	Buckets   []Bucket
}

// TableStats summarizes one table. On an MTCache shadow table, TableStats
// reflects the *backend* table even though the local table is empty —
// without this, local cost-based optimization would be impossible
// (paper §3, "statistics ... reflect the data on the backend server").
type TableStats struct {
	RowCount    int64
	AvgRowBytes float64
	Columns     map[string]*ColumnStats
}

// NewTableStats returns empty stats.
func NewTableStats() *TableStats {
	return &TableStats{Columns: make(map[string]*ColumnStats)}
}

// Clone deep-copies the stats, so a shadow catalog can own its copy.
func (s *TableStats) Clone() *TableStats {
	out := &TableStats{RowCount: s.RowCount, AvgRowBytes: s.AvgRowBytes, Columns: make(map[string]*ColumnStats, len(s.Columns))}
	for name, cs := range s.Columns {
		c := *cs
		c.Buckets = append([]Bucket(nil), cs.Buckets...)
		out.Columns[name] = &c
	}
	return out
}

// BuildTableStats computes statistics from a full table scan. rows holds the
// table's rows; cols the column names in ordinal order.
func BuildTableStats(cols []string, rows []types.Row) *TableStats {
	s := NewTableStats()
	s.RowCount = int64(len(rows))
	var bytes int64
	for _, r := range rows {
		bytes += int64(rowBytes(r))
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
		s.Columns[keyCol(name)] = buildColumnStats(vals, nulls)
	}
	return s
}

func keyCol(name string) string {
	b := make([]byte, len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		b[i] = c
	}
	return string(b)
}

// Col returns stats for the named column, or nil.
func (s *TableStats) Col(name string) *ColumnStats {
	if s == nil {
		return nil
	}
	return s.Columns[keyCol(name)]
}

func rowBytes(r types.Row) int {
	n := 0
	for _, v := range r {
		switch v.K {
		case types.KindString:
			n += len(v.Str()) + 4
		default:
			n += 9
		}
	}
	return n
}

// buildColumnStats summarizes a column from vals, its non-null values in a
// slice of their own, which it sorts in place.
func buildColumnStats(vals []types.Value, nulls int64) *ColumnStats {
	cs := &ColumnStats{NullCount: nulls}
	if len(vals) == 0 {
		return cs
	}
	slices.SortFunc(vals, types.Compare)
	cs.Min, cs.Max = vals[0], vals[len(vals)-1]

	// Equi-depth buckets over the sorted values, counting distincts per bucket.
	nb := DefaultHistogramBuckets
	if len(vals) < nb {
		nb = len(vals)
	}
	per := len(vals) / nb
	if per == 0 {
		per = 1
	}
	totalDistinct := int64(0)
	start := 0
	for start < len(vals) {
		end := start + per
		if end > len(vals) || len(cs.Buckets) == nb-1 {
			end = len(vals)
		}
		// extend to include all duplicates of the boundary value so buckets
		// have distinct Hi values
		for end < len(vals) && types.Equal(vals[end-1], vals[end]) {
			end++
		}
		distinct := int64(1)
		for i := start + 1; i < end; i++ {
			if !types.Equal(vals[i], vals[i-1]) {
				distinct++
			}
		}
		totalDistinct += distinct
		cs.Buckets = append(cs.Buckets, Bucket{
			Hi:       vals[end-1],
			Count:    int64(end - start),
			Distinct: distinct,
		})
		start = end
	}
	cs.Distinct = totalDistinct
	return cs
}

// SelectivityEq estimates the fraction of rows with column = v.
func (cs *ColumnStats) SelectivityEq(v types.Value) float64 {
	if cs == nil || cs.Distinct == 0 {
		return 0.1
	}
	total := cs.total()
	if total == 0 {
		return 0
	}
	// Locate v's bucket and use its local density.
	lo := types.Value{}
	for i, b := range cs.Buckets {
		if types.Compare(v, b.Hi) <= 0 {
			if i > 0 {
				lo = cs.Buckets[i-1].Hi
			}
			_ = lo
			d := b.Distinct
			if d == 0 {
				d = 1
			}
			return float64(b.Count) / float64(d) / float64(total)
		}
	}
	return 0.5 / float64(total) // beyond max: essentially no rows
}

// SelectivityRange estimates the fraction of rows in [lo, hi]; either bound
// may be the zero Value meaning unbounded. loOpen/hiOpen exclude the bound.
func (cs *ColumnStats) SelectivityRange(lo, hi types.Value, loOpen, hiOpen bool) float64 {
	if cs == nil || len(cs.Buckets) == 0 {
		return 0.3
	}
	total := cs.total()
	if total == 0 {
		return 0
	}
	var count float64
	prev := cs.Min
	first := true
	for _, b := range cs.Buckets {
		bLo, bHi := prev, b.Hi
		if first {
			bLo = cs.Min
		}
		count += float64(b.Count) * overlapFraction(bLo, bHi, lo, hi, first)
		prev = b.Hi
		first = false
	}
	sel := count / float64(total)
	if sel < 0 {
		sel = 0
	}
	if sel > 1 {
		sel = 1
	}
	// Open bounds shave off roughly one distinct value's worth.
	if (loOpen || hiOpen) && cs.Distinct > 0 {
		sel -= 1 / float64(cs.Distinct) * 0.5
		if sel < 0 {
			sel = 0
		}
	}
	return sel
}

// overlapFraction estimates what fraction of bucket (bLo, bHi] falls inside
// the query range [lo, hi]. Interpolation is linear for numeric types and
// all-or-nothing for other types.
func overlapFraction(bLo, bHi, lo, hi types.Value, firstBucket bool) float64 {
	// Entirely below lo?
	if !lo.IsNull() && types.Compare(bHi, lo) < 0 {
		return 0
	}
	// Entirely above hi?
	if !hi.IsNull() && types.Compare(bLo, hi) > 0 && !firstBucket {
		return 0
	}
	numeric := bLo.K == types.KindInt || bLo.K == types.KindFloat
	if !numeric {
		// Within range (at least partially): count it if the bucket top is
		// within bounds.
		inLo := lo.IsNull() || types.Compare(bHi, lo) >= 0
		inHi := hi.IsNull() || types.Compare(bLo, hi) <= 0 || firstBucket
		if inLo && inHi {
			return 1
		}
		return 0
	}
	bl, bh := bLo.Float(), bHi.Float()
	width := bh - bl
	effLo, effHi := bl, bh
	if !lo.IsNull() && lo.Float() > effLo {
		effLo = lo.Float()
	}
	if !hi.IsNull() && hi.Float() < effHi {
		effHi = hi.Float()
	}
	if effHi < effLo {
		return 0
	}
	if width <= 0 {
		return 1
	}
	f := (effHi - effLo) / width
	if f > 1 {
		f = 1
	}
	return f
}

func (cs *ColumnStats) total() int64 {
	var n int64
	for _, b := range cs.Buckets {
		n += b.Count
	}
	return n
}

// FractionLE estimates P(column <= v) over non-null values, used by the
// optimizer's dynamic-plan frequency estimate Fl (paper §5.1: parameter
// assumed uniform between the column's min and max).
func (cs *ColumnStats) FractionLE(v types.Value) float64 {
	if cs == nil || cs.Min.IsNull() || cs.Max.IsNull() {
		return 0.5
	}
	if types.Compare(v, cs.Min) < 0 {
		return 0
	}
	if types.Compare(v, cs.Max) >= 0 {
		return 1
	}
	if cs.Min.K == types.KindInt || cs.Min.K == types.KindFloat {
		lo, hi := cs.Min.Float(), cs.Max.Float()
		if hi > lo {
			return (v.Float() - lo) / (hi - lo)
		}
	}
	return cs.SelectivityRange(types.Value{}, v, false, false)
}
