package exec

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"mtcache/internal/types"
)

// KeepVals and KeepStrs bound, with KeepRows, what recycled answer storage
// keeps: an Answer or a Slab holding more values, or an Answer more string
// bytes, drops the array on Reset, so what the pools hold per answer stays
// small whatever an occasional statement returns.
const (
	KeepVals = 8 * KeepRows
	KeepStrs = 16 << 10
)

// Answer is the storage one answer's rows live in: the row headers, the
// value array behind them and the bytes behind their string values. A wire
// client decodes an answer into the Answer of whoever keeps its rows — a
// routed engine.Result's own, or the Store of a ResultSet taken from the
// pool (NewResultSet) — and runPlan fills an engine.Result's row headers.
// The holder may Reset it for the next answer once nothing reads a row cut
// from it, nor a string of one.
//
// It holds each array by its address and capacity alone, 40 bytes where
// three slices take 72: an engine.Result carries one, and a Result nobody
// releases (a front-hop answer the fleet benchmark keeps) costs no more
// bytes than when it carried a row and a value slice.
type Answer struct {
	rows                *types.Row
	vals                *types.Value
	strs                *byte
	nrows, nvals, nstrs uint32
}

// Reserve returns a's arrays for an answer of rows rows, vals values and
// strBytes bytes of strings: row headers and values of those lengths, their
// elements stale, and the string bytes emptied with room for strBytes. Each
// is a's when it is long enough and a new one, a's from now on, when not.
// The first answer decoded into a gets arrays exactly as long as it needs,
// whatever row headers a server's execution left in a (Hold), so a Result
// its caller keeps costs only its answer. Once a has held a decoded answer,
// a replacement is as long as the longest answer recycled storage has held
// (the high-water marks), so a reaches its working size in one step rather
// than one answer size at a time. An answer longer than KeepRows, KeepVals
// or KeepStrs gets an exact array of that kind and leaves the mark where it
// is. The value array is never nil, so a row cut from it is not either, even
// one with no values.
func (a *Answer) Reserve(rows, vals, strBytes int) ([]types.Row, []types.Value, []byte) {
	first := a.vals == nil // only Reserve sets it
	if n, ok := rowMark.size(rows, int(a.nrows), first); ok {
		a.rows, a.nrows = unsafe.SliceData(make([]types.Row, n)), uint32(n)
	}
	if n, ok := valMark.size(vals, int(a.nvals), first); ok || first {
		a.vals, a.nvals = unsafe.SliceData(make([]types.Value, n)), uint32(n)
	}
	if n, ok := strMark.size(strBytes, int(a.nstrs), first); ok {
		a.strs, a.nstrs = unsafe.SliceData(make([]byte, n)), uint32(n)
	}
	return unsafe.Slice(a.rows, a.nrows)[:rows], unsafe.Slice(a.vals, a.nvals)[:vals], unsafe.Slice(a.strs, a.nstrs)[:0]
}

// highWater is the high-water mark of one kind of recycled answer array: the
// longest answer, within bound, that any Answer has held, process-wide.
type highWater struct {
	mark  atomic.Uint32
	bound int
}

var (
	rowMark = highWater{bound: KeepRows}
	valMark = highWater{bound: KeepVals}
	strMark = highWater{bound: KeepStrs}
)

// size raises the mark to need, an answer's length, unless need is past the
// bound, and reports whether an array of have elements is too short for it
// and, if so, how long its replacement is: need when it is past the bound or
// the answer is the Answer's first (first), else the larger of need and the
// mark.
func (h *highWater) size(need, have int, first bool) (int, bool) {
	if need > h.bound {
		return need, have < need
	}
	m := h.mark.Load()
	for uint32(need) > m && !h.mark.CompareAndSwap(m, uint32(need)) {
		m = h.mark.Load()
	}
	if have >= need {
		return 0, false
	}
	if first {
		return need, true
	}
	return max(need, int(m)), true
}

// Rows returns the row headers a holds, emptied, for runPlan to fill.
func (a *Answer) Rows() []types.Row { return unsafe.Slice(a.rows, a.nrows)[:0] }

// Hold makes rows the row headers a holds: the slice runPlan filled, which
// may have outgrown the one Rows returned.
func (a *Answer) Hold(rows []types.Row) { a.rows, a.nrows = unsafe.SliceData(rows), uint32(cap(rows)) }

// Reset readies a for the next answer once nothing reads the last one: it
// zeroes the row headers and the values, so a parked Answer pins nothing
// through them, and drops an array longer than KeepRows, KeepVals or
// KeepStrs.
func (a *Answer) Reset() {
	if a.nrows > KeepRows {
		a.rows, a.nrows = nil, 0
	}
	if a.nvals > KeepVals {
		a.vals, a.nvals = nil, 0
	}
	if a.nstrs > KeepStrs {
		a.strs, a.nstrs = nil, 0
	}
	clear(unsafe.Slice(a.rows, a.nrows))
	clear(unsafe.Slice(a.vals, a.nvals))
}

// resultSets holds the ResultSets of released remote answers, each with the
// storage (Store) its last answer was decoded into.
var resultSets = sync.Pool{New: func() any { return &ResultSet{pooled: true} }}

// NewResultSet takes a ResultSet from the pool, with the storage a released
// one kept: what a wire client decodes a remote answer into. Whoever keeps
// its rows adopts it — a Remote hands it to its execution's Slab, a
// forwarding cache to its Result's — and it goes back to the pool when that
// holder is released. One nobody adopts is collected as usual.
func NewResultSet() *ResultSet { return resultSets.Get().(*ResultSet) }

// Recycle hands rs back to the pool, its storage reset, once nothing reads
// its rows; a ResultSet that did not come from NewResultSet is left alone.
func (rs *ResultSet) Recycle() {
	if !rs.pooled {
		return
	}
	rs.Store.Reset()
	*rs = ResultSet{Store: rs.Store, pooled: true}
	resultSets.Put(rs)
}
