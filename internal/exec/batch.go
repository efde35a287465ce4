package exec

import (
	"mtcache/internal/types"
)

// BatchSize is the row count operators aim for per batch. 64 rows amortizes
// the per-call virtual dispatch and bounds checks across the tree while
// keeping a batch comfortably inside the L1/L2 working set; it matches the
// chunk size Exchange already uses on its worker channels.
const BatchSize = 64

// Batch is a reusable window of rows flowing between operators. Only the
// Rows slice header is reused between calls — by default the row values
// themselves are stable (MVCC snapshot rows from storage, or arena rows
// owned by the producing operator), so consumers may retain them.
//
// A consumer that copies out everything it keeps before its next pull —
// aggregation cloning group keys, a join probe emitting concatenated
// copies, a projection evaluating into its own rows — sets Ephemeral before
// calling BatchNext. That releases the producer from the durability
// guarantee: it may overwrite the delivered rows on the following BatchNext
// call. Every operator that materializes its output honours the flag the same
// way: Project, HashJoin, IndexJoin and NestedLoop carve their rows from a
// rowArena and rewind it (rowArena.recycle) instead of growing a fresh chunk
// per batch, so a join under an aggregate re-uses one chunk for its whole
// run. Operators that merely pass rows through (Filter, Limit, UnionAll)
// propagate the flag; operators that retain input rows (Sort, TopN, Distinct,
// hash-join and nested-loop builds, Exchange workers, Run itself) leave it
// unset on the batches they own and see rows that are never touched again.
// The contract is checked in both directions by the poison and hoard
// wrappers in ephemeral_test.go.
type Batch struct {
	Rows      []types.Row
	Ephemeral bool
}

// sliceBatch advances a cursor over fully materialized rows, handing out
// BatchSize windows without copying.
func sliceBatch(rows []types.Row, pos *int, b *Batch) {
	n := len(rows) - *pos
	if n > BatchSize {
		n = BatchSize
	}
	if n <= 0 {
		b.Rows = b.Rows[:0]
		return
	}
	b.Rows = append(b.Rows[:0], rows[*pos:*pos+n]...)
	*pos += n
}

// rowArena carves fixed-width output rows out of batch-sized chunks,
// replacing a make per row with one make per batch. Callers hint the coming
// batch's total width so chunks are sized to real demand — a point query
// allocates exactly its one row, a full scan batch one 64-row chunk — and
// live result rows never pin more than one batch of slack. The full-capacity
// reslice (buf[:n:n]) makes appending to an emitted row impossible to alias
// into a neighbour.
//
// For a durable consumer a chunk is never reused or freed early — every row
// handed out owns its slice for the life of the result — so rows emitted from
// an arena are exactly as durable as individually allocated ones. For an
// Ephemeral consumer the owning operator calls recycle at the top of each
// BatchNext, and the rows of the previous call become the storage of this
// one. A recycled row holds stale values: alloc's caller writes every column.
type rowArena struct {
	buf   []types.Value // unused tail of the current chunk
	chunk int           // refill granularity, set by hint

	eph   bool          // the call in progress was pulled Ephemeral
	mark  []types.Value // where this call's rows begin: buf at recycle, or the chunk started since
	used  int           // values handed out by this call
	floor int           // least size of a new chunk: what one Ephemeral call has needed
}

// hint sets the refill size for the coming batch (total values expected).
func (a *rowArena) hint(n int) { a.chunk = n }

// recycle starts one BatchNext call of the owning operator; ephemeral is the
// flag on the batch being filled. When this call and the previous one are
// both Ephemeral the rows handed out in between are dead, and the arena
// rewinds to where they began. If they spilled past that chunk it is dropped
// instead and the next chunk is as large as the whole call was, so a fan-out
// join settles on one chunk. A durable call rewinds nothing and what it
// hands out is never rewound over, whatever the flags of later calls.
func (a *rowArena) recycle(ephemeral bool) {
	if a.eph && ephemeral {
		if a.used <= len(a.mark) {
			a.buf = a.mark
		} else {
			a.buf, a.floor = nil, a.used
		}
	}
	a.eph, a.mark, a.used = ephemeral, a.buf, 0
}

func (a *rowArena) alloc(n int) types.Row {
	if n == 0 {
		return types.Row{}
	}
	if len(a.buf) < n {
		a.buf = make([]types.Value, max(n, a.chunk, a.floor))
		a.mark = a.buf
	}
	a.used += n
	r := types.Row(a.buf[:n:n])
	a.buf = a.buf[n:]
	return r
}

// concat builds l ++ r in arena storage.
func (a *rowArena) concat(l, r types.Row) types.Row {
	out := a.alloc(len(l) + len(r))
	copy(out, l)
	copy(out[len(l):], r)
	return out
}
