package exec

import (
	"unsafe"

	"mtcache/internal/types"
)

// BatchSize is the row count operators aim for per batch. 64 rows amortizes
// the per-call virtual dispatch and bounds checks across the tree while
// keeping a batch comfortably inside the L1/L2 working set.
const BatchSize = 64

// Batch is a reusable window of rows flowing between operators. Only the
// Rows slice header is reused between calls; how long the row values
// themselves stay valid depends on whose memory they are. There are three
// lifetimes:
//
//   - Storage: forever. MVCC row versions read by Scan, IndexScan and
//     IndexJoin are never written again and never copied; anyone may keep
//     them.
//   - Result: the life of the Result. The rows Remote decoded off the wire
//     live in storage the execution's Slab adopts (Slab.Adopt), values and
//     strings alike. An operator that builds its own output
//     rows (passesRows is false: Project, the joins, the aggregates) carves
//     them from a rowArena. When those rows are what the root emits — the
//     operator is the root, or everything between it and the root passes rows
//     through — they end up in the ResultSet and from there in the client's
//     hands, so that arena is the result's: it carves its chunks from the
//     execution's Slab (Ctx.Slab; made one by one when there is none), every
//     durable batch gets a chunk that is never written again within the
//     execution, and the operator forgets it when the instance is released
//     (reset(true)). The slab's owner (engine.Result) clears and recycles it,
//     adopted answers included, once nothing reads the rows, so a holder
//     that keeps rows past that point copies them, strings included: the
//     intermediate-result cache does, at admission and refresh.
//   - Instance: until release. Every other buffer — an arena whose rows are
//     consumed inside the tree, batch windows, key scratch, sort buffers, hash
//     and aggregate tables — belongs to the plan
//     instance (see Instances). Release clears it and keeps its capacity for
//     the next execution, so no row built from it may outlive the execution.
//     That is guaranteed by construction, not by care: a row reaches the
//     result only through operators that pass rows through, and passesRows is
//     a method every operator has to write.
//
// Within one execution a consumer can shorten a lifetime. One that copies out
// everything it keeps before its next pull — aggregation cloning group keys,
// a join probe emitting concatenated copies, a projection evaluating into its
// own rows — sets Ephemeral before calling BatchNext. That releases the
// producer from durability for that call: it may overwrite the delivered rows
// on the following BatchNext. Every operator that builds its rows honours the
// flag the same way, by rewinding its arena (rowArena.recycle) instead of
// taking fresh storage, so a join under an aggregate re-uses one chunk for its
// whole run. Operators that pass rows through and keep none (Filter, Limit,
// UnionAll) propagate the flag; operators that retain input rows (Sort, TopN,
// Distinct, hash-join and nested-loop builds, Run itself)
// leave it unset on the batches they own and see rows that are never touched
// again. The contract is checked in both directions, within an execution and
// across executions of one instance, by the poison and hoard wrappers in
// ephemeral_test.go.
type Batch struct {
	Rows      []types.Row
	Ephemeral bool
}

// reset empties a window an operator reads its input through, keeping the
// capacity; it returns the bytes kept.
func (b *Batch) reset() int {
	b.Ephemeral = false
	return wipe(&b.Rows)
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

// wipe empties a buffer an instance keeps between executions: every element
// is zeroed over the whole capacity, so nothing stays reachable through it.
// It returns the bytes kept.
func wipe[S ~[]T, T any](s *S) int {
	full := (*s)[:cap(*s)]
	clear(full)
	*s = full[:0]
	var elem T
	return len(full) * int(unsafe.Sizeof(elem))
}

// Slab is the value storage of one execution's result rows. Run points the
// arenas that build the rows the root emits (the operators resetTree reaches
// with result true) at it, and they carve their chunks from its unused tail,
// front to back, instead of making them; a chunk that does not fit is made on
// its own, and the slab counts what the execution needed either way. It also
// keeps the remote answers the execution read (Adopt), whose rows may be the
// result's too. The carved values and the adopted answers are the result's:
// whoever holds the slab may Reset it for another execution only once nothing
// reads those rows.
type Slab struct {
	vals    []types.Value
	used    int        // values carved from vals
	need    int        // values the execution's result arenas asked for, carved or made
	answers *ResultSet // the adopted remote answers, linked through next
}

// carve returns n values of s, or made ones when s is nil or too short.
func (s *Slab) carve(n int) []types.Value {
	if s == nil {
		return make([]types.Value, n)
	}
	s.need += n
	if len(s.vals)-s.used < n {
		return make([]types.Value, n)
	}
	v := s.vals[s.used : s.used+n : s.used+n]
	s.used += n
	return v
}

// Adopt makes the storage of rs, a remote answer the execution read, the
// slab's: Reset recycles it. A ResultSet that did not come from the pool
// (NewResultSet), or a nil slab, leaves rs to the collector.
func (s *Slab) Adopt(rs *ResultSet) {
	if s != nil && rs.pooled {
		rs.next, s.answers = s.answers, rs
	}
}

// Reset readies s for another execution once nothing reads what was carved
// from it, which it zeroes, nor the answers it adopted, which it recycles. A
// slab too small for the execution just ended is replaced by one the size
// that execution needed, so the next like it carves everything; no slab of
// more than KeepVals values is kept (nor made).
func (s *Slab) Reset() {
	switch {
	case s.need > len(s.vals) && s.need <= KeepVals:
		s.vals = make([]types.Value, s.need)
	case len(s.vals) > KeepVals:
		s.vals = nil
	default:
		clear(s.vals[:s.used])
	}
	for rs := s.answers; rs != nil; {
		next := rs.next
		rs.Recycle()
		rs = next
	}
	s.used, s.need, s.answers = 0, 0, nil
}

// rowArena carves fixed-width output rows out of batch-sized chunks,
// replacing a make per row with one make per batch. Callers hint the coming
// batch's total width so chunks are sized to real demand — a point query
// allocates exactly its one row, a full scan batch one 64-row chunk — and
// live result rows never pin more than one batch of slack. The full-capacity
// reslice (buf[:n:n]) makes appending to an emitted row impossible to alias
// into a neighbour.
//
// For a durable consumer a chunk is never reused or freed early within an
// execution — every row handed out owns its slice until the arena is reset —
// so rows emitted from an arena are exactly as durable as individually
// allocated ones. For an Ephemeral consumer the owning operator calls recycle
// at the top of each BatchNext, and the rows of the previous call become the
// storage of this one. A recycled row holds stale values: alloc's caller
// writes every column.
type rowArena struct {
	buf   []types.Value // unused tail of the current chunk
	chunk int           // refill granularity, set by hint

	eph   bool          // the call in progress was pulled Ephemeral
	mark  []types.Value // where this call's rows begin: buf at recycle, or the chunk started since
	used  int           // values handed out by this call
	floor int           // least size of a new chunk: what one Ephemeral call, or one whole run, has needed

	base []types.Value // the current chunk, whole: what reset may keep
	live int           // values handed out since reset and not rewound over
	peak int           // the most live has been since reset

	slab *Slab // where a result arena's chunks come from, for one execution (see Run)
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
		a.live -= a.used
		if a.used <= len(a.mark) {
			a.buf = a.mark
		} else {
			a.buf, a.floor = nil, max(a.floor, a.used)
		}
	}
	a.eph, a.mark, a.used = ephemeral, a.buf, 0
}

func (a *rowArena) alloc(n int) types.Row {
	if n == 0 {
		return types.Row{}
	}
	if len(a.buf) < n {
		a.base = a.slab.carve(max(n, a.chunk, a.floor))
		a.buf, a.mark = a.base, a.base
	}
	a.used += n
	if a.live += n; a.live > a.peak {
		a.peak = a.live
	}
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

// release ends an execution and returns the bytes the arena keeps for the
// next one. An arena that backs result rows (keep is false) forgets
// everything, its slab included: its chunks are the result's now. An
// instance's arena keeps its
// current chunk, cleared, when that chunk alone could have held everything the
// run had live at once; otherwise it keeps nothing and remembers that size, so
// the next run makes one chunk that fits and that one is kept. A remembered
// size counts as kept bytes: the instance that would make a chunk too large to
// keep is dropped now, and a run is never handed a chunk sized by another run
// that is beyond what an instance may hold.
func (a *rowArena) release(keep bool) int {
	if !keep {
		*a = rowArena{}
		return 0
	}
	base, floor := a.base, max(a.floor, a.peak)
	if len(base) < floor {
		base = nil
	}
	// Rows were handed out front to back, so no more than peak values of the
	// chunk were ever written.
	clear(base[:min(len(base), a.peak)])
	*a = rowArena{buf: base, base: base, floor: floor}
	return max(len(base), floor) * int(unsafe.Sizeof(types.Value{}))
}
