package exec

import (
	"sync"

	"mtcache/internal/storage"
)

// CloneOperator deep-copies an operator tree's structure, leaving runtime
// state (cursors, hash tables, buffers) fresh. Compiled expressions are
// immutable and shared, and so is what Prepare derived from them.
//
// This is what makes the engine's plan cache safe: a cached plan may be
// executed by many sessions concurrently, so each execution runs on a tree of
// its own — a clone, or a clone an earlier execution released (Instances).
func CloneOperator(op Operator) Operator {
	c := op.clone()
	for i := 0; c.Child(i) != nil; i++ {
		in := c.Child(i)
		*in = CloneOperator(*in)
	}
	return c
}

// Prepare derives, once per plan, the state the operators of a template
// would otherwise derive at every Open: a Filter's compiled predicate and a
// join's output schema. A clone copies it and reset keeps it, so every
// instance of the plan shares the template's. The optimizer prepares a plan
// before anything clones it; afterwards the template is only read. A tree
// that was never prepared derives the state at its first Open and keeps it.
func Prepare(root Operator) {
	if f, ok := root.(*Filter); ok {
		f.compile()
	}
	root.Columns() // a join's schema is made on first use
	for i := 0; root.Child(i) != nil; i++ {
		Prepare(*root.Child(i))
	}
}

// resetTree resets every operator of the tree and returns the bytes the tree
// keeps. result says that the rows op emits are in the execution's result; it
// stays true below op for as long as the operators pass their inputs' rows
// through, which is how the operators whose storage backs the result are
// found (see Batch).
func resetTree(op Operator, result bool) int {
	n := op.reset(result)
	result = result && op.passesRows()
	for i := 0; op.Child(i) != nil; i++ {
		n += resetTree(*op.Child(i), result)
	}
	return n
}

// arenaOwner is an operator that builds the rows it emits in an arena of its
// own: the arena that backs the result when the operator's rows are the
// result's.
type arenaOwner interface{ outArena() *rowArena }

// carveFrom points the arenas that build the rows op emits at s for the
// execution ahead: the arenas of the operators resetTree reaches with result
// true, which forget s when the instance is released.
func carveFrom(op Operator, s *Slab) {
	if !op.passesRows() {
		if o, ok := op.(arenaOwner); ok {
			o.outArena().slab = s
		}
		return
	}
	for i := 0; op.Child(i) != nil; i++ {
		carveFrom(*op.Child(i), s)
	}
}

const (
	// maxParked bounds the free list of one plan: an instance released while
	// that many are parked is dropped. It is the number of executions of one
	// plan that can overlap and still all find a parked instance afterwards.
	maxParked = 4
	// maxKept bounds what one parked instance may hold. An execution that
	// grew its buffers past it (a sort or a build side of thousands of rows)
	// leaves an instance that is dropped instead of parked, so the free
	// lists cost at most maxParked × maxKept per cached plan however large an
	// occasional result is.
	maxKept = 256 << 10
)

// Instance is what one execution of a plan runs on: an operator tree of its
// own, cloned from the plan's template, the Ctx the execution runs in, and
// the read transaction it runs in when it brings its own (storage.BeginRead
// on Txn). The caller sets the Ctx's fields before Run; Release zeroes them.
// The caller also finishes Txn before Release: a parked instance pins no
// snapshot, and the next execution begins on Txn again. MaxRows is the most
// rows an execution of this instance has returned: the caller raises it
// after each Run, Release keeps it, and a fresh clone starts at 0.
type Instance struct {
	Root    Operator
	Ctx     Ctx
	Txn     storage.Txn
	MaxRows int
}

// SizeRows is the Ctx.EstRows of an execution of inst whose plan estimates
// est rows: the estimate, but no more than KeepRows unless an execution of
// inst has returned more. A plan cached for a parameterized shape estimates
// without the values, and a slice sized past KeepRows for rows that never
// come is one no caller recycles; a plan that does return more rows still
// sizes its slice in one make.
func (inst *Instance) SizeRows(est float64) float64 {
	return min(est, float64(max(KeepRows, inst.MaxRows)))
}

// reset resets the tree and the Ctx and returns the bytes they keep.
func (inst *Instance) reset() int {
	return resetTree(inst.Root, true) + inst.Ctx.reset()
}

// Instances is the free list of instances of one plan. An execution takes an
// instance (a new one when none is parked), runs it, and after a clean Close
// releases it: every operator is reset, which zeroes its run state and keeps
// its buffers — cleared, with their capacity — for the next execution, and so
// is the Ctx, which keeps its parameter slots. The list belongs to the plan
// and dies with it, so whatever drops a plan (invalidation, eviction) drops
// its instances.
type Instances struct {
	mu   sync.Mutex
	n    int
	free [maxParked]parked
}

type parked struct {
	inst *Instance
	kept int // bytes the reset instance holds
}

// Take removes and returns the most recently parked instance, nil when none
// is.
func (p *Instances) Take() *Instance {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.n == 0 {
		return nil
	}
	p.n--
	inst := p.free[p.n].inst
	p.free[p.n] = parked{}
	return inst
}

// Release resets inst, whose execution returned no error and has been
// closed, and parks it for the next Take. An instance whose execution failed
// is not released: it is dropped, with whatever state the failure left in
// it. So is one whose Txn is still live: parked, its snapshot would stay
// pinned, and the next execution to take it would begin on a transaction its
// first holder has yet to finish.
func (p *Instances) Release(inst *Instance) {
	if inst.Txn.Live() {
		return
	}
	kept := inst.reset()
	if kept > maxKept {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.n < maxParked {
		p.free[p.n] = parked{inst: inst, kept: kept}
		p.n++
	}
}

// Kept reports how many instances are parked and the bytes they hold.
func (p *Instances) Kept() (trees, bytes int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, f := range p.free[:p.n] {
		bytes += f.kept
	}
	return p.n, bytes
}
