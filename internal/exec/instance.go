package exec

import "sync"

// CloneOperator deep-copies an operator tree's structure, leaving runtime
// state (cursors, hash tables, buffers) fresh. Compiled expressions are
// immutable and shared.
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

// Instances is the free list of operator trees of one plan. An execution
// takes a tree (cloning the plan's template when there is none), runs it, and
// after a clean Close releases it: every operator is reset, which zeroes its
// run state and keeps its buffers — cleared, with their capacity — for the
// next execution. The list belongs to the plan and dies with it, so whatever
// drops a plan (invalidation, eviction) drops its instances.
type Instances struct {
	mu   sync.Mutex
	n    int
	free [maxParked]parked
}

type parked struct {
	root Operator
	kept int // bytes the reset tree holds
}

// Take removes and returns the most recently parked tree, nil when none is.
func (p *Instances) Take() Operator {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.n == 0 {
		return nil
	}
	p.n--
	root := p.free[p.n].root
	p.free[p.n] = parked{}
	return root
}

// Release resets root, a tree whose execution returned no error and has been
// closed, and parks it for the next Take. A tree whose execution failed is
// not released: it is dropped, with whatever state the failure left in it.
func (p *Instances) Release(root Operator) {
	kept := resetTree(root, true)
	if kept > maxKept {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.n < maxParked {
		p.free[p.n] = parked{root: root, kept: kept}
		p.n++
	}
}

// Kept reports how many trees are parked and the bytes they hold.
func (p *Instances) Kept() (trees, bytes int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, f := range p.free[:p.n] {
		bytes += f.kept
	}
	return p.n, bytes
}
