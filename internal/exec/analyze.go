package exec

import "time"

// OpStats accumulates per-operator runtime statistics for EXPLAIN ANALYZE.
type OpStats struct {
	Rows   int64         // rows returned by BatchNext
	Time   time.Duration // wall time inside Open + BatchNext + Close
	Opened bool          // false when a StartupFilter pruned this subtree
}

// Instrumented wraps an operator, timing its calls and counting produced
// rows. It is transparent to execution: Columns, errors and the caller's
// batch (with its Ephemeral promise) pass through, and a Filter looks through
// the shell to fuse its predicate into a child scan as it does without one.
type Instrumented struct {
	Op    Operator
	Stats OpStats
}

// Instrument wraps every operator in the tree with an *Instrumented shell,
// returning the new root. The input tree is mutated (child links are
// redirected), so instrument a private clone, never a cached plan.
func Instrument(op Operator) *Instrumented {
	for i := 0; op.Child(i) != nil; i++ {
		in := op.Child(i)
		*in = Instrument(*in)
	}
	return &Instrumented{Op: op}
}

func (i *Instrumented) Columns() []ColInfo    { return i.Op.Columns() }
func (i *Instrumented) Child(n int) *Operator { return slot(n, &i.Op) }
func (i *Instrumented) clone() Operator       { return &Instrumented{Op: i.Op} }
func (i *Instrumented) passesRows() bool      { return true }
func (i *Instrumented) reset(bool) int        { i.Stats = OpStats{}; return 0 }

func (i *Instrumented) Open(ctx *Ctx) error {
	start := time.Now()
	err := i.Op.Open(ctx)
	i.Stats.Time += time.Since(start)
	i.Stats.Opened = true
	return err
}

func (i *Instrumented) BatchNext(ctx *Ctx, b *Batch) error {
	start := time.Now()
	err := i.Op.BatchNext(ctx, b)
	i.Stats.Time += time.Since(start)
	if err == nil {
		i.Stats.Rows += int64(len(b.Rows))
	}
	return err
}

func (i *Instrumented) Close() error {
	start := time.Now()
	err := i.Op.Close()
	i.Stats.Time += time.Since(start)
	return err
}
