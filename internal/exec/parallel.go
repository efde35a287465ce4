package exec

import (
	"fmt"
	"sync"

	"mtcache/internal/metrics"
	"mtcache/internal/storage"
	"mtcache/internal/trace"
	"mtcache/internal/types"
)

// Intra-query parallelism: the Exchange (Gather) enforcer runs DOP clones of
// its Template pipeline on worker goroutines, each over a disjoint partition
// of the same pinned MVCC snapshot, and merges their output through a bounded
// channel. The optimizer inserts Exchange cost-based (see opt/parallel.go);
// partition bounds are computed once at Open from the shared snapshot, so
// workers never coordinate during the scan.

// exchangeBatch is how many rows ride in one channel send; batching
// amortizes channel synchronization on the row path.
const exchangeBatch = 64

// Exchange runs DOP partitioned clones of Template concurrently and gathers
// their rows. Row order across partitions is unspecified. Errors from any
// worker cancel the others; Close is safe at any point and never leaks
// goroutines: it aborts the workers, drains the channel, and waits for them.
// The worker trees are part of the plan instance: a released Exchange keeps
// them, reset like every other operator, and the next execution only binds
// their partitions again.
type Exchange struct {
	Template Operator
	DOP      int

	workers    []Operator // one clone of Template per worker, kept across executions
	ch         chan []types.Row
	abort      chan struct{}
	abortOnce  *sync.Once
	wg         sync.WaitGroup
	mu         sync.Mutex
	err        error
	workerRows []int64
	counters   []Counters // per-worker work, merged into parent at Close
	parent     *Counters  // the consumer's counters (may be nil)
	opened     bool
	closed     bool
}

func (e *Exchange) Columns() []ColInfo    { return e.Template.Columns() }
func (e *Exchange) Child(i int) *Operator { return slot(i, &e.Template) }
func (e *Exchange) EachExpr(func(Expr))   {}

// clone: CloneOperator clones the template too, so each instance binds
// partitions and shared builds on a private tree.
func (e *Exchange) clone() Operator { return &Exchange{Template: e.Template, DOP: e.DOP} }

// passesRows: what the workers' roots emit is what the Exchange emits.
func (e *Exchange) passesRows() bool { return true }

// reset runs on the consumer's goroutine after Close has waited for every
// worker. The worker trees stand where the template stands in the tree, so
// they are reset with the Exchange's own result flag.
func (e *Exchange) reset(result bool) int {
	n := 0
	for _, w := range e.workers {
		n += resetTree(w, result)
	}
	e.ch, e.abort, e.abortOnce, e.err, e.parent = nil, nil, nil, nil, nil
	e.wg, e.mu = sync.WaitGroup{}, sync.Mutex{} // idle after Close; zeroed like all run state
	e.opened, e.closed = false, false
	return n + wipe(&e.workerRows) + wipe(&e.counters)
}

func (e *Exchange) Open(ctx *Ctx) error {
	dop := e.DOP
	if dop < 1 {
		dop = 1
	}
	if e.opened || len(e.workers) != dop {
		// No reset since the last Open (or none yet): the trees are not clean.
		e.workers = make([]Operator, dop)
		for i := range e.workers {
			e.workers[i] = CloneOperator(e.Template)
		}
	}
	if err := bindPartitions(ctx, e.Template, e.workers); err != nil {
		return err
	}
	metrics.Default.Counter("exec.parallel_exchanges").Add(1)
	metrics.Default.Counter("exec.parallel_workers").Add(int64(dop))
	span := ctx.Rec.StartSpan(ctx.Span, "exchange", trace.Attr{K: "dop", V: fmt.Sprint(dop)})

	e.ch = make(chan []types.Row, dop*2)
	e.abort = make(chan struct{})
	e.abortOnce = &sync.Once{}
	e.err = nil
	e.workerRows = append(e.workerRows[:0], make([]int64, dop)...)
	e.counters = append(e.counters[:0], make([]Counters, dop)...)
	e.parent = ctx.Counters
	e.opened, e.closed = true, false

	var done <-chan struct{}
	if ctx.Context != nil {
		done = ctx.Context.Done()
	}
	e.wg.Add(dop)
	for i := range e.workers {
		wctx := *ctx
		wctx.Counters = &e.counters[i]
		wctx.Span = ctx.Rec.StartSpan(span, fmt.Sprintf("worker%d", i))
		go e.runWorker(i, e.workers[i], &wctx, ctx, done)
	}
	// Closer: once every worker has exited, the stream is complete.
	go func() {
		e.wg.Wait()
		ctx.Rec.EndSpan(span, nil) // before the close: the consumer's drain orders it before the statement finishing
		close(e.ch)
	}()
	return nil
}

// runWorker drives one partitioned clone to completion, pushing row batches
// to the gather channel. Worker counters are private (Close merges them into
// the consumer's); the worker span records the rows it produced.
func (e *Exchange) runWorker(i int, op Operator, ctx *Ctx, parent *Ctx, done <-chan struct{}) {
	var rows int64
	defer func() {
		e.workerRows[i] = rows
		ctx.Rec.Annotate(ctx.Span, "rows", fmt.Sprint(rows))
		ctx.Rec.EndSpan(ctx.Span, nil)
		e.wg.Done()
	}()
	if err := op.Open(ctx); err != nil {
		e.fail(err)
		return
	}
	defer op.Close()
	batch := make([]types.Row, 0, exchangeBatch)
	flush := func() bool {
		if len(batch) == 0 {
			return true
		}
		select {
		case e.ch <- batch:
			batch = make([]types.Row, 0, exchangeBatch)
			return true
		case <-e.abort:
			return false
		case <-done:
			e.fail(parent.Context.Err())
			return false
		}
	}
	var in Batch
	for {
		select {
		case <-e.abort:
			return
		case <-done:
			e.fail(parent.Context.Err())
			return
		default:
		}
		// Pull a whole batch through the worker pipeline; the channel send
		// needs an owned slice, so rows are copied out of the reused window.
		if err := op.BatchNext(ctx, &in); err != nil {
			e.fail(err)
			return
		}
		if len(in.Rows) == 0 {
			flush()
			return
		}
		rows += int64(len(in.Rows))
		batch = append(batch, in.Rows...)
		if len(batch) >= exchangeBatch {
			if !flush() {
				return
			}
		}
	}
}

// fail records the first worker error and aborts the other workers.
func (e *Exchange) fail(err error) {
	e.mu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.mu.Unlock()
	e.abortOnce.Do(func() { close(e.abort) })
}

// BatchNext hands a whole worker chunk to the parent per call.
func (e *Exchange) BatchNext(_ *Ctx, b *Batch) error {
	batch, ok := <-e.ch
	if !ok {
		e.mu.Lock()
		err := e.err
		e.mu.Unlock()
		b.Rows = b.Rows[:0]
		return err
	}
	b.Rows = append(b.Rows[:0], batch...)
	return nil
}

func (e *Exchange) Close() error {
	if !e.opened || e.closed {
		return nil
	}
	e.closed = true
	e.abortOnce.Do(func() { close(e.abort) })
	// Drain until the closer closes the channel: unblocks any worker parked
	// on a send, then the Wait below guarantees no goroutine outlives Close.
	for range e.ch {
	}
	e.wg.Wait()
	// Merge on the consumer's goroutine, after every worker has exited:
	// operators above the Exchange (a lookup join over a gathered outer, say)
	// update the same counters while the workers run.
	if e.parent != nil {
		for i := range e.counters {
			e.parent.Add(&e.counters[i])
		}
	}
	return nil
}

// WorkerRows reports how many rows each worker produced in the last
// execution. Valid after the stream is drained or Close returns; EXPLAIN
// ANALYZE prints it.
func (e *Exchange) WorkerRows() []int64 { return e.workerRows }

// bindPartitions walks the template tree and all worker clones in lockstep
// (CloneOperator preserves shape), computes partition bounds once from the
// shared snapshot, and installs each worker's binding: heap-slot ranges on
// Parallel Scans, separator-key ranges on Parallel IndexScans, and one
// sharedBuild on ShareBuild HashJoins.
func bindPartitions(ctx *Ctx, tmpl Operator, workers []Operator) error {
	switch t := tmpl.(type) {
	case *Scan:
		if !t.Parallel {
			return nil
		}
		tv := ctx.Txn.Table(t.TableName)
		if tv == nil {
			if err := ctx.Txn.Err(); err != nil {
				return err
			}
			return fmt.Errorf("exec: table %s does not exist", t.TableName)
		}
		parts := tv.SlotPartitions(len(workers))
		for i, w := range workers {
			ws := w.(*Scan)
			if i < len(parts) {
				r := parts[i]
				ws.part = &r
			} else {
				ws.part = &storage.SlotRange{} // empty range
			}
		}
	case *IndexScan:
		if !t.Parallel {
			return nil
		}
		tv := ctx.Txn.Table(t.TableName)
		if tv == nil {
			if err := ctx.Txn.Err(); err != nil {
				return err
			}
			return fmt.Errorf("exec: table %s does not exist", t.TableName)
		}
		iv := tv.Index(t.IndexName)
		if iv == nil {
			return fmt.Errorf("exec: index %s on %s does not exist", t.IndexName, t.TableName)
		}
		seps := iv.SeparatorKeys(len(workers))
		for i, w := range workers {
			ws := w.(*IndexScan)
			p := &indexPart{}
			switch {
			case i > len(seps):
				p.empty = true // more workers than key ranges
			default:
				if i > 0 {
					p.lo = seps[i-1]
				}
				if i < len(seps) {
					p.hi = seps[i]
				}
			}
			ws.part = p
		}
	case *HashJoin:
		if t.ShareBuild {
			sb := newSharedBuild(t, len(workers))
			for _, w := range workers {
				w.(*HashJoin).shared = sb
			}
			// Only the probe side is partitioned; the build side belongs to
			// the shared build.
			return bindPartitions(ctx, t.Left, inputsOf(workers, 0))
		}
	}
	// Every other operator only passes the walk on, to all of its inputs.
	for i := 0; tmpl.Child(i) != nil; i++ {
		if err := bindPartitions(ctx, *tmpl.Child(i), inputsOf(workers, i)); err != nil {
			return err
		}
	}
	return nil
}

// inputsOf returns the i-th input of every worker.
func inputsOf(workers []Operator, i int) []Operator {
	out := make([]Operator, len(workers))
	for k, w := range workers {
		out[k] = *w.Child(i)
	}
	return out
}

// sharedBuild materializes one hash-join build table exactly once — the
// first worker in runs it, everyone blocks on the same sync.Once — and
// shares the resulting read-only table across all probe workers. When the
// build side itself has a Parallel leaf, the build is partitioned across
// goroutines and the per-partition tables merged.
type sharedBuild struct {
	once  sync.Once
	build func(ctx *Ctx) (map[uint64][]types.Row, error)
	table map[uint64][]types.Row
	err   error
}

func (s *sharedBuild) get(ctx *Ctx) (map[uint64][]types.Row, error) {
	s.once.Do(func() { s.table, s.err = s.build(ctx) })
	return s.table, s.err
}

func newSharedBuild(tj *HashJoin, dop int) *sharedBuild {
	sb := &sharedBuild{}
	sb.build = func(ctx *Ctx) (map[uint64][]types.Row, error) {
		if dop > 1 && hasParallelLeaf(tj.Right) {
			return parallelBuild(ctx, tj.Right, tj.RightKeys, tj.BuildEst, dop)
		}
		table := make(map[uint64][]types.Row, preallocSize(tj.BuildEst, 1<<16))
		var in Batch
		return table, buildHashTable(ctx, CloneOperator(tj.Right), tj.RightKeys, table, &in)
	}
	return sb
}

// parallelBuild partitions the build-side pipeline across dop goroutines and
// merges their private hash tables into one.
func parallelBuild(ctx *Ctx, tmpl Operator, keys []Expr, est float64, dop int) (map[uint64][]types.Row, error) {
	clones := make([]Operator, dop)
	for i := range clones {
		clones[i] = CloneOperator(tmpl)
	}
	if err := bindPartitions(ctx, tmpl, clones); err != nil {
		return nil, err
	}
	tables := make([]map[uint64][]types.Row, dop)
	errs := make([]error, dop)
	counters := make([]*Counters, dop)
	var wg sync.WaitGroup
	for i := range clones {
		wg.Add(1)
		counters[i] = &Counters{}
		go func(i int) {
			defer wg.Done()
			wctx := *ctx
			wctx.Counters = counters[i]
			tables[i] = make(map[uint64][]types.Row, preallocSize(est/float64(dop), 1<<16))
			var in Batch
			errs[i] = buildHashTable(&wctx, clones[i], keys, tables[i], &in)
		}(i)
	}
	wg.Wait()
	if ctx.Counters != nil {
		for _, c := range counters {
			ctx.Counters.Add(c)
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	merged := tables[0]
	for _, t := range tables[1:] {
		for h, rows := range t {
			merged[h] = append(merged[h], rows...)
		}
	}
	return merged, nil
}

// hasParallelLeaf reports whether op contains a Parallel-marked scan the
// partition binder can split.
func hasParallelLeaf(op Operator) bool {
	switch x := op.(type) {
	case *Scan:
		return x.Parallel
	case *IndexScan:
		return x.Parallel
	case *Filter:
		return hasParallelLeaf(x.Input)
	case *Project:
		return hasParallelLeaf(x.Input)
	case *HashJoin:
		return hasParallelLeaf(x.Left)
	case *IndexJoin:
		return hasParallelLeaf(x.Outer)
	}
	return false
}
