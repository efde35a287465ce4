package exec

import (
	"container/heap"
	"fmt"
	"slices"
	"time"
	"unsafe"

	"mtcache/internal/metrics"
	"mtcache/internal/storage"
	"mtcache/internal/trace"
	"mtcache/internal/types"
)

// ColInfo describes one output column of an operator.
type ColInfo struct {
	Table string // alias or table name, "" for computed columns
	Name  string
	Kind  types.Kind
}

// ResultSet is what a linked server answers for one statement: the rows of a
// query, the row count of a write, and the backend commit position of any
// write the statement performed (0 for pure reads). A session router uses the
// commit LSN to advance a session's read-your-writes watermark.
//
// A wire client's ResultSet comes from a pool (NewResultSet) and carries the
// storage its rows, their values and their strings were decoded into
// (Store): nothing its rows hold may be read once whoever adopted it — a
// Slab, through a Remote, or a forwarding cache's Result — is reset or
// released, and a holder that keeps rows past that copies them, strings
// included, as the result cache does.
type ResultSet struct {
	Cols         []ColInfo
	Rows         []types.Row
	RowsAffected int64
	CommitLSN    storage.LSN
	Store        Answer // the storage Rows were decoded into, for a pooled ResultSet

	pooled bool       // taken from resultSets (NewResultSet), and put back by Recycle
	next   *ResultSet // the Slab list of adopted ResultSets this one is on
}

// RemoteClient executes SQL on a linked server: the Remote operator's
// subqueries and every statement a cache forwards. A text that may write is
// delivered at most once (sql.ReadOnly). QueryTraced also propagates the
// trace ID, rendered by trace.FormatID, under which the linked server keeps
// its record of the call in its own ring; a reader joins it to the caller's
// by that ID (trace.Record.Stitch). Its span is always nil, and the benchmark
// change of ROADMAP direction 10b removes it. A traceID that trace.ParseID
// refuses fails the call. params holds the parameters sqlText reads — a
// Remote's, exactly those. A client reads it only until the call returns,
// timed out or not: a Remote refills the same map for its instance's next
// execution.
type RemoteClient interface {
	Query(sqlText string, params Params) (*ResultSet, error)
	QueryTraced(sqlText string, params Params, traceID string) (*ResultSet, *trace.WireSpan, error)
}

// Counters accumulates executor work for cost accounting and tests. The type
// lives in trace so that a statement's Record can carry it.
type Counters = trace.Counters

// Ctx is the per-execution context. A pooled Instance carries one from
// execution to execution: its fields are set for each run, and what it keeps
// in between is the capacity of the parameter slots (Env.Slots) and the Ctx
// itself (see Instance).
type Ctx struct {
	Env      Env // the parameters, at their slots (Env.Bind)
	Txn      *storage.Txn
	Remote   RemoteClient
	Counters *Counters
	Rec      *trace.Record // the statement's record: its ID goes to the backend on DataTransfer; nil when run bare
	EstRows  float64       // rows Run makes room for before the first batch, 0 if unknown (see Run)
	Slab     *Slab         // where the values of the result's own rows are carved; nil: made (see Run)

	out Batch // the window Run reads the root through
}

// reset zeroes what an execution set on the context, keeping the parameter
// slots' capacity zeroed over its whole length; it returns the bytes kept.
// Run's window is forgotten, not kept: its rows are the result's.
func (c *Ctx) reset() int {
	slots := c.Env.Slots
	n := wipe(&slots)
	*c = Ctx{Env: Env{Slots: slots}}
	return n
}

// paramEntryBytes is what one entry of a parameter map holds, about.
const paramEntryBytes = int(unsafe.Sizeof("") + unsafe.Sizeof(types.Value{}))

// maxPrealloc caps estimate-driven allocations: estimates can be off by
// orders of magnitude, and a bad one must cost at most a bounded overshoot.
const maxPrealloc = 4096

// KeepRows is the capacity of the largest row slice a caller recycles from
// run to run (engine.Result keeps one up to it): an execution sized to at
// most KeepRows rows fills a recycled slice and makes none.
const KeepRows = 128

// preallocSize converts a cardinality estimate into a slice/map capacity
// hint, clamped to [0, limit].
func preallocSize(est float64, limit int) int {
	if est <= 0 {
		return 0
	}
	n := int(est)
	if n > limit {
		return limit
	}
	return n
}

// Operator is a Volcano iterator that hands out rows a batch at a time.
// BatchNext refills b (starting from b.Rows[:0]) with the next window of
// rows. An empty batch signals end of stream; a non-empty batch may hold any
// positive number of rows (typically up to BatchSize; joins may overshoot
// when one input row matches many).
//
// The last four methods are what an operator says about itself to whoever
// walks a plan tree (CloneOperator, Instances, Instrument, EXPLAIN, the
// optimizer's collectRemote), so that none of them needs to know the
// operator types. By convention an operator's exported
// fields are its configuration and its unexported fields are the state of one
// run, except what Prepare derives from the configuration once per plan,
// which a clone shares with its template.
type Operator interface {
	Columns() []ColInfo
	Open(ctx *Ctx) error
	BatchNext(ctx *Ctx, b *Batch) error
	Close() error

	// Child returns the operator's i-th input slot, nil past the last one.
	// The slot is the field itself, not a copy: a walker reads the input
	// through it and may assign a replacement (a clone, an instrumented
	// shell).
	Child(i int) *Operator
	// clone returns a copy with the same configuration and no run state.
	// Its input slots still hold the receiver's inputs (CloneOperator
	// assigns their clones through Child), so an operator whose slots live
	// in a slice copies the slice.
	clone() Operator
	// passesRows reports whether the rows the operator emits are the rows its
	// inputs emitted — filtered, cut, reordered, but not copied. An operator
	// that says false builds every row it emits in storage of its own.
	passesRows() bool
	// reset returns the operator to the state clone left it in, except that
	// the buffers on the allow-list (resetKeeps in operator_test.go, which
	// enforces it) stay, emptied and zeroed over their whole capacity; it
	// returns the bytes they hold. Nothing an execution
	// read stays reachable: no transaction, table or index view, row version,
	// remote row, span or string. result says that the rows this operator
	// emitted are in the execution's result: storage that backs them is
	// forgotten, not kept. Configuration is untouched, inputs are not visited.
	reset(result bool) int
}

// leaf is embedded by the operators that have no input.
type leaf struct{}

func (leaf) Child(int) *Operator { return nil }
func (leaf) passesRows() bool    { return false }

// slot is Child for an operator whose inputs are the given fields.
func slot(i int, inputs ...*Operator) *Operator {
	if i < len(inputs) {
		return inputs[i]
	}
	return nil
}

// Run drains an operator into the caller's rs: it sets rs.Cols to the
// operator's columns and rs.Rows to the rows, replacing what they held. The
// rows fill the capacity rs.Rows already has — a caller that keeps a row
// slice between runs (engine.Result does) passes it in emptied of rows
// anyone still reads — and a new slice is made only when that capacity is
// short of ctx.EstRows (at most maxPrealloc) or of the rows; a caller that
// runs a pooled Instance sets EstRows with Instance.SizeRows. The rows that
// operators build for the result take their values from ctx.Slab when it is
// set, so the caller that keeps rs owns those values with the slab. On an
// error what rs holds is undefined.
func Run(op Operator, ctx *Ctx, rs *ResultSet) error {
	if ctx.Slab != nil {
		carveFrom(op, ctx.Slab)
	}
	if err := op.Open(ctx); err != nil {
		return err
	}
	defer op.Close()
	rs.Cols, rs.Rows = op.Columns(), rs.Rows[:0]
	if n := preallocSize(ctx.EstRows, maxPrealloc); n > cap(rs.Rows) {
		rs.Rows = make([]types.Row, 0, n)
	}
	b := &ctx.out
	for {
		// The root fills the unused tail of the result's row slice in place;
		// a batch that outgrows the tail lands in a slice of its own and is
		// copied over, growing the result.
		n := len(rs.Rows)
		b.Rows = rs.Rows[n:n:cap(rs.Rows)]
		if err := op.BatchNext(ctx, b); err != nil {
			return err
		}
		if len(b.Rows) == 0 {
			return nil
		}
		if n < cap(rs.Rows) && &b.Rows[0] == &rs.Rows[:n+1][n] {
			rs.Rows = rs.Rows[:n+len(b.Rows)]
		} else {
			rs.Rows = append(rs.Rows, b.Rows...)
		}
	}
}

// ---------------------------------------------------------------- Scan

// Scan is a full table scan.
type Scan struct {
	leaf
	TableName string
	Cols      []ColInfo

	td   storage.TableView // bound at Open
	pos  int
	cap  int
	pred *vecPred      // predicate pushed down by the parent Filter
	rhs  []types.Value // pred's per-batch right-hand-side scratch
}

func (s *Scan) Columns() []ColInfo { return s.Cols }
func (s *Scan) clone() Operator {
	return &Scan{TableName: s.TableName, Cols: s.Cols}
}
func (s *Scan) reset(bool) int {
	s.td, s.pos, s.cap, s.pred = storage.TableView{}, 0, 0, nil
	return wipe(&s.rhs)
}

func (s *Scan) Open(ctx *Ctx) error {
	var err error
	if s.td, err = tableView(ctx, s.TableName); err != nil {
		return err
	}
	s.pos = 0
	s.cap = s.td.Cap()
	return nil
}

// tableView is the execution's view of the named table.
func tableView(ctx *Ctx, name string) (storage.TableView, error) {
	tv, ok := ctx.Txn.Table(name)
	if !ok {
		if err := ctx.Txn.Err(); err != nil {
			return tv, err
		}
		return tv, fmt.Errorf("exec: table %s does not exist", name)
	}
	return tv, nil
}

// indexView is the execution's view of the named index of tv's table.
func indexView(tv *storage.TableView, table, index string) (storage.IndexView, error) {
	iv, ok := tv.Index(index)
	if !ok {
		return iv, fmt.Errorf("exec: index %s on %s does not exist", index, table)
	}
	return iv, nil
}

// BatchNext fills b with up to BatchSize rows; an empty batch is EOS (empty
// heap-slot runs are skipped without ending the stream). A pushed-down
// predicate is applied before rows ever enter the batch, so filtered-out
// rows are never materialized into a window at all; the scan keeps going
// until at least one row survives or the heap is exhausted. RowsScanned
// counts rows examined (pre-filter), matching the unfused pipeline.
func (s *Scan) BatchNext(ctx *Ctx, b *Batch) error {
	b.Rows = b.Rows[:0]
	if s.pred != nil {
		var err error
		if s.rhs, err = s.pred.resolve(s.rhs, &ctx.Env); err != nil {
			return err
		}
	}
	examined := int64(0)
	for s.pos < s.cap && len(b.Rows) < BatchSize {
		row := s.td.At(s.pos)
		s.pos++
		if row == nil {
			continue
		}
		examined++
		if s.pred != nil {
			ok, err := s.pred.holds(row, s.rhs, &ctx.Env)
			if err != nil {
				return err
			}
			if !ok {
				// Keep scanning: an all-filtered window must not read as EOS.
				continue
			}
		}
		b.Rows = append(b.Rows, row)
	}
	if ctx.Counters != nil {
		ctx.Counters.RowsScanned += examined
	}
	return nil
}

func (s *Scan) Close() error { s.td = storage.TableView{}; return nil }

// ---------------------------------------------------------------- IndexScan

// IndexScan reads rows through an index, optionally bounded, in key order or
// (Desc) in reverse key order. Bounds are expressions evaluated at Open so
// parameterized seeks work; both bounds are inclusive prefixes of the index
// key (strict bounds carry a residual Filter above), either may be absent, and
// a bound that evaluates to NULL matches nothing, as the comparison it stands
// for would. With Limit set the read stops at the index entry that completes
// the count instead of collecting the whole range: Limit 1 in either
// direction is how a MIN or MAX is read off the end of an index.
type IndexScan struct {
	leaf
	TableName string
	IndexName string // "__pk" for the primary key index
	Cols      []ColInfo
	Lo, Hi    []Expr // prefix bounds; nil slices mean unbounded
	Desc      bool   // read from the high end of the range down
	Limit     int    // stop after this many rows whose leading key column is not NULL, skipping the others; 0 reads every row

	rids   []storage.RowID
	lo, hi types.Row         // the bounds as evaluated at Open
	td     storage.TableView // bound at Open
	iv     storage.IndexView // bound at Open
	pos    int
	pred   *vecPred      // residual predicate pushed down by the parent Filter
	rhs    []types.Value // pred's per-batch right-hand-side scratch
}

func (s *IndexScan) Columns() []ColInfo { return s.Cols }
func (s *IndexScan) clone() Operator {
	return &IndexScan{
		TableName: s.TableName, IndexName: s.IndexName, Cols: s.Cols, Lo: s.Lo, Hi: s.Hi,
		Desc: s.Desc, Limit: s.Limit,
	}
}
func (s *IndexScan) reset(bool) int {
	s.td, s.iv, s.pos, s.pred = storage.TableView{}, storage.IndexView{}, 0, nil
	return wipe(&s.rids) + wipe(&s.lo) + wipe(&s.hi) + wipe(&s.rhs)
}

func (s *IndexScan) Open(ctx *Ctx) error {
	var err error
	if s.td, err = tableView(ctx, s.TableName); err != nil {
		return err
	}
	if s.iv, err = indexView(&s.td, s.TableName, s.IndexName); err != nil {
		return err
	}
	lo, hi, ok, err := SeekBounds(s.Lo, s.Hi, &ctx.Env, s.lo, s.hi)
	if err != nil {
		return err
	}
	s.lo, s.hi, s.rids, s.pos = lo, hi, s.rids[:0], 0
	if !ok {
		return nil
	}
	s.iv.Walk(lo, hi, s.Desc, func(it storage.Item) bool {
		if s.Limit > 0 && it.Key[0].IsNull() {
			// NULL keys sort first: read upwards they are skipped, read
			// downwards nothing but NULLs is left.
			return !s.Desc
		}
		s.rids = append(s.rids, it.RID)
		return s.Limit == 0 || len(s.rids) < s.Limit
	})
	return nil
}

// SeekBounds evaluates an index seek's lo and hi bounds into loBuf and hiBuf,
// returned regrown; a nil bound is open and evaluates to nil. ok is false when
// a value is NULL: col <= NULL holds for no row, and neither does the seek.
func SeekBounds(lo, hi []Expr, env *Env, loBuf, hiBuf types.Row) (loKey, hiKey types.Row, ok bool, err error) {
	loKey, okLo, err := evalBound(lo, env, loBuf)
	if err != nil {
		return loKey, hiBuf, false, err
	}
	hiKey, okHi, err := evalBound(hi, env, hiBuf)
	return loKey, hiKey, okLo && okHi, err
}

// evalBound evaluates a seek bound into buf; ok is false when a value is NULL.
func evalBound(bound []Expr, env *Env, buf types.Row) (types.Row, bool, error) {
	if bound == nil {
		return nil, true, nil
	}
	buf = buf[:0]
	for _, e := range bound {
		v, err := e.Eval(nil, env)
		if err != nil || v.IsNull() {
			return buf, false, err
		}
		buf = append(buf, v)
	}
	return buf, true, nil
}

// BatchNext fills b with up to BatchSize visible rows; empty batch is EOS.
// A pushed-down residual predicate filters rows before they enter the
// batch, exactly as in Scan.BatchNext.
func (s *IndexScan) BatchNext(ctx *Ctx, b *Batch) error {
	b.Rows = b.Rows[:0]
	if s.pred != nil {
		var err error
		if s.rhs, err = s.pred.resolve(s.rhs, &ctx.Env); err != nil {
			return err
		}
	}
	examined := int64(0)
	for s.pos < len(s.rids) && len(b.Rows) < BatchSize {
		row := s.td.Get(s.rids[s.pos])
		s.pos++
		if row == nil {
			continue
		}
		examined++
		if s.pred != nil {
			ok, err := s.pred.holds(row, s.rhs, &ctx.Env)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
		}
		b.Rows = append(b.Rows, row)
	}
	if ctx.Counters != nil {
		ctx.Counters.RowsScanned += examined
	}
	return nil
}

func (s *IndexScan) Close() error {
	s.td, s.iv = storage.TableView{}, storage.IndexView{}
	return nil
}

// ---------------------------------------------------------------- Filter

// Filter passes rows whose predicate evaluates to TRUE.
type Filter struct {
	Input Operator
	Pred  Expr

	vp       *vecPred // Pred compiled, nil when its shape is not covered; shared by a template's clones (see Prepare)
	compiled bool     // Pred has been compiled into vp

	in     Batch         // input scratch
	rhs    []types.Value // vp's per-batch right-hand-side scratch
	pushed bool          // vp was pushed down into the child scan
}

func (f *Filter) Columns() []ColInfo    { return f.Input.Columns() }
func (f *Filter) Child(i int) *Operator { return slot(i, &f.Input) }
func (f *Filter) passesRows() bool      { return true }
func (f *Filter) clone() Operator {
	return &Filter{Input: f.Input, Pred: f.Pred, vp: f.vp, compiled: f.compiled}
}
func (f *Filter) reset(bool) int {
	f.pushed = false
	return f.in.reset() + wipe(&f.rhs)
}

// compile compiles Pred once: on a template, before it is cloned (Prepare),
// or at the first Open of a tree that was never prepared.
func (f *Filter) compile() {
	if !f.compiled {
		f.vp, f.compiled = compilePred(f.Pred), true
	}
}

func (f *Filter) Open(ctx *Ctx) error {
	f.compile()
	f.pushed = false
	if f.vp != nil {
		// Fuse into a child scan: the predicate then runs inside the scan
		// loop and rejected rows never enter a batch. (Each execution has a
		// plan instance to itself, so the pushed state is never shared between
		// executions.) An EXPLAIN ANALYZE shell around the scan is looked
		// through: the instrumented run is the fused run.
		in := f.Input
		if shell, ok := in.(*Instrumented); ok {
			in = shell.Op
		}
		switch in := in.(type) {
		case *Scan:
			in.pred, f.pushed = f.vp, true
		case *IndexScan:
			in.pred, f.pushed = f.vp, true
		}
	}
	return f.Input.Open(ctx)
}

// BatchNext keeps pulling input batches until at least one row passes the
// predicate (or EOS), so an all-filtered batch never reads as end of stream.
func (f *Filter) BatchNext(ctx *Ctx, b *Batch) error {
	if f.pushed {
		// The child scan already applies the predicate.
		return f.Input.BatchNext(ctx, b)
	}
	b.Rows = b.Rows[:0]
	f.in.Ephemeral = b.Ephemeral // pass-through rows: caller's promise extends
	for {
		if err := f.Input.BatchNext(ctx, &f.in); err != nil {
			return err
		}
		if len(f.in.Rows) == 0 {
			return nil
		}
		if f.vp != nil {
			var err error
			b.Rows, f.rhs, err = f.vp.sel(f.in.Rows, b.Rows, f.rhs, &ctx.Env)
			if err != nil {
				return err
			}
		} else {
			for _, row := range f.in.Rows {
				ok, err := EvalBool(f.Pred, row, &ctx.Env)
				if err != nil {
					return err
				}
				if ok {
					b.Rows = append(b.Rows, row)
				}
			}
		}
		if len(b.Rows) > 0 {
			return nil
		}
	}
}

func (f *Filter) Close() error { return f.Input.Close() }

// ---------------------------------------------------------------- StartupFilter

// StartupFilter is a Select with a startup predicate: the guard references
// only parameters and is evaluated once at Open. If it is false the input is
// never opened (paper §5.1: "if it evaluates to false, the operator's input
// expression is not opened"). Two StartupFilters over one guard, the second
// with Else set, under a UnionAll implement ChoosePlan.
type StartupFilter struct {
	Input Operator
	Guard Expr
	// Else opens the input when the guard is not true. That is not NOT guard:
	// a guard that evaluates to NULL (a NULL parameter) must still open
	// exactly one of the two branches.
	Else   bool
	Branch string // "local"/"remote" when part of a ChoosePlan, else ""

	active bool
}

func (s *StartupFilter) Columns() []ColInfo    { return s.Input.Columns() }
func (s *StartupFilter) Child(i int) *Operator { return slot(i, &s.Input) }
func (s *StartupFilter) passesRows() bool      { return true }
func (s *StartupFilter) clone() Operator {
	return &StartupFilter{Input: s.Input, Guard: s.Guard, Else: s.Else, Branch: s.Branch}
}
func (s *StartupFilter) reset(bool) int { s.active = false; return 0 }

func (s *StartupFilter) Open(ctx *Ctx) error {
	ok, err := EvalBool(s.Guard, nil, &ctx.Env)
	if err != nil {
		return err
	}
	ok = ok != s.Else
	s.active = ok
	if !ok {
		if ctx.Counters != nil {
			ctx.Counters.StartupPruned++
		}
		return nil
	}
	switch s.Branch { // the planner names a ChoosePlan's two branches; a bare filter has none
	case "local":
		metrics.Default.Counter("opt.chooseplan_local").Add(1)
		ctx.Rec.Chose(trace.BranchLocal)
	case "remote":
		metrics.Default.Counter("opt.chooseplan_remote").Add(1)
		ctx.Rec.Chose(trace.BranchRemote)
	}
	return s.Input.Open(ctx)
}

// Active reports whether the guard passed at the last Open (EXPLAIN ANALYZE).
func (s *StartupFilter) Active() bool { return s.active }

// BatchNext passes batches through when the guard held at Open.
func (s *StartupFilter) BatchNext(ctx *Ctx, b *Batch) error {
	if !s.active {
		b.Rows = b.Rows[:0]
		return nil
	}
	return s.Input.BatchNext(ctx, b)
}

func (s *StartupFilter) Close() error {
	if !s.active {
		return nil
	}
	return s.Input.Close()
}

// ---------------------------------------------------------------- Project

// Project computes output expressions.
type Project struct {
	Input Operator
	Exprs []Expr
	Cols  []ColInfo

	in     Batch    // input scratch
	arena  rowArena // output rows
	cols   []int    // the column each expression reads, while gather holds
	gather bool     // every expression is a ColExpr: gather by index
}

func (p *Project) Columns() []ColInfo    { return p.Cols }
func (p *Project) Child(i int) *Operator { return slot(i, &p.Input) }
func (p *Project) clone() Operator       { return &Project{Input: p.Input, Exprs: p.Exprs, Cols: p.Cols} }
func (p *Project) passesRows() bool      { return false }
func (p *Project) outArena() *rowArena   { return &p.arena }
func (p *Project) reset(result bool) int {
	p.gather = false
	return p.in.reset() + wipe(&p.cols) + p.arena.release(!result)
}

func (p *Project) Open(ctx *Ctx) error {
	p.cols, p.gather = p.cols[:0], true
	for _, e := range p.Exprs {
		c, isCol := e.(*ColExpr)
		if !isCol {
			p.gather = false
			break
		}
		p.cols = append(p.cols, c.I)
	}
	return p.Input.Open(ctx)
}

// BatchNext projects a whole input batch, carving output rows out of a
// chunked arena instead of one make per row. For a durable consumer, arena
// chunks are never reused, so emitted rows stay valid for the life of the
// result; for an Ephemeral consumer the arena is recycled, making the
// steady-state projection allocation-free. All-column projections gather
// values by index without touching the expression interpreter.
func (p *Project) BatchNext(ctx *Ctx, b *Batch) error {
	p.in.Ephemeral = true // projected values are copied out immediately
	if err := p.Input.BatchNext(ctx, &p.in); err != nil {
		return err
	}
	b.Rows = b.Rows[:0]
	width := len(p.Exprs)
	p.arena.recycle(b.Ephemeral)
	p.arena.hint(len(p.in.Rows) * width)
	for _, row := range p.in.Rows {
		out := p.arena.alloc(width)
		if p.gather && gatherRow(out, row, p.cols) {
			b.Rows = append(b.Rows, out)
			continue
		}
		for i, e := range p.Exprs {
			v, err := e.Eval(row, &ctx.Env)
			if err != nil {
				return err
			}
			out[i] = v
		}
		b.Rows = append(b.Rows, out)
	}
	return nil
}

// gatherRow copies the indexed columns of row into out, reporting false on
// an out-of-range ordinal (the caller's interpreted loop then surfaces the
// proper error).
func gatherRow(out, row types.Row, cols []int) bool {
	for i, c := range cols {
		if c < 0 || c >= len(row) {
			return false
		}
		out[i] = row[c]
	}
	return true
}

func (p *Project) Close() error { return p.Input.Close() }

// ---------------------------------------------------------------- Limit

// Limit passes the first N rows; N is evaluated at Open (TOP @n works).
type Limit struct {
	Input Operator
	N     Expr

	in   Batch // input scratch: the input's batch, of which b gets the rows owed
	left int64
}

func (l *Limit) Columns() []ColInfo    { return l.Input.Columns() }
func (l *Limit) Child(i int) *Operator { return slot(i, &l.Input) }
func (l *Limit) clone() Operator       { return &Limit{Input: l.Input, N: l.N} }
func (l *Limit) passesRows() bool      { return true }
func (l *Limit) reset(bool) int        { l.left = 0; return l.in.reset() }

func (l *Limit) Open(ctx *Ctx) error {
	v, err := l.N.Eval(nil, &ctx.Env)
	if err != nil {
		return err
	}
	l.left = v.Int()
	return l.Input.Open(ctx)
}

// BatchNext reads the input's next batch into its own window and copies the
// headers of the rows still owed into b: the rows past them, which a batch
// of the input may hold, never take room in b, so a window the caller sized
// for N rows (Run's, from the estimate) is never outgrown by them.
func (l *Limit) BatchNext(ctx *Ctx, b *Batch) error {
	b.Rows = b.Rows[:0]
	if l.left <= 0 {
		return nil
	}
	l.in.Ephemeral = b.Ephemeral // pass-through rows: caller's promise extends
	if err := l.Input.BatchNext(ctx, &l.in); err != nil {
		return err
	}
	rows := l.in.Rows
	if int64(len(rows)) > l.left {
		rows = rows[:l.left]
	}
	b.Rows = append(b.Rows, rows...)
	l.left -= int64(len(rows))
	return nil
}

func (l *Limit) Close() error { return l.Input.Close() }

// ---------------------------------------------------------------- Sort

// SortKey is one ORDER BY key.
type SortKey struct {
	E    Expr
	Desc bool
}

// sortOrder evaluates and compares ORDER BY keys for Sort and TopN. When every
// key is a plain column the input row is its own key row (read through idx)
// and no key is made at all; otherwise a row's keys are evaluated into one
// scratch row and copied into arena storage only for rows that are kept.
type sortOrder struct {
	keys    []SortKey
	idx     []int // key k of a key row is keyRow[idx[k]]
	byCol   bool  // every key is a ColExpr: idx holds the column ordinals
	scratch types.Row
	arena   rowArena
}

// init points the order at keys, reusing what the last execution left.
func (o *sortOrder) init(keys []SortKey) {
	o.keys, o.idx, o.byCol = keys, o.idx[:0], true
	for _, k := range keys {
		c, isCol := k.E.(*ColExpr)
		if !isCol {
			o.byCol = false
			break
		}
		o.idx = append(o.idx, c.I)
	}
	if !o.byCol {
		o.idx, o.scratch = o.idx[:0], o.scratch[:0]
		for i := range keys {
			o.idx = append(o.idx, i)
			o.scratch = append(o.scratch, types.Null)
		}
	}
}

func (o *sortOrder) reset() int {
	o.keys, o.byCol = nil, false
	return wipe(&o.idx) + wipe(&o.scratch) + o.arena.release(true)
}

// key returns row's key row: row itself when byCol, else the scratch row,
// valid until the next call.
func (o *sortOrder) key(row types.Row, env *Env) (types.Row, error) {
	if o.byCol {
		for _, c := range o.idx {
			if c < 0 || c >= len(row) {
				_, err := (&ColExpr{I: c}).Eval(row, env) // the interpreter's error
				return nil, err
			}
		}
		return row, nil
	}
	for i, k := range o.keys {
		v, err := k.E.Eval(row, env)
		if err != nil {
			return nil, err
		}
		o.scratch[i] = v
	}
	return o.scratch, nil
}

// keep returns a key row that outlives the next key call.
func (o *sortOrder) keep(key types.Row) types.Row {
	if o.byCol {
		return key
	}
	out := o.arena.alloc(len(key))
	copy(out, key)
	return out
}

// cmp orders two key rows.
func (o *sortOrder) cmp(a, b types.Row) int {
	for k, i := range o.idx {
		c := types.Compare(a[i], b[i])
		if o.keys[k].Desc {
			c = -c
		}
		if c != 0 {
			return c
		}
	}
	return 0
}

// sortEntry carries a row, its evaluated sort keys, and (TopN) the input
// sequence number used as the stability tiebreak.
type sortEntry struct {
	row  types.Row
	keys types.Row
	seq  int64
}

// Sort materializes and sorts its input.
type Sort struct {
	Input Operator
	Keys  []SortKey

	in    Batch // input scratch; rows are retained, so never Ephemeral
	all   []sortEntry
	order sortOrder
	rows  []types.Row
	pos   int
}

func (s *Sort) Columns() []ColInfo    { return s.Input.Columns() }
func (s *Sort) Child(i int) *Operator { return slot(i, &s.Input) }
func (s *Sort) clone() Operator       { return &Sort{Input: s.Input, Keys: s.Keys} }
func (s *Sort) passesRows() bool      { return true }
func (s *Sort) reset(bool) int {
	s.pos = 0
	return s.in.reset() + wipe(&s.all) + s.order.reset() + wipe(&s.rows)
}

func (s *Sort) Open(ctx *Ctx) error {
	if err := s.Input.Open(ctx); err != nil {
		return err
	}
	s.all, s.rows, s.pos = s.all[:0], s.rows[:0], 0
	s.order.init(s.Keys)
	for {
		if err := s.Input.BatchNext(ctx, &s.in); err != nil {
			return err
		}
		if len(s.in.Rows) == 0 {
			break
		}
		s.order.arena.hint(len(s.in.Rows) * len(s.Keys))
		for _, row := range s.in.Rows {
			key, err := s.order.key(row, &ctx.Env)
			if err != nil {
				return err
			}
			s.all = append(s.all, sortEntry{row: row, keys: s.order.keep(key)})
		}
	}
	slices.SortStableFunc(s.all, func(a, b sortEntry) int { return s.order.cmp(a.keys, b.keys) })
	for _, e := range s.all {
		s.rows = append(s.rows, e.row)
	}
	return nil
}

// BatchNext slices the materialized output.
func (s *Sort) BatchNext(_ *Ctx, b *Batch) error {
	sliceBatch(s.rows, &s.pos, b)
	return nil
}

func (s *Sort) Close() error { return s.Input.Close() }

// ---------------------------------------------------------------- TopN

// TopN is Sort+Limit fused: it keeps only the N smallest rows under the sort
// order in a bounded heap instead of materializing and fully sorting the
// input. Ties resolve by input arrival order, so the output is exactly what
// the stable Sort + Limit pipeline it replaces would produce.
type TopN struct {
	Input Operator
	Keys  []SortKey
	N     Expr // evaluated at Open; non-positive yields no rows

	in   Batch   // input scratch; kept rows are retained, so never Ephemeral
	heap topHeap // the N best rows seen so far
	rows []types.Row
	pos  int
}

func (s *TopN) Columns() []ColInfo    { return s.Input.Columns() }
func (s *TopN) Child(i int) *Operator { return slot(i, &s.Input) }
func (s *TopN) clone() Operator       { return &TopN{Input: s.Input, Keys: s.Keys, N: s.N} }
func (s *TopN) passesRows() bool      { return true }
func (s *TopN) reset(bool) int {
	s.pos = 0
	return s.in.reset() + wipe(&s.heap.entries) + s.heap.order.reset() + wipe(&s.rows)
}

// topHeap is a max-heap under the sort order: the root is the worst row
// currently kept, the one a better incoming row evicts.
type topHeap struct {
	entries []sortEntry
	order   sortOrder
}

func (h *topHeap) cmp(a, b sortEntry) int {
	if c := h.order.cmp(a.keys, b.keys); c != 0 {
		return c
	}
	switch {
	case a.seq < b.seq:
		return -1
	case a.seq > b.seq:
		return 1
	}
	return 0
}

func (h *topHeap) Len() int           { return len(h.entries) }
func (h *topHeap) Less(i, j int) bool { return h.cmp(h.entries[i], h.entries[j]) > 0 }
func (h *topHeap) Swap(i, j int)      { h.entries[i], h.entries[j] = h.entries[j], h.entries[i] }
func (h *topHeap) Push(x any)         { h.entries = append(h.entries, x.(sortEntry)) }
func (h *topHeap) Pop() any {
	last := h.entries[len(h.entries)-1]
	h.entries = h.entries[:len(h.entries)-1]
	return last
}

func (s *TopN) Open(ctx *Ctx) error {
	if err := s.Input.Open(ctx); err != nil {
		return err
	}
	nv, err := s.N.Eval(nil, &ctx.Env)
	if err != nil {
		return err
	}
	n := nv.Int()
	s.rows, s.pos = s.rows[:0], 0
	if n <= 0 {
		return nil
	}
	h := &s.heap
	h.entries = h.entries[:0]
	h.order.init(s.Keys)
	var seq int64
	for {
		if err := s.Input.BatchNext(ctx, &s.in); err != nil {
			return err
		}
		if len(s.in.Rows) == 0 {
			break
		}
		h.order.arena.hint(len(s.in.Rows) * len(s.Keys))
		for _, row := range s.in.Rows {
			key, err := h.order.key(row, &ctx.Env)
			if err != nil {
				return err
			}
			e := sortEntry{row: row, keys: key, seq: seq}
			seq++
			full := int64(h.Len()) >= n
			if full && h.cmp(e, h.entries[0]) >= 0 {
				continue // no better than the worst row kept: its keys are never stored
			}
			e.keys = h.order.keep(key)
			if full {
				h.entries[0] = e
				heap.Fix(h, 0)
			} else {
				// Appended and sifted up in place: heap.Push would box the entry.
				h.entries = append(h.entries, e)
				heap.Fix(h, h.Len()-1)
			}
		}
	}
	slices.SortFunc(h.entries, h.cmp)
	for _, e := range h.entries {
		s.rows = append(s.rows, e.row)
	}
	return nil
}

// BatchNext slices the materialized output.
func (s *TopN) BatchNext(_ *Ctx, b *Batch) error {
	sliceBatch(s.rows, &s.pos, b)
	return nil
}

func (s *TopN) Close() error { return s.Input.Close() }

// ---------------------------------------------------------------- Joins

// HashJoin is an equi-join. The right (build) side is hashed; the left side
// probes. Residual evaluates over the concatenated row.
type HashJoin struct {
	Left, Right         Operator
	LeftKeys, RightKeys []Expr
	LeftOuter           bool // LEFT JOIN: unmatched left rows padded with NULLs
	Residual            Expr
	BuildEst            float64 // optimizer estimate of build-side rows, 0 if unknown

	cols  []ColInfo              // Left's columns then Right's; shared by a template's clones (see Prepare)
	table map[uint64][]types.Row // the build side by key hash

	build   Batch     // build input scratch
	in      Batch     // probe input scratch
	inPos   int       // cursor into in.Rows
	keyBuf  types.Row // probe-key scratch
	rkeyBuf types.Row // candidate right-key scratch
	arena   rowArena  // output rows
	nullPad types.Row // NULL pad for unmatched outer rows
}

func (j *HashJoin) Columns() []ColInfo {
	if j.cols == nil {
		l, r := j.Left.Columns(), j.Right.Columns()
		j.cols = append(append(make([]ColInfo, 0, len(l)+len(r)), l...), r...)
	}
	return j.cols
}

func (j *HashJoin) Child(i int) *Operator { return slot(i, &j.Left, &j.Right) }
func (j *HashJoin) clone() Operator {
	return &HashJoin{
		Left: j.Left, Right: j.Right, LeftKeys: j.LeftKeys, RightKeys: j.RightKeys,
		LeftOuter: j.LeftOuter, Residual: j.Residual, BuildEst: j.BuildEst, cols: j.cols,
	}
}
func (j *HashJoin) passesRows() bool    { return false }
func (j *HashJoin) outArena() *rowArena { return &j.arena }
func (j *HashJoin) reset(result bool) int {
	// The map keeps its buckets; the per-key row lists go.
	n := len(j.table) * hashEntryBytes
	clear(j.table)
	j.inPos = 0
	return n + j.build.reset() + j.in.reset() + wipe(&j.keyBuf) + wipe(&j.rkeyBuf) +
		wipe(&j.nullPad) + j.arena.release(!result)
}

// hashEntryBytes is what one key of a cleared hash table is counted as when
// an instance's kept memory is added up: a bucket slot with its key and value.
const hashEntryBytes = 48

func (j *HashJoin) Open(ctx *Ctx) error {
	if j.table == nil {
		j.table = make(map[uint64][]types.Row, preallocSize(j.BuildEst, 1<<16))
	}
	clear(j.table)
	if err := buildHashTable(ctx, j.Right, j.RightKeys, j.table, &j.build); err != nil {
		return err
	}
	j.in.Rows = j.in.Rows[:0]
	j.inPos = 0
	j.nullPad = j.nullPad[:0]
	for range j.Right.Columns() {
		j.nullPad = append(j.nullPad, types.Null)
	}
	return j.Left.Open(ctx)
}

// buildHashTable opens, drains and closes the build side into table, keyed
// by the join-key hash; in is the scratch window it reads through. Keys are
// evaluated into one reusable buffer and only their hash is kept — the probe
// side re-verifies candidates by value, so the build allocates nothing per
// row beyond the bucket slices. Rows with NULL keys are dropped (they never
// join).
func buildHashTable(ctx *Ctx, build Operator, keys []Expr, table map[uint64][]types.Row, in *Batch) error {
	if err := build.Open(ctx); err != nil {
		return err
	}
	defer build.Close()
	in.Ephemeral = false // the table keeps the rows
	keyBuf := make(types.Row, 0, len(keys))
	for {
		if err := build.BatchNext(ctx, in); err != nil {
			return err
		}
		if len(in.Rows) == 0 {
			return nil
		}
		for _, row := range in.Rows {
			key, null, err := evalKeysInto(keys, row, &ctx.Env, keyBuf)
			keyBuf = key[:0]
			if err != nil {
				return err
			}
			if null {
				continue // NULL keys never join
			}
			h := key.Hash()
			table[h] = append(table[h], row)
		}
	}
}

// evalKeysInto evaluates the join keys over row into a reusable buffer,
// reporting whether any key is NULL; the returned slice aliases buf and is
// only valid until the next call.
func evalKeysInto(keys []Expr, row types.Row, env *Env, buf types.Row) (types.Row, bool, error) {
	buf = buf[:0]
	for _, k := range keys {
		v, err := k.Eval(row, env)
		if err != nil {
			return buf, false, err
		}
		if v.IsNull() {
			return buf, true, nil
		}
		buf = append(buf, v)
	}
	return buf, false, nil
}

// BatchNext probes a batch of left rows against the build table, reusing the
// probe-key buffer and carving output rows from the arena (recycled when the
// consumer pulls Ephemeral). The output batch may exceed BatchSize when a
// probe row matches many build rows.
func (j *HashJoin) BatchNext(ctx *Ctx, b *Batch) error {
	b.Rows = b.Rows[:0]
	j.arena.recycle(b.Ephemeral)
	// Probe rows only ever reach the output as arena concat copies, so the
	// probe side may recycle delivered rows once this window is consumed.
	j.in.Ephemeral = true
	for len(b.Rows) < BatchSize {
		if j.inPos >= len(j.in.Rows) {
			if err := j.Left.BatchNext(ctx, &j.in); err != nil {
				return err
			}
			j.inPos = 0
			if len(j.in.Rows) == 0 {
				return nil
			}
			// Size arena refills to this batch's expected output (~one
			// match per probe row); high-fanout probes refill at the same
			// granularity.
			j.arena.hint(len(j.in.Rows) * len(j.Columns()))
		}
		for j.inPos < len(j.in.Rows) && len(b.Rows) < BatchSize {
			left := j.in.Rows[j.inPos]
			j.inPos++
			key, null, err := evalKeysInto(j.LeftKeys, left, &ctx.Env, j.keyBuf)
			j.keyBuf = key[:0]
			if err != nil {
				return err
			}
			matched := false
			if !null {
				for _, right := range j.table[key.Hash()] {
					rkey, _, err := evalKeysInto(j.RightKeys, right, &ctx.Env, j.rkeyBuf)
					j.rkeyBuf = rkey[:0]
					if err != nil {
						return err
					}
					if types.CompareRows(key, rkey) != 0 {
						continue // hash collision
					}
					combined := j.arena.concat(left, right)
					ok, err := EvalBool(j.Residual, combined, &ctx.Env)
					if err != nil {
						return err
					}
					if ok {
						matched = true
						b.Rows = append(b.Rows, combined)
					}
				}
			}
			if !matched && j.LeftOuter {
				b.Rows = append(b.Rows, j.arena.concat(left, j.nullPad))
			}
		}
	}
	return nil
}

func (j *HashJoin) Close() error { return j.Left.Close() }

// NestedLoop joins with an arbitrary predicate. The right side is
// materialized at Open (its rows are retained, so it is never pulled
// Ephemeral) and rescanned per left row.
type NestedLoop struct {
	Left, Right Operator
	Pred        Expr
	LeftOuter   bool

	cols      []ColInfo // Left's columns then Right's; shared by a template's clones (see Prepare)
	rightRows []types.Row

	in      Batch     // left input scratch
	inPos   int       // cursor into in.Rows
	scratch types.Row // candidate left ++ right row the predicate is tested on
	arena   rowArena  // output rows
}

func (j *NestedLoop) Columns() []ColInfo {
	if j.cols == nil {
		l, r := j.Left.Columns(), j.Right.Columns()
		j.cols = append(append(make([]ColInfo, 0, len(l)+len(r)), l...), r...)
	}
	return j.cols
}

func (j *NestedLoop) Child(i int) *Operator { return slot(i, &j.Left, &j.Right) }
func (j *NestedLoop) clone() Operator {
	return &NestedLoop{Left: j.Left, Right: j.Right, Pred: j.Pred, LeftOuter: j.LeftOuter, cols: j.cols}
}
func (j *NestedLoop) passesRows() bool    { return false }
func (j *NestedLoop) outArena() *rowArena { return &j.arena }
func (j *NestedLoop) reset(result bool) int {
	j.inPos = 0
	return wipe(&j.rightRows) + j.in.reset() + wipe(&j.scratch) + j.arena.release(!result)
}

func (j *NestedLoop) Open(ctx *Ctx) error {
	if err := j.Right.Open(ctx); err != nil {
		return err
	}
	// The right side is drained through the window the left side is read
	// through afterwards; its rows are kept, so this pull is durable.
	j.rightRows, j.in.Ephemeral = j.rightRows[:0], false
	for {
		if err := j.Right.BatchNext(ctx, &j.in); err != nil {
			return err
		}
		if len(j.in.Rows) == 0 {
			break
		}
		j.rightRows = append(j.rightRows, j.in.Rows...)
	}
	j.Right.Close()
	j.in.Rows, j.inPos = j.in.Rows[:0], 0
	j.scratch = j.scratch[:0]
	for range j.Columns() {
		j.scratch = append(j.scratch, types.Null)
	}
	return j.Left.Open(ctx)
}

// BatchNext joins a batch of left rows against the materialized right side.
// Each candidate pair is assembled in one scratch row and copied into the
// arena (recycled when the consumer pulls Ephemeral) only when the predicate
// holds, so rejected pairs cost no storage and the left side may recycle
// delivered rows. A left row's matches are never split across calls, so the
// output batch may exceed BatchSize.
func (j *NestedLoop) BatchNext(ctx *Ctx, b *Batch) error {
	b.Rows = b.Rows[:0]
	j.arena.recycle(b.Ephemeral)
	j.in.Ephemeral = true
	width := len(j.scratch)
	for len(b.Rows) < BatchSize {
		if j.inPos >= len(j.in.Rows) {
			if err := j.Left.BatchNext(ctx, &j.in); err != nil {
				return err
			}
			j.inPos = 0
			if len(j.in.Rows) == 0 {
				return nil
			}
			j.arena.hint(len(j.in.Rows) * width)
		}
		for j.inPos < len(j.in.Rows) && len(b.Rows) < BatchSize {
			left := j.in.Rows[j.inPos]
			j.inPos++
			copy(j.scratch, left)
			matched := false
			for _, right := range j.rightRows {
				copy(j.scratch[len(left):], right)
				ok, err := EvalBool(j.Pred, j.scratch, &ctx.Env)
				if err != nil {
					return err
				}
				if ok {
					matched = true
					out := j.arena.alloc(width)
					copy(out, j.scratch)
					b.Rows = append(b.Rows, out)
				}
			}
			if !matched && j.LeftOuter {
				out := j.arena.alloc(width)
				clear(out[copy(out, left):]) // right columns NULL; a recycled row is not zeroed
				b.Rows = append(b.Rows, out)
			}
		}
	}
	return nil
}

func (j *NestedLoop) Close() error { return j.Left.Close() }

// ---------------------------------------------------------------- UnionAll

// UnionAll concatenates its inputs. Combined with StartupFilters it
// implements ChoosePlan (paper figure 2b).
type UnionAll struct {
	Inputs []Operator

	cur int
}

func (u *UnionAll) Columns() []ColInfo { return u.Inputs[0].Columns() }
func (u *UnionAll) Child(i int) *Operator {
	if i < len(u.Inputs) {
		return &u.Inputs[i]
	}
	return nil
}
func (u *UnionAll) clone() Operator  { return &UnionAll{Inputs: append([]Operator(nil), u.Inputs...)} }
func (u *UnionAll) passesRows() bool { return true }
func (u *UnionAll) reset(bool) int   { u.cur = 0; return 0 }

func (u *UnionAll) Open(ctx *Ctx) error {
	for _, in := range u.Inputs {
		if err := in.Open(ctx); err != nil {
			return err
		}
	}
	u.cur = 0
	return nil
}

// BatchNext delegates to the current input, advancing on its EOS.
func (u *UnionAll) BatchNext(ctx *Ctx, b *Batch) error {
	for u.cur < len(u.Inputs) {
		if err := u.Inputs[u.cur].BatchNext(ctx, b); err != nil {
			return err
		}
		if len(b.Rows) > 0 {
			return nil
		}
		u.cur++
	}
	b.Rows = b.Rows[:0]
	return nil
}

func (u *UnionAll) Close() error {
	var first error
	for _, in := range u.Inputs {
		if err := in.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ---------------------------------------------------------------- Remote

// Remote is the DataTransfer operator: it executes SQL text on the backend
// server and streams the result. Its appearance in a plan is exactly where
// the optimizer placed a DataTransfer enforcer (paper §5). Params are the
// parameters SQLText reads, at their slots: Open sends the backend their
// values by name, and no other parameter of the statement.
type Remote struct {
	leaf
	SQLText string
	Cols    []ColInfo
	Params  []*ParamExpr

	rows []types.Row
	pos  int
	sent Params // the map Open sends, kept for the instance's next execution
}

func (r *Remote) Columns() []ColInfo { return r.Cols }
func (r *Remote) clone() Operator {
	return &Remote{SQLText: r.SQLText, Cols: r.Cols, Params: r.Params}
}

// reset keeps the parameter map, emptied, so a parked instance pins no
// value; the rows are the remote result's, decoded once and handed on as
// they are, and their storage is the execution's Slab's (Open).
func (r *Remote) reset(bool) int {
	n := len(r.sent) * paramEntryBytes
	clear(r.sent)
	r.rows, r.pos = nil, 0
	return n
}

func (r *Remote) Open(ctx *Ctx) error {
	if ctx.Remote == nil {
		return fmt.Errorf("exec: no remote server configured for query %q", r.SQLText)
	}
	var params Params
	if len(r.Params) > 0 {
		if r.sent == nil {
			r.sent = make(Params, len(r.Params))
		}
		for _, p := range r.Params {
			v, err := p.Eval(nil, &ctx.Env)
			if err != nil {
				return err
			}
			r.sent[p.Name] = v
		}
		params = r.sent
	}
	trip := ctx.Rec.RemoteStart(r.SQLText)
	start := time.Now()
	var rs *ResultSet
	var err error
	if trip >= 0 {
		rs, _, err = ctx.Remote.QueryTraced(r.SQLText, params, trace.FormatID(ctx.Rec.ID))
	} else {
		rs, err = ctx.Remote.Query(r.SQLText, params)
	}
	metrics.Default.Histogram("exec.remote_roundtrip_seconds").ObserveDuration(time.Since(start))
	ctx.Rec.RemoteEnd(trip, err)
	if err != nil {
		return fmt.Errorf("exec: remote query failed: %w", err)
	}
	if ctx.Counters != nil {
		ctx.Counters.RemoteQueries++
		ctx.Counters.RowsRemote += int64(len(rs.Rows))
	}
	r.rows = rs.Rows
	r.pos = 0
	ctx.Slab.Adopt(rs)
	return nil
}

// BatchNext slices the fetched result.
func (r *Remote) BatchNext(_ *Ctx, b *Batch) error {
	sliceBatch(r.rows, &r.pos, b)
	return nil
}

func (r *Remote) Close() error {
	r.rows = nil
	return nil
}

// ---------------------------------------------------------------- Values

// Values yields fixed rows (used for SELECT without FROM).
type Values struct {
	leaf
	Cols []ColInfo
	Rows [][]Expr

	pos int
}

func (v *Values) Columns() []ColInfo { return v.Cols }
func (v *Values) clone() Operator    { return &Values{Cols: v.Cols, Rows: v.Rows} }
func (v *Values) reset(bool) int     { v.pos = 0; return 0 }
func (v *Values) Open(*Ctx) error    { v.pos = 0; return nil }

func (v *Values) BatchNext(ctx *Ctx, b *Batch) error {
	b.Rows = b.Rows[:0]
	for v.pos < len(v.Rows) && len(b.Rows) < BatchSize {
		exprs := v.Rows[v.pos]
		v.pos++
		out := make(types.Row, len(exprs))
		for i, e := range exprs {
			val, err := e.Eval(nil, &ctx.Env)
			if err != nil {
				return err
			}
			out[i] = val
		}
		b.Rows = append(b.Rows, out)
	}
	return nil
}

func (v *Values) Close() error { return nil }

// ------------------------------------------------------------- VirtualScan

// VirtualScan yields the rows of a virtual system table (sys.*). The
// provider is called once per Open so a query sees one consistent
// materialization; there is no storage, no transaction and no index path.
type VirtualScan struct {
	leaf
	Name string // full dotted table name, e.g. "sys.query_stats"
	Rows func() []types.Row
	Cols []ColInfo

	rows []types.Row
	pos  int
}

func (s *VirtualScan) Columns() []ColInfo { return s.Cols }
func (s *VirtualScan) clone() Operator {
	return &VirtualScan{Name: s.Name, Rows: s.Rows, Cols: s.Cols}
}
func (s *VirtualScan) reset(bool) int { s.rows, s.pos = nil, 0; return 0 }

func (s *VirtualScan) Open(*Ctx) error {
	s.rows = s.Rows()
	s.pos = 0
	return nil
}

// BatchNext slices the materialized rows.
func (s *VirtualScan) BatchNext(ctx *Ctx, b *Batch) error {
	sliceBatch(s.rows, &s.pos, b)
	if ctx.Counters != nil {
		ctx.Counters.RowsScanned += int64(len(b.Rows))
	}
	return nil
}

func (s *VirtualScan) Close() error {
	s.rows = nil
	return nil
}

// ---------------------------------------------------------------- Distinct

// Distinct removes duplicate rows (hash-based). Every first-seen row is
// both emitted and retained for later comparisons, so the input is never
// pulled Ephemeral.
type Distinct struct {
	Input Operator

	in   Batch // input scratch
	seen map[uint64][]types.Row
}

func (d *Distinct) Columns() []ColInfo    { return d.Input.Columns() }
func (d *Distinct) Child(i int) *Operator { return slot(i, &d.Input) }
func (d *Distinct) clone() Operator       { return &Distinct{Input: d.Input} }
func (d *Distinct) passesRows() bool      { return true }
func (d *Distinct) reset(bool) int {
	n := len(d.seen) * hashEntryBytes
	clear(d.seen)
	return n + d.in.reset()
}

func (d *Distinct) Open(ctx *Ctx) error {
	if d.seen == nil {
		d.seen = make(map[uint64][]types.Row)
	}
	clear(d.seen)
	return d.Input.Open(ctx)
}

// BatchNext keeps pulling input batches until at least one unseen row turns
// up (or EOS), so an all-duplicate batch never reads as end of stream.
func (d *Distinct) BatchNext(ctx *Ctx, b *Batch) error {
	b.Rows = b.Rows[:0]
	for len(b.Rows) == 0 {
		if err := d.Input.BatchNext(ctx, &d.in); err != nil {
			return err
		}
		if len(d.in.Rows) == 0 {
			return nil
		}
	rows:
		for _, row := range d.in.Rows {
			h := row.Hash()
			for _, prev := range d.seen[h] {
				if types.RowsEqual(prev, row) {
					continue rows
				}
			}
			d.seen[h] = append(d.seen[h], row)
			b.Rows = append(b.Rows, row)
		}
	}
	return nil
}

func (d *Distinct) Close() error { return d.Input.Close() }
