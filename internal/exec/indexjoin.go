package exec

import (
	"fmt"

	"mtcache/internal/storage"
	"mtcache/internal/types"
)

// IndexJoin is an index nested-loop (lookup) join: for every outer row it
// seeks the inner table's index with the outer row's join-key values and
// joins the rows found. The inner side is not an operator: it is a stored
// table read directly, with the leaf's residual predicate and its
// needed-column projection applied inside the join, so the inner table is
// never scanned, hashed or copied. All seeks of one execution read the
// transaction's MVCC snapshot through one index root pinned at Open; index
// entries left behind by updates and deletes are filtered by row visibility
// plus a key recheck (storage.IndexView.AppendMatches).
type IndexJoin struct {
	Outer     Operator
	OuterKeys []Expr // over the outer row, one per leading index column

	TableName string
	IndexName string    // "__pk" for the primary key index
	InnerCols []ColInfo // inner output schema
	Proj      []int     // stored ordinal of each InnerCols entry
	Pred      Expr      // inner-leaf predicate over the full stored row, nil = none
	Residual  Expr      // join residual over outer ++ projected inner, nil = none
	LeftOuter bool      // LEFT JOIN: unmatched outer rows padded with NULLs

	iv      *storage.IndexView
	cols    []ColInfo
	seeks   int64
	keyBuf  types.Row   // probe-key scratch
	matches []types.Row // stored rows found by the current seek

	in    Batch    // outer input scratch
	inPos int      // cursor into in.Rows
	arena rowArena // output rows
}

func (j *IndexJoin) Columns() []ColInfo {
	if j.cols == nil {
		outer := j.Outer.Columns()
		j.cols = append(append(make([]ColInfo, 0, len(outer)+len(j.InnerCols)), outer...), j.InnerCols...)
	}
	return j.cols
}

func (j *IndexJoin) Child(i int) *Operator { return slot(i, &j.Outer) }
func (j *IndexJoin) EachExpr(fn func(Expr)) {
	visit(fn, j.OuterKeys...)
	visit(fn, j.Pred, j.Residual)
}
func (j *IndexJoin) clone() Operator {
	return &IndexJoin{
		Outer: j.Outer, OuterKeys: j.OuterKeys, TableName: j.TableName, IndexName: j.IndexName,
		InnerCols: j.InnerCols, Proj: j.Proj, Pred: j.Pred, Residual: j.Residual, LeftOuter: j.LeftOuter,
	}
}

func (j *IndexJoin) passesRows() bool { return false }
func (j *IndexJoin) reset(result bool) int {
	j.iv, j.cols, j.seeks, j.inPos = nil, nil, 0, 0
	return wipe(&j.keyBuf) + wipe(&j.matches) + j.in.reset() + j.arena.release(!result)
}

// Seeks reports the index seeks of the last execution (EXPLAIN ANALYZE).
func (j *IndexJoin) Seeks() int64 { return j.seeks }

func (j *IndexJoin) Open(ctx *Ctx) error {
	td := ctx.Txn.Table(j.TableName)
	if td == nil {
		if err := ctx.Txn.Err(); err != nil {
			return err
		}
		return fmt.Errorf("exec: table %s does not exist", j.TableName)
	}
	if j.iv = td.Index(j.IndexName); j.iv == nil {
		return fmt.Errorf("exec: index %s on %s does not exist", j.IndexName, j.TableName)
	}
	j.seeks = 0
	j.in.Rows, j.inPos = j.in.Rows[:0], 0
	return j.Outer.Open(ctx)
}

// seek loads j.matches with the stored rows joining outer: visible rows
// under the outer row's key that pass the leaf predicate. A NULL key joins
// nothing.
func (j *IndexJoin) seek(ctx *Ctx, outer types.Row) error {
	j.matches = j.matches[:0]
	key, null, err := evalKeysInto(j.OuterKeys, outer, &ctx.Env, j.keyBuf)
	j.keyBuf = key[:0]
	if err != nil || null {
		return err
	}
	j.seeks++
	j.matches = j.iv.AppendMatches(j.matches, key)
	if ctx.Counters != nil {
		ctx.Counters.RowsScanned += int64(len(j.matches))
	}
	if j.Pred == nil {
		return nil
	}
	kept := j.matches[:0]
	for _, row := range j.matches {
		ok, err := EvalBool(j.Pred, row, &ctx.Env)
		if err != nil {
			return err
		}
		if ok {
			kept = append(kept, row)
		}
	}
	j.matches = kept
	return nil
}

// fill writes outer ++ projected inner into out; a nil inner makes the
// inner columns NULL (the LEFT JOIN pad).
func (j *IndexJoin) fill(out, outer, inner types.Row) {
	copy(out, outer)
	if inner == nil {
		clear(out[len(outer):]) // a recycled row is not zeroed
		return
	}
	for i, c := range j.Proj {
		out[len(outer)+i] = inner[c]
	}
}

// BatchNext joins a batch of outer rows, carving output rows from the arena
// (recycled when the consumer pulls Ephemeral). Outer rows only reach the
// output as copies, so the outer side may recycle delivered rows. The output
// batch may exceed BatchSize when one outer row finds many inner rows.
func (j *IndexJoin) BatchNext(ctx *Ctx, b *Batch) error {
	b.Rows = b.Rows[:0]
	j.arena.recycle(b.Ephemeral)
	j.in.Ephemeral = true
	width := len(j.Columns())
	for len(b.Rows) < BatchSize {
		if j.inPos >= len(j.in.Rows) {
			if err := j.Outer.BatchNext(ctx, &j.in); err != nil {
				return err
			}
			j.inPos = 0
			if len(j.in.Rows) == 0 {
				return nil
			}
			j.arena.hint(len(j.in.Rows) * width)
		}
		for j.inPos < len(j.in.Rows) && len(b.Rows) < BatchSize {
			outer := j.in.Rows[j.inPos]
			j.inPos++
			if err := j.seek(ctx, outer); err != nil {
				return err
			}
			matched := false
			for _, inner := range j.matches {
				out := j.arena.alloc(width)
				j.fill(out, outer, inner)
				ok, err := EvalBool(j.Residual, out, &ctx.Env)
				if err != nil {
					return err
				}
				if ok {
					matched = true
					b.Rows = append(b.Rows, out)
				}
			}
			if !matched && j.LeftOuter {
				out := j.arena.alloc(width)
				j.fill(out, outer, nil)
				b.Rows = append(b.Rows, out)
			}
		}
	}
	return nil
}

func (j *IndexJoin) Close() error {
	j.iv = nil
	return j.Outer.Close()
}
