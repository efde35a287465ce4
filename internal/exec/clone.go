package exec

import "fmt"

// CloneOperator deep-copies an operator tree's structure, leaving runtime
// state (cursors, hash tables, buffers) fresh. Compiled expressions are
// immutable and shared.
//
// This is what makes the engine's plan cache safe: a cached plan may be
// executed by many sessions concurrently, so each execution runs a private
// clone of the operator tree.
func CloneOperator(op Operator) Operator {
	switch x := op.(type) {
	case *Scan:
		return &Scan{TableName: x.TableName, Cols: x.Cols, Parallel: x.Parallel}
	case *IndexScan:
		return &IndexScan{TableName: x.TableName, IndexName: x.IndexName, Cols: x.Cols, Lo: x.Lo, Hi: x.Hi, Parallel: x.Parallel, EstRows: x.EstRows}
	case *Filter:
		return &Filter{Input: CloneOperator(x.Input), Pred: x.Pred}
	case *StartupFilter:
		return &StartupFilter{Input: CloneOperator(x.Input), Guard: x.Guard, Else: x.Else, Branch: x.Branch}
	case *Project:
		return &Project{Input: CloneOperator(x.Input), Exprs: x.Exprs, Cols: x.Cols}
	case *Limit:
		return &Limit{Input: CloneOperator(x.Input), N: x.N}
	case *Sort:
		return &Sort{Input: CloneOperator(x.Input), Keys: x.Keys}
	case *Distinct:
		return &Distinct{Input: CloneOperator(x.Input)}
	case *HashJoin:
		return &HashJoin{
			Left: CloneOperator(x.Left), Right: CloneOperator(x.Right),
			LeftKeys: x.LeftKeys, RightKeys: x.RightKeys,
			LeftOuter: x.LeftOuter, Residual: x.Residual, BuildEst: x.BuildEst,
			ShareBuild: x.ShareBuild,
		}
	case *IndexJoin:
		return &IndexJoin{
			Outer: CloneOperator(x.Outer), OuterKeys: x.OuterKeys,
			TableName: x.TableName, IndexName: x.IndexName,
			InnerCols: x.InnerCols, Proj: x.Proj,
			Pred: x.Pred, Residual: x.Residual, LeftOuter: x.LeftOuter,
		}
	case *NestedLoop:
		return &NestedLoop{
			Left: CloneOperator(x.Left), Right: CloneOperator(x.Right),
			Pred: x.Pred, LeftOuter: x.LeftOuter,
		}
	case *UnionAll:
		inputs := make([]Operator, len(x.Inputs))
		for i, in := range x.Inputs {
			inputs[i] = CloneOperator(in)
		}
		return &UnionAll{Inputs: inputs}
	case *HashAgg:
		return &HashAgg{Input: CloneOperator(x.Input), GroupBy: x.GroupBy, Aggs: x.Aggs, Cols: x.Cols}
	case *PartialAgg:
		return &PartialAgg{Input: CloneOperator(x.Input), GroupBy: x.GroupBy, Aggs: x.Aggs, Cols: x.Cols}
	case *FinalAgg:
		return &FinalAgg{Input: CloneOperator(x.Input), GroupKeys: x.GroupKeys, Aggs: x.Aggs, Cols: x.Cols}
	case *TopN:
		return &TopN{Input: CloneOperator(x.Input), Keys: x.Keys, N: x.N}
	case *Exchange:
		// The template is cloned too: each execution then binds partitions
		// and shared builds on a private tree.
		return &Exchange{Template: CloneOperator(x.Template), DOP: x.DOP}
	case *Remote:
		return &Remote{SQLText: x.SQLText, Cols: x.Cols}
	case *Values:
		return &Values{Cols: x.Cols, Rows: x.Rows}
	case *VirtualScan:
		return &VirtualScan{Name: x.Name, Rows: x.Rows, Cols: x.Cols}
	case *Instrumented:
		return &Instrumented{Op: CloneOperator(x.Op)}
	}
	panic(fmt.Sprintf("exec: CloneOperator: unknown operator %T", op))
}
