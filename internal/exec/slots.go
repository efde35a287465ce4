package exec

// Dense parameter slots: AssignParamSlots runs once per plan (the optimizer
// calls it from finish()) and burns a slot index into every ParamExpr, so
// per-row parameter access on the hot path is a slice load instead of a
// map[string] lookup. Slots are 1-based inside ParamExpr — the zero value
// means "unslotted, resolve by name" — which keeps hand-built ParamExpr
// literals (tests, CompileScalar for DML) working unchanged.

// AssignParamSlots assigns every ParamExpr reachable from root a dense slot
// and returns the parameter names in slot order. Idempotent: parameters are
// slotted by first appearance, and expressions shared between operators get
// the same slot on every visit.
func AssignParamSlots(root Operator) []string {
	var names []string
	index := map[string]int{}
	WalkExprs(root, func(e Expr) {
		walkExprTree(e, func(x Expr) {
			if p, ok := x.(*ParamExpr); ok {
				i, seen := index[p.Name]
				if !seen {
					i = len(names)
					index[p.Name] = i
					names = append(names, p.Name)
				}
				p.slot = i + 1
			}
		})
	})
	return names
}

// WalkExprs invokes fn on every compiled expression attached to the operator
// tree rooted at op (including nil-checked optional ones).
func WalkExprs(op Operator, fn func(Expr)) {
	visit := func(e Expr) {
		if e != nil {
			fn(e)
		}
	}
	switch x := op.(type) {
	case *Scan, *Remote, *VirtualScan:
	case *IndexScan:
		for _, e := range x.Lo {
			visit(e)
		}
		for _, e := range x.Hi {
			visit(e)
		}
	case *Filter:
		visit(x.Pred)
		WalkExprs(x.Input, fn)
	case *StartupFilter:
		visit(x.Guard)
		WalkExprs(x.Input, fn)
	case *Project:
		for _, e := range x.Exprs {
			visit(e)
		}
		WalkExprs(x.Input, fn)
	case *Limit:
		visit(x.N)
		WalkExprs(x.Input, fn)
	case *Sort:
		for _, k := range x.Keys {
			visit(k.E)
		}
		WalkExprs(x.Input, fn)
	case *TopN:
		visit(x.N)
		for _, k := range x.Keys {
			visit(k.E)
		}
		WalkExprs(x.Input, fn)
	case *Distinct:
		WalkExprs(x.Input, fn)
	case *HashJoin:
		for _, e := range x.LeftKeys {
			visit(e)
		}
		for _, e := range x.RightKeys {
			visit(e)
		}
		visit(x.Residual)
		WalkExprs(x.Left, fn)
		WalkExprs(x.Right, fn)
	case *IndexJoin:
		for _, e := range x.OuterKeys {
			visit(e)
		}
		visit(x.Pred)
		visit(x.Residual)
		WalkExprs(x.Outer, fn)
	case *NestedLoop:
		visit(x.Pred)
		WalkExprs(x.Left, fn)
		WalkExprs(x.Right, fn)
	case *UnionAll:
		for _, in := range x.Inputs {
			WalkExprs(in, fn)
		}
	case *HashAgg:
		for _, e := range x.GroupBy {
			visit(e)
		}
		for _, a := range x.Aggs {
			visit(a.Arg)
		}
		WalkExprs(x.Input, fn)
	case *PartialAgg:
		for _, e := range x.GroupBy {
			visit(e)
		}
		for _, a := range x.Aggs {
			visit(a.Arg)
		}
		WalkExprs(x.Input, fn)
	case *FinalAgg:
		for _, a := range x.Aggs {
			visit(a.Arg)
		}
		WalkExprs(x.Input, fn)
	case *Exchange:
		WalkExprs(x.Template, fn)
	case *Values:
		for _, row := range x.Rows {
			for _, e := range row {
				visit(e)
			}
		}
	case *Instrumented:
		WalkExprs(x.Op, fn)
	}
}

// walkExprTree invokes fn on e and every subexpression.
func walkExprTree(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch x := e.(type) {
	case *BinExpr:
		walkExprTree(x.L, fn)
		walkExprTree(x.R, fn)
	case *NotExpr:
		walkExprTree(x.X, fn)
	case *NegExpr:
		walkExprTree(x.X, fn)
	case *LikeMatch:
		walkExprTree(x.X, fn)
		walkExprTree(x.Pattern, fn)
	case *InMatch:
		walkExprTree(x.X, fn)
		for _, le := range x.List {
			walkExprTree(le, fn)
		}
	case *BetweenMatch:
		walkExprTree(x.X, fn)
		walkExprTree(x.Lo, fn)
		walkExprTree(x.Hi, fn)
	case *IsNullMatch:
		walkExprTree(x.X, fn)
	case *CaseMatch:
		for _, w := range x.Whens {
			walkExprTree(w.Cond, fn)
			walkExprTree(w.Then, fn)
		}
		walkExprTree(x.Else, fn)
	case *ScalarFunc:
		for _, a := range x.Args {
			walkExprTree(a, fn)
		}
	}
}
