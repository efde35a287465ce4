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
// tree rooted at op, an operator's own before its inputs'.
func WalkExprs(op Operator, fn func(Expr)) {
	op.EachExpr(fn)
	for i := 0; op.Child(i) != nil; i++ {
		WalkExprs(*op.Child(i), fn)
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
