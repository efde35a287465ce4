package exec

// CloneOperator deep-copies an operator tree's structure, leaving runtime
// state (cursors, hash tables, buffers) fresh. Compiled expressions are
// immutable and shared.
//
// This is what makes the engine's plan cache safe: a cached plan may be
// executed by many sessions concurrently, so each execution runs a private
// clone of the operator tree.
func CloneOperator(op Operator) Operator {
	c := op.clone()
	for i := 0; c.Child(i) != nil; i++ {
		in := c.Child(i)
		*in = CloneOperator(*in)
	}
	return c
}
