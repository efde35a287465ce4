package exec

import (
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"sort"
	"strconv"
	"testing"
	"unsafe"
)

// allOperators is one zero value of every Operator implementation in the
// package, the test wrappers included.
var allOperators = []Operator{
	&Scan{}, &IndexScan{}, &Filter{}, &StartupFilter{}, &Project{}, &Limit{},
	&Sort{}, &TopN{}, &HashJoin{}, &IndexJoin{}, &NestedLoop{}, &UnionAll{},
	&Remote{}, &Values{}, &VirtualScan{}, &Distinct{}, &HashAgg{},
	&Instrumented{}, &poison{}, &hoard{},
}

// TestAllOperatorsListed keeps allOperators honest: it is exactly the types
// this directory's source declares a clone method on, and exactly the types
// it declares a reset method on. (That each of them has both is the
// compiler's doing: the slice would not build otherwise.)
func TestAllOperatorsListed(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string][]string{}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Recv == nil || fn.Type.Results == nil || fn.Type.Results.NumFields() != 1 {
					continue
				}
				result, _ := fn.Type.Results.List[0].Type.(*ast.Ident)
				if result == nil || !(fn.Name.Name == "clone" && result.Name == "Operator" || fn.Name.Name == "reset" && fn.Type.Params.NumFields() == 1) {
					continue // reset(bool) int is the operators'; the helpers' resets take none
				}
				recv := fn.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				declared[fn.Name.Name] = append(declared[fn.Name.Name], recv.(*ast.Ident).Name)
			}
		}
	}
	var listed []string
	for _, op := range allOperators {
		listed = append(listed, reflect.TypeOf(op).Elem().Name())
	}
	sort.Strings(listed)
	for _, method := range []string{"clone", "reset"} {
		sort.Strings(declared[method])
		if !reflect.DeepEqual(declared[method], listed) {
			t.Errorf("operators with a %s method: %v\nallOperators:                  %v", method, declared[method], listed)
		}
	}
}

var (
	operatorType = reflect.TypeOf((*Operator)(nil)).Elem()
	exprType     = reflect.TypeOf((*Expr)(nil)).Elem()
)

// fill sets v, and everything settable inside it, to a value that is not the
// zero value; every Operator and Expr it makes is a distinct pointer.
func fill(v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(7)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		v.SetUint(7)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(1.5)
	case reflect.String:
		v.SetString("x")
	case reflect.UnsafePointer: // a types.Value's string bytes: room for the 7 a filled length says
		v.SetPointer(unsafe.Pointer(new([7]byte)))
	case reflect.Interface:
		switch v.Type() {
		case operatorType:
			v.Set(reflect.ValueOf(&Values{}))
		case exprType:
			v.Set(reflect.ValueOf(&ConstExpr{}))
		default: // error
			v.Set(reflect.ValueOf(context.Canceled))
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		fill(v.Index(0))
		fill(v.Index(1))
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
	case reflect.Func:
		v.Set(reflect.MakeFunc(v.Type(), func([]reflect.Value) []reflect.Value {
			return []reflect.Value{reflect.Zero(v.Type().Out(0))}
		}))
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			// Unexported fields too: run state must be set for a clone to
			// show that it does not copy it.
			fill(reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem())
		}
	default:
		panic("fill: " + v.Kind().String())
	}
}

// TestOperatorsDescribeThemselves: what an operator says through Child and
// clone is what its fields say by the package's convention —
// exported fields are configuration, unexported fields are run state. Every
// operator is built with every field set, so a field added later and left
// out of one of the two methods fails here instead of planning wrongly.
func TestOperatorsDescribeThemselves(t *testing.T) {
	for _, zero := range allOperators {
		typ := reflect.TypeOf(zero).Elem()
		v := reflect.New(typ)
		fill(v.Elem())
		op := v.Interface().(Operator)

		// The input slots are the exported Operator and []Operator fields,
		// in order.
		var wantSlots []*Operator
		for i := 0; i < typ.NumField(); i++ {
			if !typ.Field(i).IsExported() {
				continue
			}
			switch f := v.Elem().Field(i).Addr().Interface().(type) {
			case *Operator:
				wantSlots = append(wantSlots, f)
			case *[]Operator:
				for k := range *f {
					wantSlots = append(wantSlots, &(*f)[k])
				}
			}
		}
		var slots []*Operator
		for i := 0; op.Child(i) != nil; i++ {
			slots = append(slots, op.Child(i))
		}
		if len(slots) != len(wantSlots) {
			t.Fatalf("%s: Child yields %d slots, its exported Operator fields are %d", typ.Name(), len(slots), len(wantSlots))
		}
		for i := range slots {
			if slots[i] != wantSlots[i] {
				t.Errorf("%s: Child(%d) is not input field %d itself", typ.Name(), i, i)
			}
		}
		// A clone has the configuration, the original's shared state and
		// none of the run state. Its slots hold the same inputs but are its
		// own storage, so assigning through them leaves the original alone.
		c := reflect.ValueOf(op.clone())
		if c.Type() != v.Type() {
			t.Fatalf("%s clones as %s", typ.Name(), c.Type())
		}
		for i := 0; i < typ.NumField(); i++ {
			f, orig, cloned := typ.Field(i), v.Elem().Field(i), c.Elem().Field(i)
			switch {
			case typ == reflect.TypeOf(Instrumented{}) && f.Name == "Stats":
				// Run state, exported for EXPLAIN ANALYZE to read.
				if !cloned.IsZero() {
					t.Errorf("Instrumented: a clone starts with Stats %+v", cloned.Interface())
				}
			case sharedState[typ.Name()+"."+f.Name]:
				if !identical(cloned, orig) {
					t.Errorf("%s: a clone does not share %s with the original", typ.Name(), f.Name)
				}
			case !f.IsExported():
				if !cloned.IsZero() {
					t.Errorf("%s: a clone copies the run state in %s", typ.Name(), f.Name)
				}
			case f.Type.Kind() == reflect.Func:
				if cloned.Pointer() != orig.Pointer() {
					t.Errorf("%s: a clone loses %s", typ.Name(), f.Name)
				}
			case !reflect.DeepEqual(cloned.Interface(), orig.Interface()):
				t.Errorf("%s: a clone has %s = %+v, the original %+v", typ.Name(), f.Name, cloned.Interface(), orig.Interface())
			}
		}
		cop := c.Interface().(Operator)
		for i := range slots {
			if cs := cop.Child(i); cs == nil || cs == slots[i] || *cs != *slots[i] {
				t.Errorf("%s: slot %d of a clone must be its own and hold the original's input", typ.Name(), i)
			}
		}

		// A reset leaves the configuration alone and takes the run state
		// back to a clone's, except for the buffers on the allow-list, which
		// stay with nothing in them. Whether the output arena stays depends
		// on whether its rows went into a result.
		for _, result := range []bool{true, false} {
			v := reflect.New(typ)
			fill(v.Elem())
			before := reflect.New(typ).Elem()
			before.Set(v.Elem())
			v.Interface().(Operator).reset(result)
			checkOperatorReset(t, v.Elem(), before, result)
		}
	}
}

// checkOperatorReset checks one operator that has just been reset against
// what it was before (only its configuration is compared).
func checkOperatorReset(t *testing.T, now, was reflect.Value, result bool) {
	t.Helper()
	typ := now.Type()
	for i := 0; i < typ.NumField(); i++ {
		f, now := typ.Field(i), now.Field(i)
		name := typ.Name() + "." + f.Name
		switch {
		case name == "Instrumented.Stats":
			if !now.IsZero() {
				t.Errorf("Instrumented: Stats survive a reset: %+v", now.Interface())
			}
		case name == "hoard.kept" || name == "hoard.copies":
			// What the test machine hoards is its evidence.
		case sharedState[name]:
			if !identical(now, was.Field(i)) {
				t.Errorf("%s: reset(%v) changes the state shared with the template", name, result)
			}
		case !f.IsExported():
			checkReset(t, name, now, result)
		case f.Type.Kind() == reflect.Func:
			if now.Pointer() != was.Field(i).Pointer() {
				t.Errorf("%s: reset(%v) changes the configuration", name, result)
			}
		case !reflect.DeepEqual(now.Interface(), was.Field(i).Interface()):
			t.Errorf("%s: reset(%v) changes the configuration to %+v", name, result, now.Interface())
		}
	}
}

// sharedState is what a template shares with its clones: the unexported
// fields that are not run state but derived from the configuration, once per
// plan, by Prepare. A clone copies them and reset leaves them alone, so they
// are accepted in a clone or a released instance only if they are identical
// to the template's — the same pointer, the same slice — never merely equal.
var sharedState = map[string]bool{
	"Filter.vp": true, "Filter.compiled": true,
	"HashJoin.cols": true, "IndexJoin.cols": true, "NestedLoop.cols": true,
}

// identical reports whether two values of a field on sharedState are one:
// the same pointer, the same slice (array, length and capacity), the same
// flag.
func identical(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Pointer:
		return a.Pointer() == b.Pointer()
	case reflect.Slice:
		return a.Pointer() == b.Pointer() && a.Len() == b.Len() && a.Cap() == b.Cap()
	case reflect.Bool:
		return a.Bool() == b.Bool()
	}
	panic("identical: " + a.Kind().String())
}

// resetKeeps is the allow-list of reset: the unexported fields that may be
// something other than zero afterwards. Each is a buffer — a slice of length
// zero whose whole capacity is zeroed, a Batch or sortOrder made of such, an
// empty map, or a rowArena holding one zeroed chunk and the size it has
// learned to make the next one. Everything not named here reads as it does
// in a fresh clone.
var resetKeeps = map[string]bool{
	"Scan.rhs":       true,
	"IndexScan.rids": true, "IndexScan.lo": true, "IndexScan.hi": true, "IndexScan.rhs": true,
	"Filter.in": true, "Filter.rhs": true,
	"Project.in": true, "Project.arena": true, "Project.cols": true, "Limit.in": true,
	"Sort.in": true, "Sort.all": true, "Sort.order": true, "Sort.rows": true,
	"TopN.in": true, "TopN.heap": true, "TopN.rows": true,
	"HashJoin.table": true, "HashJoin.build": true, "HashJoin.in": true, "HashJoin.keyBuf": true,
	"HashJoin.rkeyBuf": true, "HashJoin.arena": true, "HashJoin.nullPad": true,
	"IndexJoin.keyBuf": true, "IndexJoin.matches": true, "IndexJoin.in": true, "IndexJoin.arena": true,
	"NestedLoop.rightRows": true, "NestedLoop.in": true, "NestedLoop.scratch": true, "NestedLoop.arena": true,
	"Distinct.in": true, "Distinct.seen": true, "Remote.sent": true,
	"HashAgg.table": true, "HashAgg.arena": true, "HashAgg.out": true,
	"poison.in": true, "poison.delivered": true,
}

// outputArenas are the arenas whose rows an operator emits: kept by
// reset(false), forgotten by reset(true).
var outputArenas = map[string]bool{
	"Project.arena": true, "HashJoin.arena": true, "IndexJoin.arena": true, "NestedLoop.arena": true,
	"HashAgg.arena": true,
}

// checkReset fails unless v, the unexported field called name of an operator
// that has just been reset, is zero or an empty buffer on the allow-list.
func checkReset(t *testing.T, name string, v reflect.Value, result bool) {
	t.Helper()
	if v.IsZero() {
		return
	}
	if !resetKeeps[name] {
		t.Errorf("%s: reset leaves run state behind that is not on the allow-list", name)
		return
	}
	if result && outputArenas[name] {
		t.Errorf("%s: the rows are in a result, and reset keeps the arena", name)
		return
	}
	if what := notEmpty(v); what != "" {
		t.Errorf("%s: reset keeps a buffer with something in it: %s", name, what)
	}
}

// notEmpty says what a kept buffer still holds, "" for nothing: slices have
// length zero and are zero over their capacity, maps are empty, and so on
// through the structs buffers are made of; any other value is zero. A
// rowArena may also hold its unused tail (all of the one chunk, zeroed) and
// the floor it learned.
func notEmpty(v reflect.Value) string {
	switch v.Kind() {
	case reflect.Slice:
		if v.Len() != 0 {
			return "a slice of length " + strconv.Itoa(v.Len())
		}
		full := v.Slice(0, v.Cap())
		for i := 0; i < full.Len(); i++ {
			if !full.Index(i).IsZero() {
				return "a slice with element " + strconv.Itoa(i) + " of its capacity set"
			}
		}
	case reflect.Map:
		if v.Len() != 0 {
			return "a map of " + strconv.Itoa(v.Len())
		}
	case reflect.Struct:
		if v.Type() == reflect.TypeOf(rowArena{}) {
			a := (*rowArena)(unsafe.Pointer(v.UnsafeAddr()))
			if len(a.buf) != len(a.base) || len(a.base) > 0 && &a.buf[0] != &a.base[0] {
				return "an arena that does not start at the head of its chunk"
			}
			for i := range a.base {
				if !reflect.ValueOf(a.base[i]).IsZero() {
					return "an arena whose chunk is not cleared"
				}
			}
			if a.chunk != 0 || a.eph || a.mark != nil || a.used != 0 || a.live != 0 || a.peak != 0 {
				return "an arena in the middle of a run"
			}
			return ""
		}
		for i := 0; i < v.NumField(); i++ {
			if what := notEmpty(v.Field(i)); what != "" {
				return v.Type().Field(i).Name + ": " + what
			}
		}
	default:
		if !v.IsZero() {
			return "a " + v.Kind().String() + " that is set"
		}
	}
	return ""
}

// TestCloneOperatorAllocs: a clone costs one allocation per operator plus
// the UnionAll's input slice — walking the slots allocates nothing. The
// engine clones a plan whenever its free list is empty, so anything more is
// paid on every first and every overlapping execution.
func TestCloneOperatorAllocs(t *testing.T) {
	tree := &UnionAll{Inputs: []Operator{
		&StartupFilter{Input: &Project{Input: &HashJoin{
			Left:  &Scan{},
			Right: &Filter{Input: &IndexJoin{Outer: &IndexScan{}}},
		}}},
		&StartupFilter{Input: &Remote{}},
	}}
	const operators = 10
	var sink Operator
	if allocs := testing.AllocsPerRun(100, func() { sink = CloneOperator(tree) }); allocs != operators+1 {
		t.Errorf("cloning %d operators, one a UnionAll, allocates %v times", operators, allocs)
	}
	_ = sink
}
