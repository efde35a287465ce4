package exec

import (
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"sort"
	"testing"
	"unsafe"
)

// allOperators is one zero value of every Operator implementation in the
// package, the test wrappers included.
var allOperators = []Operator{
	&Scan{}, &IndexScan{}, &Filter{}, &StartupFilter{}, &Project{}, &Limit{},
	&Sort{}, &TopN{}, &HashJoin{}, &IndexJoin{}, &NestedLoop{}, &UnionAll{},
	&Remote{}, &Values{}, &VirtualScan{}, &Distinct{}, &HashAgg{},
	&PartialAgg{}, &FinalAgg{}, &Exchange{}, &Instrumented{},
	&poison{}, &hoard{},
}

// TestAllOperatorsListed keeps allOperators honest: it is exactly the types
// this directory's source declares a clone method on.
func TestAllOperatorsListed(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var declared, listed []string
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Recv == nil || fn.Name.Name != "clone" {
					continue
				}
				recv := fn.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				declared = append(declared, recv.(*ast.Ident).Name)
			}
		}
	}
	for _, op := range allOperators {
		listed = append(listed, reflect.TypeOf(op).Elem().Name())
	}
	sort.Strings(declared)
	sort.Strings(listed)
	if !reflect.DeepEqual(declared, listed) {
		t.Errorf("operators with a clone method: %v\nallOperators:                  %v", declared, listed)
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
	case reflect.Chan:
		v.Set(reflect.MakeChan(v.Type(), 0))
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

// TestOperatorsDescribeThemselves: what an operator says through Child,
// EachExpr and clone is what its fields say by the package's convention —
// exported fields are configuration, unexported fields are run state. Every
// operator is built with every field set, so a field added later and left
// out of one of the three methods fails here instead of planning wrongly.
func TestOperatorsDescribeThemselves(t *testing.T) {
	for _, zero := range allOperators {
		typ := reflect.TypeOf(zero).Elem()
		v := reflect.New(typ)
		fill(v.Elem())
		op := v.Interface().(Operator)

		// The input slots are the exported Operator and []Operator fields,
		// in order; the expressions are what the exported fields of the
		// expression-carrying types hold.
		var wantSlots []*Operator
		wantExprs := map[Expr]bool{}
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
			case *Expr:
				wantExprs[*f] = true
			case *[]Expr:
				for _, e := range *f {
					wantExprs[e] = true
				}
			case *[][]Expr:
				for _, row := range *f {
					for _, e := range row {
						wantExprs[e] = true
					}
				}
			case *[]SortKey:
				for _, k := range *f {
					wantExprs[k.E] = true
				}
			case *[]AggSpec:
				for _, a := range *f {
					wantExprs[a.Arg] = true
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
		exprs := map[Expr]bool{}
		calls := 0
		op.EachExpr(func(e Expr) { exprs[e] = true; calls++ })
		if !reflect.DeepEqual(exprs, wantExprs) || calls != len(wantExprs) {
			t.Errorf("%s: EachExpr yields %d expressions in %d calls, its exported fields hold %d", typ.Name(), len(exprs), calls, len(wantExprs))
		}

		// A clone has the configuration and none of the run state. Its
		// slots hold the same inputs but are its own storage, so assigning
		// through them leaves the original alone.
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
	}
}

// TestCloneOperatorAllocs: a clone costs one allocation per operator plus
// the UnionAll's input slice — walking the slots allocates nothing. The
// engine clones a plan per execution, so anything more is paid per query.
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
