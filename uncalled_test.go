//go:build uncalled

package mtcache

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// uncalledAllowed lists the exported functions and methods that no non-test
// code reaches and that stay anyway, each with its reason. A name is
// "pkg.Func", "pkg.Type.Method" or "pkg" for every export of the package,
// pkg relative to mtcache/internal/. An entry that names nothing uncalled is
// an error: when a name gains a caller or goes, its entry goes too.
var uncalledAllowed = []struct {
	names  []string
	reason string
}{
	{[]string{"advisor.Advice.Format", "advisor.Advice.ProcsToCopy", "advisor.Advice.RecommendedViews",
		"core.CacheServer.CopyProcedure", "core.Conn.Server",
		"wire.Pool.Size", "wire.ResilientClient.Addr", "wire.ResilientClient.Pool"},
		"the root package's API: methods of types it re-exports (mtcache.Advice, Cache, Conn, ConnectionPool, ResilientClient) for a program that embeds the library"},
	{[]string{"engine.Database.IMCache", "engine.Database.Options", "engine.Database.SetOptions", "engine.Database.PlanCacheSize"},
		"tests in core and the root package reach a database's result cache, optimizer options and plan cache through them"},
	{[]string{"exec.Instances.Kept"}, "tests in engine and tpcw count the plan instances a pool keeps"},
	{[]string{"metrics.Registry.Reset", "trace.Collector.Reset"},
		"tests in imcache, opt and engine clear the shared registry or a server's trace ring between cases"},
	{[]string{"sim"}, "reproduces the paper's §6.2 tables from a recorded calibration; its tests drive it until mtbench does (ROADMAP direction 9)"},
	{[]string{"sql.MustParseSelect"}, "tests in catalog, engine, opt, core and the root package build statements with it"},
	{[]string{"storage.Store.CheckpointLSN"}, "tests in core, histcheck and storage/crashtest check recovery against it"},
	{[]string{"storage.Store.SyncedLSN"},
		"repl's TestPullShipsOnlyDurableCommits checks pulls against it, a reference independent of DurableEnd, the bound a pull itself uses"},
	{[]string{"storage/crashtest"}, "the fault-injecting filesystem of the crash-recovery tests, which sit beside it because it imports storage"},
	{[]string{"tpcw.BrowseShare"}, "bench's tests check each workload's mix against the paper's table with it"},
	{[]string{"wire.NewFaultProxy", "wire.FaultProxy.Addr", "wire.FaultProxy.Close", "wire.FaultProxy.Heal",
		"wire.FaultProxy.Partition", "wire.FaultProxy.SetFaults", "wire.FaultProxy.Stats"},
		"the fault-injecting proxy wire's chaos, recovery and property tests run the protocol through"},
}

// TestEveryExportHasACaller type-checks the non-test Go files of this module
// and of the bench module, and fails on each exported function or method of
// a package under internal/ that has no use outside its own body, is needed
// by no interface its type satisfies and is not on uncalledAllowed. A use in
// a test file does not count: a name only tests reach is a second way in
// that production does not take. Type-checking the standard library from
// source takes seconds, so the file is built only with the uncalled tag:
//
//	go test -tags uncalled -run TestEveryExportHasACaller .
func TestEveryExportHasACaller(t *testing.T) {
	fset := token.NewFileSet()
	build.Default.CgoEnabled = false // the source importer then reads the standard library's pure-Go files
	c := &checker{
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		listed:  map[string]listedPackage{},
		checked: map[string]*types.Package{},
		info:    &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}},
		bodies:  map[*types.Func]*ast.FuncDecl{},
	}
	var roots []string
	for _, dir := range []string{".", "bench"} {
		pkgs, err := goList(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pkgs {
			c.listed[p.ImportPath] = p
			roots = append(roots, p.ImportPath)
		}
	}
	for _, path := range roots {
		if _, err := c.load(path); err != nil {
			t.Fatal(err)
		}
	}
	if len(c.checked) < 25 {
		t.Fatalf("type-checked %d packages: not the repository", len(c.checked))
	}

	uses := map[*types.Func]int{}
	for id, obj := range c.info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		fn = fn.Origin()
		if body := c.bodies[fn]; body != nil && body.Pos() <= id.Pos() && id.Pos() < body.End() {
			continue // a recursive call is not a caller
		}
		uses[fn]++
	}
	needed, err := c.interfaceMethods()
	if err != nil {
		t.Fatal(err)
	}

	allowed := map[string]string{}
	for _, a := range uncalledAllowed {
		for _, name := range a.names {
			allowed[name] = a.reason
		}
	}
	matched := map[string]bool{}
	var uncalled []string
	for fn := range c.bodies {
		if !fn.Exported() || uses[fn] > 0 || needed[fn] {
			continue
		}
		name := exportName(fn)
		pkg := strings.TrimPrefix(fn.Pkg().Path(), "mtcache/internal/")
		switch {
		case allowed[name] != "":
			matched[name] = true
		case allowed[pkg] != "":
			matched[pkg] = true
		default:
			uncalled = append(uncalled, name)
		}
	}
	sort.Strings(uncalled)
	for _, name := range uncalled {
		t.Errorf("%s: exported, and nothing but tests calls it (delete it, call it, or allow-list it with a reason)", name)
	}
	for name := range allowed {
		if !matched[name] {
			t.Errorf("uncalledAllowed names %s, which is not an uncalled export: drop the entry", name)
		}
	}
	t.Logf("%d packages type-checked, %d candidate functions and methods, %d uncalled, %d allowed",
		len(c.checked), len(c.bodies), len(uncalled), len(matched))
}

type listedPackage struct {
	Dir, ImportPath string
	GoFiles         []string
}

// goList lists the packages of the module rooted at dir.
func goList(dir string) ([]listedPackage, error) {
	cmd := exec.Command("go", "list", "-json=Dir,ImportPath,GoFiles", "./...")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			err = fmt.Errorf("%w: %s", err, ee.Stderr)
		}
		return nil, fmt.Errorf("go list in %s: %w", dir, err)
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs, nil
		} else if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
}

// checker type-checks listed packages on demand, in import order, into one
// Info, and hands every other import to the standard library's source
// importer.
type checker struct {
	fset    *token.FileSet
	std     types.ImporterFrom
	listed  map[string]listedPackage
	checked map[string]*types.Package
	info    *types.Info
	bodies  map[*types.Func]*ast.FuncDecl // every function and method declared in a library package
}

func (c *checker) Import(path string) (*types.Package, error) {
	return c.ImportFrom(path, "", 0)
}

func (c *checker) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if _, ok := c.listed[path]; ok {
		return c.load(path)
	}
	return c.std.ImportFrom(path, dir, mode)
}

func (c *checker) load(path string) (*types.Package, error) {
	if pkg := c.checked[path]; pkg != nil {
		return pkg, nil
	}
	p := c.listed[path]
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(c.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: c}
	pkg, err := conf.Check(path, c.fset, files, c.info)
	if err != nil {
		return nil, err
	}
	c.checked[path] = pkg
	if strings.HasPrefix(path, "mtcache/internal/") {
		for _, f := range files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					c.bodies[c.info.Defs[fd.Name].(*types.Func)] = fd
				}
			}
		}
	}
	return pkg, nil
}

// interfaceMethods returns every method some type needs to implement an
// interface: for each named type of the module (and a pointer to it) and
// each interface it implements, the methods that interface's methods select
// in its method set, promoted ones included. The interfaces are the named
// ones of every package type-checked or imported, the standard library's
// included, every interface type written in the module, and the ones the
// errors package asserts on inside its functions.
func (c *checker) interfaceMethods() (map[*types.Func]bool, error) {
	var ifaces []*types.Interface
	add := func(typ types.Type) {
		if it, ok := typ.Underlying().(*types.Interface); ok && it.IsMethodSet() && it.NumMethods() > 0 {
			ifaces = append(ifaces, it)
		}
	}
	addScope := func(scope *types.Scope) {
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if named, ok := tn.Type().(*types.Named); !ok || named.TypeParams() == nil {
					add(tn.Type())
				}
			}
		}
	}
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if !seen[pkg] {
			seen[pkg] = true
			addScope(pkg.Scope())
			for _, imp := range pkg.Imports() {
				walk(imp)
			}
		}
	}
	for _, pkg := range c.checked {
		walk(pkg)
	}
	add(types.Universe.Lookup("error").Type())
	for _, tv := range c.info.Types {
		if tv.IsType() {
			add(tv.Type)
		}
	}
	errorsIfaces, err := parser.ParseFile(c.fset, "errors_ifaces.go", `package errors_ifaces
type (
	unwrapper      interface{ Unwrap() error }
	multiUnwrapper interface{ Unwrap() []error }
	iser           interface{ Is(error) bool }
	aser           interface{ As(any) bool }
)`, 0)
	if err != nil {
		return nil, err
	}
	pkg, err := new(types.Config).Check("errors_ifaces", c.fset, []*ast.File{errorsIfaces}, nil)
	if err != nil {
		return nil, err
	}
	addScope(pkg.Scope())

	needed := map[*types.Func]bool{}
	for _, obj := range c.info.Defs {
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		if _, ok := tn.Type().Underlying().(*types.Interface); ok {
			continue
		}
		for _, typ := range []types.Type{tn.Type(), types.NewPointer(tn.Type())} {
			mset := types.NewMethodSet(typ)
			if mset.Len() == 0 {
				continue
			}
			for _, it := range ifaces {
				if mset.Lookup(it.Method(0).Pkg(), it.Method(0).Name()) == nil || !types.Implements(typ, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					m := it.Method(i)
					needed[mset.Lookup(m.Pkg(), m.Name()).Obj().(*types.Func).Origin()] = true
				}
			}
		}
	}
	return needed, nil
}

// exportName renders fn as pkg.Func or pkg.Type.Method, pkg relative to
// mtcache/internal/.
func exportName(fn *types.Func) string {
	name := strings.TrimPrefix(fn.Pkg().Path(), "mtcache/internal/") + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		typ := recv.Type()
		if ptr, ok := typ.(*types.Pointer); ok {
			typ = ptr.Elem()
		}
		name += typ.(*types.Named).Obj().Name() + "."
	}
	return name + fn.Name()
}
