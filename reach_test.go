package spinflow

import (
	"bytes"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// The reachability check: code that only tests reach cannot accumulate.
// It makes three passes over the non-test files of the module:
//   - every exported top-level func, type, const or var must be used;
//   - every exported method of a named type must be called, or belong to
//     the method set of an interface its type (value or pointer)
//     satisfies, where the interface is one the program's code mentions or
//     one the standard library declares (fmt, sort and the like call those
//     through dynamic type assertions);
//   - every exported struct field must be set, since a knob no program
//     sets is a branch no program takes. A field is set when it is the key
//     of a composite literal, when an unkeyed literal fills its struct, or
//     when it lies on the target of an assignment, `++`/`--` or `&` (also
//     the implicit `&` of a pointer-method call), through selector, index,
//     slice and dereference expressions. JSON-tagged fields (decoded from
//     the wire) and fields of a sync/atomic type (set by their methods)
//     count as set.
// It type-checks with the standard library alone: module packages from
// their parsed files, the standard library from the export data the go
// command builds for it (`go list -export`, served from the build cache
// once built).

// reachPkg is one package's parsed non-test files.
type reachPkg struct {
	path  string
	files []*ast.File
}

// reachFinding is one thing the check refuses: an exported identifier,
// method or field no non-test file uses (or, for a field, sets), or a
// non-test import of the test-support package.
type reachFinding struct {
	pos  token.Position
	what string
}

// reachReport is the outcome of one check.
type reachReport struct {
	exported int // exported top-level identifiers seen
	methods  int // exported methods of the module's named types
	fields   int // exported fields of the module's named struct types
	set      int // of those fields, the ones a non-test file sets or that count as set
	allowed  int // identifiers, methods and fields the allowlist exempts
	findings []reachFinding
}

// reachAllowlist exempts exported identifiers, methods and fields that need
// no non-test use. root is the facade package's path, support the
// test-support package's; owner is the named type a method or field
// belongs to, nil for a top-level identifier. Facade functions are not on
// it: each has a caller in examples/ or cmd/.
var reachAllowlist = []struct {
	reason string
	allow  func(root, support, pkg string, owner *types.TypeName, obj types.Object) bool
}{
	{
		reason: "the root package's type aliases and constants name the public API's types",
		allow: func(root, _, pkg string, owner *types.TypeName, obj types.Object) bool {
			if pkg != root || owner != nil {
				return false
			}
			switch o := obj.(type) {
			case *types.Const:
				return true
			case *types.TypeName:
				return o.IsAlias()
			}
			return false
		},
	},
	{
		reason: "the test-support package exists for tests, so its exports are test-only by design",
		allow: func(_, support, pkg string, _ *types.TypeName, _ types.Object) bool {
			return pkg == support
		},
	},
	{
		reason: "metrics.Snapshot's fields are filled by reflection from the same-named Counters fields",
		allow: func(root, _, pkg string, owner *types.TypeName, obj types.Object) bool {
			_, field := obj.(*types.Var)
			return field && pkg == root+"/internal/metrics" && owner.Name() == "Snapshot"
		},
	},
}

// reachAllowed reports whether an allowlist entry exempts obj.
func reachAllowed(root, support, pkg string, owner *types.TypeName, obj types.Object) bool {
	for _, a := range reachAllowlist {
		if a.allow(root, support, pkg, owner, obj) {
			return true
		}
	}
	return false
}

// reachImporter resolves module packages from their parsed files and the
// standard library from export data.
type reachImporter struct {
	fset   *token.FileSet
	byPath map[string]*reachPkg
	done   map[string]*types.Package
	infos  map[string]*types.Info
	std    types.Importer
}

func (im *reachImporter) Import(p string) (*types.Package, error) {
	if tp, ok := im.done[p]; ok {
		return tp, nil
	}
	rp, ok := im.byPath[p]
	if !ok {
		return im.std.Import(p)
	}
	info := &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: im}
	tp, err := conf.Check(p, im.fset, rp.files, info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", p, err)
	}
	im.done[p], im.infos[p] = tp, info
	return tp, nil
}

// testOnlyAPI type-checks pkgs and reports every exported top-level
// identifier that no non-test file of pkgs uses outside its own
// declaration (a method's receiver does not count as a use of its type),
// every exported method no non-test file reaches, every exported field no
// non-test file sets, and every non-test import of support.
func testOnlyAPI(fset *token.FileSet, pkgs []*reachPkg, root, support string) (reachReport, error) {
	var rep reachReport
	im := &reachImporter{
		fset:   fset,
		byPath: map[string]*reachPkg{},
		done:   map[string]*types.Package{},
		infos:  map[string]*types.Info{},
	}
	for _, p := range pkgs {
		im.byPath[p.path] = p
	}
	std, err := stdImporter(fset, pkgs, im.byPath)
	if err != nil {
		return rep, err
	}
	im.std = std
	used := map[types.Object]bool{}
	set := map[*types.Var]bool{}
	var ifaces []*types.Interface // interfaces the program's code mentions
	for _, p := range pkgs {
		if _, err := im.Import(p.path); err != nil {
			return rep, err
		}
		// own maps each top-level declaration's objects to its span; a use
		// inside that span is not a use, nor is a method receiver's type.
		type span struct{ from, to token.Pos }
		info := im.infos[p.path]
		own := map[types.Object]span{}
		recv := map[*ast.Ident]bool{}
		sets := map[*ast.Ident]bool{} // field selectors that set their field
		for _, f := range p.files {
			for _, imp := range f.Imports {
				if strings.Trim(imp.Path.Value, `"`) == support {
					rep.findings = append(rep.findings, reachFinding{
						pos:  fset.Position(imp.Pos()),
						what: p.path + " imports " + support + " from a non-test file",
					})
				}
			}
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv != nil {
						ast.Inspect(d.Recv, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok {
								recv[id] = true
							}
							return true
						})
					}
					if o := info.Defs[d.Name]; o != nil {
						own[o] = span{d.Pos(), d.End()}
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						var names []*ast.Ident
						switch s := s.(type) {
						case *ast.TypeSpec:
							names = []*ast.Ident{s.Name}
						case *ast.ValueSpec:
							names = s.Names
						}
						for _, n := range names {
							if o := info.Defs[n]; o != nil {
								own[o] = span{s.Pos(), s.End()}
							}
						}
					}
				}
			}
			markSets(f, info, sets, set)
		}
		for id, o := range info.Uses {
			switch x := o.(type) {
			case *types.Func:
				o = x.Origin()
			case *types.Var:
				if x.IsField() {
					o = x.Origin()
					if sets[id] {
						continue
					}
				}
			}
			if s, ok := own[o]; recv[id] || ok && s.from <= id.Pos() && id.Pos() < s.to {
				continue
			}
			used[o] = true
		}
		for _, tv := range info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
	}
	ifaces = append(ifaces, stdInterfaces(im.done)...)
	reachedByInterface := reachedMethods(pkgs, im.done, ifaces)
	for _, p := range pkgs {
		scope := im.done[p.path].Scope()
	names:
		for _, name := range scope.Names() {
			o := scope.Lookup(name)
			if tn, ok := o.(*types.TypeName); ok && !tn.IsAlias() {
				rep.members(fset, root, support, p.path, tn, used, set, reachedByInterface)
			}
			if !o.Exported() {
				continue
			}
			rep.exported++
			if reachAllowed(root, support, p.path, nil, o) {
				rep.allowed++
				continue names
			}
			if !used[o] {
				rep.findings = append(rep.findings, reachFinding{
					pos:  fset.Position(o.Pos()),
					what: p.path + "." + name + " has no non-test use",
				})
			}
		}
	}
	sort.Slice(rep.findings, func(i, j int) bool { return rep.findings[i].what < rep.findings[j].what })
	return rep, nil
}

// members checks the exported methods and fields of the named type tn.
// Methods of interface types are not checked (they are called through the
// interface), nor are embedded fields (their members are reached through
// promotion).
func (rep *reachReport) members(fset *token.FileSet, root, support, pkg string, tn *types.TypeName,
	used map[types.Object]bool, set map[*types.Var]bool, reached map[*types.Func]bool) {
	named, ok := tn.Type().(*types.Named)
	if !ok || types.IsInterface(named) {
		return
	}
	prefix := pkg + "." + tn.Name() + "."
	for i := range named.NumMethods() {
		m := named.Method(i)
		if !m.Exported() {
			continue
		}
		rep.methods++
		if reachAllowed(root, support, pkg, tn, m) {
			rep.allowed++
		} else if !used[m] && !reached[m] {
			rep.findings = append(rep.findings, reachFinding{
				pos:  fset.Position(m.Pos()),
				what: prefix + m.Name() + " has no non-test use",
			})
		}
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i := range st.NumFields() {
		f := st.Field(i)
		if !f.Exported() || f.Embedded() {
			continue
		}
		rep.fields++
		_, tagged := reflect.StructTag(st.Tag(i)).Lookup("json")
		if set[f] || tagged || isAtomic(f.Type()) {
			rep.set++
			continue
		}
		if reachAllowed(root, support, pkg, tn, f) {
			rep.allowed++
			continue
		}
		what := " has no non-test use"
		if used[f] {
			what = " is read but no non-test file sets it"
		}
		rep.findings = append(rep.findings, reachFinding{pos: fset.Position(f.Pos()), what: prefix + f.Name() + what})
	}
}

// isAtomic reports whether t is a type of sync/atomic, whose methods set it.
func isAtomic(t types.Type) bool {
	n, ok := types.Unalias(t).(*types.Named)
	return ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "sync/atomic"
}

// markSets records in set every struct field f sets, and in sets every
// selector identifier that names a field it sets: the keys of composite
// literals, every field of an unkeyed literal's struct, and the fields on
// the path of an assignment's, `++`/`--`'s or `&`'s operand (also the
// implicit `&` of a pointer-method call on an addressable field).
func markSets(f *ast.File, info *types.Info, sets map[*ast.Ident]bool, set map[*types.Var]bool) {
	target := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.SelectorExpr:
				if v, ok := info.Uses[x.Sel].(*types.Var); ok && v.IsField() {
					sets[x.Sel], set[v.Origin()] = true, true
				}
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.SliceExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			default:
				return
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				target(l)
			}
		case *ast.IncDecStmt:
			target(n.X)
		case *ast.RangeStmt:
			if n.Tok == token.ASSIGN {
				target(n.Key)
				target(n.Value)
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				target(n.X)
			}
		case *ast.SelectorExpr:
			if s := info.Selections[n]; s != nil && s.Kind() == types.MethodVal {
				if _, ptr := s.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer); ptr {
					if _, isPtr := s.Recv().Underlying().(*types.Pointer); !isPtr {
						target(n.X)
					}
				}
			}
		case *ast.CompositeLit:
			tv, ok := info.Types[n]
			if !ok {
				return true
			}
			t := tv.Type
			if p, ok := t.Underlying().(*types.Pointer); ok {
				t = p.Elem()
			}
			st, ok := t.Underlying().(*types.Struct)
			if !ok || len(n.Elts) == 0 {
				return true
			}
			if _, keyed := n.Elts[0].(*ast.KeyValueExpr); !keyed {
				for i := range st.NumFields() {
					set[st.Field(i).Origin()] = true
				}
				return true
			}
			for _, e := range n.Elts {
				if id, ok := e.(*ast.KeyValueExpr).Key.(*ast.Ident); ok {
					if v, ok := info.Uses[id].(*types.Var); ok {
						sets[id], set[v.Origin()] = true, true
					}
				}
			}
		}
		return true
	})
}

// stdInterfaces returns the interfaces with methods that the standard
// library packages in done's import graph declare at package scope, and
// error: standard-library code reaches their methods by type assertion
// (fmt's Stringer, sort's Interface), so a method in one of them counts as
// reached wherever the type satisfies it.
func stdInterfaces(done map[string]*types.Package) []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		if done[p.Path()] == nil {
			scope := p.Scope()
			for _, name := range scope.Names() {
				if tn, ok := scope.Lookup(name).(*types.TypeName); ok && tn.Exported() {
					if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
						out = append(out, it)
					}
				}
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, p := range done {
		walk(p)
	}
	return out
}

// reachedMethods returns the exported methods of pkgs' named types that
// are reached through one of ifaces: the type or a pointer to it satisfies
// the interface, and the interface has the method. Promoted methods
// resolve to the method they promote.
func reachedMethods(pkgs []*reachPkg, done map[string]*types.Package, ifaces []*types.Interface) map[*types.Func]bool {
	byName := map[string][]*types.Interface{}
	dedup := map[*types.Interface]bool{}
	for _, it := range ifaces {
		if dedup[it] {
			continue
		}
		dedup[it] = true
		for i := range it.NumMethods() {
			if m := it.Method(i); m.Exported() {
				byName[m.Name()] = append(byName[m.Name()], it)
			}
		}
	}
	reached := map[*types.Func]bool{}
	for _, p := range pkgs {
		tp := done[p.path]
		scope := tp.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			ptr := types.NewPointer(tn.Type())
			ms := types.NewMethodSet(ptr)
			tried := map[*types.Interface]bool{}
			for i := range ms.Len() {
				for _, it := range byName[ms.At(i).Obj().Name()] {
					if tried[it] {
						continue
					}
					tried[it] = true
					if !types.Implements(ptr, it) {
						continue
					}
					for j := range it.NumMethods() {
						m := it.Method(j)
						if o, _, _ := types.LookupFieldOrMethod(ptr, false, tp, m.Name()); o != nil {
							if f, ok := o.(*types.Func); ok {
								reached[f.Origin()] = true
							}
						}
					}
				}
			}
		}
	}
	return reached
}

// stdImporter imports the standard-library packages pkgs use from the
// export data `go list -export` reports for them (building it into the
// build cache if it is not there yet); inModule names the module's own
// packages, which are not asked for.
func stdImporter(fset *token.FileSet, pkgs []*reachPkg, inModule map[string]*reachPkg) (types.Importer, error) {
	args := []string{"list", "-export", "-deps", "-f", "{{.ImportPath}} {{.Export}}"}
	seen := map[string]bool{}
	for _, p := range pkgs {
		for _, f := range p.files {
			for _, imp := range f.Imports {
				ip := strings.Trim(imp.Path.Value, `"`)
				if inModule[ip] == nil && !seen[ip] {
					seen[ip] = true
					args = append(args, ip)
				}
			}
		}
	}
	exports := map[string]string{}
	if len(seen) > 0 {
		out, err := exec.Command("go", args...).Output()
		if err != nil {
			return nil, fmt.Errorf("go list -export: %w", err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
			if ip, file, ok := strings.Cut(line, " "); ok && file != "" {
				exports[ip] = file
			}
		}
	}
	return importer.ForCompiler(fset, "gc", func(ip string) (io.ReadCloser, error) {
		file, ok := exports[ip]
		if !ok {
			return nil, fmt.Errorf("no export data for %s", ip)
		}
		return os.Open(file)
	}), nil
}

// loadReachPkgs parses the non-test Go files (build constraints applied)
// of every package under dir, naming each by module + its relative path.
// testdata and hidden directories are skipped, as the go command does.
func loadReachPkgs(fset *token.FileSet, dir, module string) ([]*reachPkg, error) {
	var pkgs []*reachPkg
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if n := d.Name(); p != dir && (n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_")) {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(p, 0)
		var none *build.NoGoError
		if errors.As(err, &none) {
			return nil
		} else if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, p)
		if err != nil {
			return err
		}
		rp := &reachPkg{path: path.Join(module, filepath.ToSlash(rel))}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			rp.files = append(rp.files, f)
		}
		pkgs = append(pkgs, rp)
		return nil
	})
	return pkgs, err
}

// TestNoTestOnlyAPI fails on every exported top-level identifier or
// method of module repro that only tests use, every exported field no
// program sets, and any non-test import of internal/difftest. A hit is
// fixed by deleting it (a knob with the branch it selects), moving it
// into a _test.go file (or into internal/difftest when several packages'
// tests share it), or giving it a non-test caller that a program runs.
func TestNoTestOnlyAPI(t *testing.T) {
	// go list runs beside the type-check; its answer is compared after.
	var out bytes.Buffer
	list := exec.Command("go", "list", "./...")
	list.Stdout = &out
	if err := list.Start(); err != nil {
		t.Fatalf("go list ./...: %v", err)
	}
	fset := token.NewFileSet()
	pkgs, err := loadReachPkgs(fset, ".", "repro")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := testOnlyAPI(fset, pkgs, "repro", "repro/internal/difftest")
	if err != nil {
		t.Fatal(err)
	}
	if err := list.Wait(); err != nil {
		t.Fatalf("go list ./...: %v", err)
	}
	loaded := map[string]bool{}
	for _, p := range pkgs {
		loaded[p.path] = true
	}
	listed := strings.Fields(out.String())
	for _, p := range listed {
		if !loaded[p] {
			t.Errorf("go list reports %s, which the check did not load", p)
		}
	}
	if len(pkgs) != len(listed) || !loaded["repro/bench"] {
		t.Fatalf("loaded %d packages, go list reports %d (repro/bench loaded: %v)", len(pkgs), len(listed), loaded["repro/bench"])
	}
	t.Logf("reachability: %d packages, %d exported top-level identifiers, %d exported methods, %d exported fields (%d set by a program), %d allowlisted by %d entries",
		len(pkgs), rep.exported, rep.methods, rep.fields, rep.set, rep.allowed, len(reachAllowlist))
	for _, f := range rep.findings {
		t.Errorf("%s: %s", f.pos, f.what)
	}
}

// TestNoTestOnlyAPIFixture keeps the check from passing vacuously: in
// testdata/reach, lib.Used has a non-test caller, lib.TestOnly and the
// method Config.Probe only a test caller, Config.Knob is read by the
// program but set only by a test, and app imports the test-support
// package from a non-test file; exactly those four must be flagged. Two
// shapes must not be: Box.Show, reached only through the Shower interface,
// and Pair's fields, set only by an unkeyed literal.
func TestNoTestOnlyAPIFixture(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := loadReachPkgs(fset, filepath.Join("testdata", "reach"), "fixture")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := testOnlyAPI(fset, pkgs, "fixture", "fixture/internal/difftest")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range rep.findings {
		got = append(got, f.what)
	}
	want := []string{
		"fixture/app imports fixture/internal/difftest from a non-test file",
		"fixture/lib.Config.Knob is read but no non-test file sets it",
		"fixture/lib.Config.Probe has no non-test use",
		"fixture/lib.TestOnly has no non-test use",
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("fixture findings = %q, want %q", got, want)
	}
	if rep.allowed != 1 {
		t.Fatalf("fixture allowlisted %d identifiers, want 1 (difftest.Helper)", rep.allowed)
	}
}
