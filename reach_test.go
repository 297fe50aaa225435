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
	"io/fs"
	"os/exec"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The reachability check: every exported top-level func, type, const or
// var of the module must be used by some non-test file, so code that only
// tests reach cannot accumulate. Methods and struct fields are out of
// scope (interfaces and reflection reach them in ways a use scan cannot
// see). It type-checks with the standard library alone: module packages
// from their parsed files, the standard library through the source
// importer.

// reachPkg is one package's parsed non-test files.
type reachPkg struct {
	path  string
	files []*ast.File
}

// reachFinding is one thing the check refuses: an exported identifier no
// non-test file uses, or a non-test import of the test-support package.
type reachFinding struct {
	pos  token.Position
	what string
}

// reachReport is the outcome of one check.
type reachReport struct {
	exported int // exported top-level identifiers seen
	allowed  int // of those, the ones the allowlist exempts
	findings []reachFinding
}

// reachAllowlist exempts exported identifiers that need no non-test use.
// root is the facade package's path, support the test-support package's.
// Facade functions are not on it: each has a caller in examples/ or cmd/.
var reachAllowlist = []struct {
	reason string
	allow  func(root, support, pkg string, obj types.Object) bool
}{
	{
		reason: "the root package's type aliases and constants name the public API's types",
		allow: func(root, _, pkg string, obj types.Object) bool {
			if pkg != root {
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
		allow: func(_, support, pkg string, _ types.Object) bool {
			return pkg == support
		},
	},
}

// reachImporter resolves module packages from their parsed files and the
// standard library from source.
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
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
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
// and every non-test import of support.
func testOnlyAPI(fset *token.FileSet, pkgs []*reachPkg, root, support string) (reachReport, error) {
	// The source importer reads build.Default. The standard library is
	// checked as a cgo-less build: its exported API is the same, and with
	// cgo on the importer would run `go tool cgo` and a C compiler for
	// net and os/user (about a fifth of the check's time).
	saved := build.Default.CgoEnabled
	build.Default.CgoEnabled = false
	defer func() { build.Default.CgoEnabled = saved }()
	im := &reachImporter{
		fset:   fset,
		byPath: map[string]*reachPkg{},
		done:   map[string]*types.Package{},
		infos:  map[string]*types.Info{},
		std:    importer.ForCompiler(fset, "source", nil),
	}
	for _, p := range pkgs {
		im.byPath[p.path] = p
	}
	var rep reachReport
	used := map[types.Object]bool{}
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
					} else if o := info.Defs[d.Name]; o != nil {
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
		}
		for id, o := range info.Uses {
			if f, ok := o.(*types.Func); ok {
				o = f.Origin()
			}
			if s, ok := own[o]; recv[id] || ok && s.from <= id.Pos() && id.Pos() < s.to {
				continue
			}
			used[o] = true
		}
	}
	for _, p := range pkgs {
		scope := im.done[p.path].Scope()
	names:
		for _, name := range scope.Names() {
			o := scope.Lookup(name)
			if !o.Exported() {
				continue
			}
			rep.exported++
			for _, a := range reachAllowlist {
				if a.allow(root, support, p.path, o) {
					rep.allowed++
					continue names
				}
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

// TestNoTestOnlyAPI fails on every exported top-level identifier of
// module repro that only tests use, and on any non-test import of
// internal/difftest. A hit is fixed by deleting the identifier, moving it
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
	t.Logf("reachability: %d packages, %d exported top-level identifiers, %d allowlisted by %d entries",
		len(pkgs), rep.exported, rep.allowed, len(reachAllowlist))
	for _, f := range rep.findings {
		t.Errorf("%s: %s", f.pos, f.what)
	}
}

// TestNoTestOnlyAPIFixture keeps the check from passing vacuously: in
// testdata/reach, lib.Used has a non-test caller, lib.TestOnly only a
// test caller, and app imports the test-support package from a non-test
// file; exactly the last two must be flagged.
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
		"fixture/lib.TestOnly has no non-test use",
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("fixture findings = %q, want %q", got, want)
	}
	if rep.allowed != 1 {
		t.Fatalf("fixture allowlisted %d identifiers, want 1 (difftest.Helper)", rep.allowed)
	}
}
