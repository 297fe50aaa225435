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
//     sets is a branch no program takes. A field is written when it is the
//     key of a composite literal, when an unkeyed literal fills its struct,
//     or when it lies on the target of an assignment, `++`/`--` or `&` (also
//     the implicit `&` of a pointer-method call), through selector, index,
//     slice and dereference expressions. Most writes set their field, but
//     the check follows values through three rules:
//     (a) a copy — a write whose value is only another exported field,
//     through parentheses or one-argument type conversions — sets its
//     target only if its source is set, solved to a fixed point (so a
//     value that makes a round trip through a wire struct and back sets
//     neither end);
//     (b) a default fill — `x.F = <constant>` directly inside an `if` whose
//     condition reads x.F — sets nothing;
//     (c) a JSON-tagged field counts as set only when no program writes it
//     (it is input from outside the process); one a program writes is
//     judged by those writes.
//     Fields of a sync/atomic type (set by their methods) count as set, and
//     so does a copy source that is allowlisted or lies outside the check.
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
	copies   int // copy writes (rule a) seen
	resolved int // of those, the ones whose source is set at the fixed point
	fills    int // default fills (rule b) seen, and ignored
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
	{
		reason: "iterative.Config.Planner and DisableFusion select the planner differential's reference plan " +
			"(cost planner, fusion off), which every other planner and fusion mode is compared against",
		allow: func(root, _, pkg string, owner *types.TypeName, obj types.Object) bool {
			return owner != nil && pkg == root+"/internal/iterative" && owner.Name() == "Config" &&
				(obj.Name() == "Planner" || obj.Name() == "DisableFusion")
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
	w := &reachWrites{direct: map[*types.Var]bool{}, written: map[*types.Var]bool{}}
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
			markWrites(f, info, sets, w)
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
	set := rep.settle(w, moduleFields(pkgs, im.done, root, support))
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
		if set[f] {
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

// reachWrites is what the non-test files write into struct fields.
type reachWrites struct {
	direct  map[*types.Var]bool // fields some write sets outright
	written map[*types.Var]bool // fields with any write, default fills included
	copies  []reachCopy         // copy writes (rule a)
	fills   int                 // default fills (rule b)
}

// reachCopy is one write that stores only field from's value into field to.
type reachCopy struct{ from, to *types.Var }

// reachField is one exported, non-embedded field of a module named struct
// type, as the settle step needs it.
type reachField struct {
	tagged  bool // has a json tag
	allowed bool // an allowlist entry exempts it
}

// moduleFields returns the exported, non-embedded fields of pkgs' named
// struct types.
func moduleFields(pkgs []*reachPkg, done map[string]*types.Package, root, support string) map[*types.Var]reachField {
	fields := map[*types.Var]reachField{}
	for _, p := range pkgs {
		scope := done[p.path].Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := range st.NumFields() {
				if f := st.Field(i); f.Exported() && !f.Embedded() {
					_, tagged := reflect.StructTag(st.Tag(i)).Lookup("json")
					fields[f] = reachField{tagged: tagged, allowed: reachAllowed(root, support, p.path, tn, f)}
				}
			}
		}
	}
	return fields
}

// settle returns which of fields are set: those a write sets outright,
// those of a sync/atomic type, JSON-tagged ones no program writes (rule
// c), and, to a fixed point, the targets of copies from a set source
// (rule a). A copy source outside fields, or allowlisted, counts as set.
// It counts the copies, the resolved ones and the default fills into rep.
func (rep *reachReport) settle(w *reachWrites, fields map[*types.Var]reachField) map[*types.Var]bool {
	set := map[*types.Var]bool{}
	for v, f := range fields {
		if w.direct[v] || isAtomic(v.Type()) || f.tagged && !w.written[v] {
			set[v] = true
		}
	}
	source := func(v *types.Var) bool {
		f, ok := fields[v]
		return !ok || f.allowed || set[v]
	}
	for changed := true; changed; {
		changed = false
		for _, c := range w.copies {
			if !set[c.to] && source(c.from) {
				set[c.to], changed = true, true
			}
		}
	}
	for _, c := range w.copies {
		if _, ok := fields[c.to]; ok {
			rep.copies++
			if source(c.from) {
				rep.resolved++
			}
		}
	}
	rep.fills = w.fills
	return set
}

// isAtomic reports whether t is a type of sync/atomic, whose methods set it.
func isAtomic(t types.Type) bool {
	n, ok := types.Unalias(t).(*types.Named)
	return ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "sync/atomic"
}

// copySource returns the exported field whose value alone e is, through
// parentheses and one-argument type conversions, or nil.
func copySource(info *types.Info, e ast.Expr) *types.Var {
	for e != nil {
		switch x := ast.Unparen(e).(type) {
		case *ast.CallExpr:
			if len(x.Args) != 1 || !info.Types[x.Fun].IsType() {
				return nil
			}
			e = x.Args[0]
		case *ast.SelectorExpr:
			if s := info.Selections[x]; s != nil && s.Kind() == types.FieldVal && s.Obj().Exported() {
				return s.Obj().(*types.Var).Origin()
			}
			return nil
		default:
			return nil
		}
	}
	return nil
}

// isDefaultFill reports whether the assignment a, a statement of an if
// whose condition is cond, is a default fill: `x.F = <constant>` where cond
// reads x.F.
func isDefaultFill(info *types.Info, cond ast.Expr, a *ast.AssignStmt) bool {
	if a.Tok != token.ASSIGN || len(a.Lhs) != 1 || len(a.Rhs) != 1 || info.Types[a.Rhs[0]].Value == nil {
		return false
	}
	lhs, ok := ast.Unparen(a.Lhs[0]).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	want, reads := types.ExprString(lhs), false
	ast.Inspect(cond, func(n ast.Node) bool {
		if s, ok := n.(*ast.SelectorExpr); ok && types.ExprString(s) == want {
			reads = true
		}
		return !reads
	})
	return reads
}

// markWrites records in w every write f makes into a struct field, and in
// sets every selector identifier that names a field it writes: the keys of
// composite literals, every field of an unkeyed literal's struct, and the
// fields on the path of an assignment's, `++`/`--`'s or `&`'s operand (also
// the implicit `&` of a pointer-method call on an addressable field). The
// field a write names is copied into when the written value is a field
// (rule a), and only written by a default fill (rule b); the fields further
// up its path are set outright.
func markWrites(f *ast.File, info *types.Info, sets map[*ast.Ident]bool, w *reachWrites) {
	fills := map[*ast.AssignStmt]bool{}
	write := func(v *types.Var, outer bool, value ast.Expr, fill bool) {
		v = v.Origin()
		w.written[v] = true
		if fill {
			return
		}
		if src := copySource(info, value); outer && src != nil && v.Exported() {
			w.copies = append(w.copies, reachCopy{from: src, to: v})
			return
		}
		w.direct[v] = true
	}
	// target records a write of value (nil when the write stores no single
	// expression's value) to the path e.
	target := func(e, value ast.Expr, fill bool) {
		for outer := true; ; outer = false {
			switch x := ast.Unparen(e).(type) {
			case *ast.SelectorExpr:
				if v, ok := info.Uses[x.Sel].(*types.Var); ok && v.IsField() {
					sets[x.Sel] = true
					write(v, outer, value, fill)
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
		case *ast.IfStmt:
			for _, st := range n.Body.List {
				if a, ok := st.(*ast.AssignStmt); ok && isDefaultFill(info, n.Cond, a) {
					fills[a] = true
					w.fills++
				}
			}
		case *ast.AssignStmt:
			for i, l := range n.Lhs {
				var value ast.Expr
				if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
					value = n.Rhs[i]
				}
				target(l, value, fills[n])
			}
		case *ast.IncDecStmt:
			target(n.X, nil, false)
		case *ast.RangeStmt:
			if n.Tok == token.ASSIGN {
				target(n.Key, nil, false)
				target(n.Value, nil, false)
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				target(n.X, nil, false)
			}
		case *ast.SelectorExpr:
			if s := info.Selections[n]; s != nil && s.Kind() == types.MethodVal {
				if _, ptr := s.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer); ptr {
					if _, isPtr := s.Recv().Underlying().(*types.Pointer); !isPtr {
						target(n.X, nil, false)
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
				for i, e := range n.Elts {
					write(st.Field(i), true, e, false)
				}
				return true
			}
			for _, e := range n.Elts {
				kv := e.(*ast.KeyValueExpr)
				if id, ok := kv.Key.(*ast.Ident); ok {
					if v, ok := info.Uses[id].(*types.Var); ok {
						sets[id] = true
						write(v, true, kv.Value, false)
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
	t.Logf("reachability: %d packages, %d exported top-level identifiers, %d exported methods, %d exported fields (%d set by a program), %d allowlisted by %d entries, %d copy edges (%d resolved to a set source), %d default fills ignored",
		len(pkgs), rep.exported, rep.methods, rep.fields, rep.set, rep.allowed, len(reachAllowlist), rep.copies, rep.resolved, rep.fills)
	for _, f := range rep.findings {
		t.Errorf("%s: %s", f.pos, f.what)
	}
}

// TestNoTestOnlyAPIFixture keeps the check from passing vacuously: in
// testdata/reach, lib.Used has a non-test caller, lib.TestOnly and the
// method Config.Probe only a test caller, Config.Knob is read by the
// program but set only by a test, and app imports the test-support
// package from a non-test file. The value rules add three: Config.Batch
// and wireSpec.Batch only copy each other (a round trip through a
// JSON-tagged wire struct), and Config.Limit is set only by a default
// fill. Exactly those seven must be flagged. Four shapes must not be:
// Box.Show, reached only through the Shower interface; Pair's fields, set
// only by an unkeyed literal; Request.Size, JSON input no program writes,
// and Config.Size copied from it; and Row.Steps, copied from the
// allowlisted metrics.Snapshot.
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
		"fixture/lib.Config.Batch is read but no non-test file sets it",
		"fixture/lib.Config.Knob is read but no non-test file sets it",
		"fixture/lib.Config.Limit is read but no non-test file sets it",
		"fixture/lib.Config.Probe has no non-test use",
		"fixture/lib.TestOnly has no non-test use",
		"fixture/lib.wireSpec.Batch is read but no non-test file sets it",
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("fixture findings = %q, want %q", got, want)
	}
	if rep.allowed != 2 {
		t.Fatalf("fixture allowlisted %d identifiers, want 2 (difftest.Helper, metrics.Snapshot.Steps)", rep.allowed)
	}
	// The copies: both halves of the round trip, Config.Size and Row.Steps.
	if rep.copies != 4 || rep.resolved != 2 || rep.fills != 1 {
		t.Fatalf("fixture copies/resolved/fills = %d/%d/%d, want 4/2/1", rep.copies, rep.resolved, rep.fills)
	}
}
