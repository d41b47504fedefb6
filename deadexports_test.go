package servicefridge_test

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// deadCodeAllowlist names declarations that TestNoDeadExports and
// TestNoDeadState accept without a reader, keyed "pkg.Name",
// "pkg.Type.Method" or "pkg.Type.field". Keep it to at most five entries,
// each with a reason.
var deadCodeAllowlist = map[string]string{
	"trace.CriticalPath":       "the single-trace critical-path algorithm that critpath_test.go pins; Collector.Blame runs its allocation-free twin",
	"trace.InferParents":       "parent inference for spans without parent IDs, pinned by critpath_test.go beside CriticalPath",
	"workload.WriteTraceJSONL": "the writer half of the trace codec's exact round-trip test",
}

const maxDeadCodeAllowlist = 5

// TestNoDeadExports fails for every exported package-level declaration or
// method under internal/ that nothing runs. A declaration is live when it is
// used from a _test.go file in another directory, or from non-test code that
// is itself live: code outside internal/, unexported types, variables and
// constants, and functions and declarations already found live. Uses inside
// a dead declaration, or from tests in the declaring directory, keep nothing
// alive. A method that satisfies a named interface (or error) is live with
// its type, and the allowlist above is live by decree.
//
// The benchmark module under perfbench/ counts as a caller, so an API it
// imports cannot be deleted while it still builds against it. Struct fields
// and unexported functions are TestNoDeadState's; interface methods are not
// checked.
func TestNoDeadExports(t *testing.T) {
	dc := findDeadCode(t)
	for _, d := range dc.exports {
		t.Errorf("%s: %s has no use outside its own package's tests and dead code", d.pos, d.key)
	}
	checkAllowlist(t, dc)
}

func checkAllowlist(t *testing.T, dc *deadCode) {
	t.Helper()
	if len(deadCodeAllowlist) > maxDeadCodeAllowlist {
		t.Errorf("deadCodeAllowlist has %d entries, at most %d allowed", len(deadCodeAllowlist), maxDeadCodeAllowlist)
	}
	for _, key := range dc.stale {
		t.Errorf("deadCodeAllowlist entry %s is live or gone: remove it", key)
	}
}

// deadCode is what one load of the module finds: dead exports, dead
// unexported functions and methods, fields nothing reads, and allowlist
// entries that name nothing dead.
type deadCode struct {
	exports, funcs, fields []deadItem
	stale                  []string
}

var loadedDeadCode struct {
	sync.Mutex
	dc *deadCode
}

// findDeadCode loads and analyses the module once for all the tests that
// read it.
func findDeadCode(t *testing.T) *deadCode {
	loadedDeadCode.Lock()
	defer loadedDeadCode.Unlock()
	if loadedDeadCode.dc == nil {
		l := newModuleLoader(t)
		l.loadTree()
		loadedDeadCode.dc = l.deadCode()
	}
	return loadedDeadCode.dc
}

// deadItem is one finding: a declaration or field, and where it is.
type deadItem struct {
	pos token.Position
	key string
}

// modulePath is the root module's path; perfbench/ is a nested module
// that imports it.
const modulePath = "servicefridge"

// decl is one top-level declaration: a function, a method, or one spec of
// a const, var or type declaration. Uses inside it are attributed to it.
type decl struct {
	objs    []types.Object // objects the declaration defines
	checked bool           // every object is checked: the decl is live only once one is used
	uses    []types.Object
	reads   []*types.Var // struct fields read, unless the decl is snapshot code
}

// moduleLoader parses and type-checks every package below the working
// directory (the repository root), including the nested perfbench module,
// in import order, with their in-package and external tests.
type moduleLoader struct {
	t    *testing.T
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*types.Package // import path -> non-test package
	seen map[string]bool           // import paths loaded or being loaded

	decls   []*decl
	checked map[types.Object]string // checked export or unexported function -> allowlist key
	roots   []types.Object          // objects used by tests in other directories
	named   []*types.Named          // every named type of the module
	fields  map[*types.Var]string   // struct field of the root module -> allowlist key
	exempt  map[*types.Var]bool     // fields read by reflection, ==, or only as snapshot copies
}

func newModuleLoader(t *testing.T) *moduleLoader {
	return &moduleLoader{
		t:       t,
		fset:    token.NewFileSet(),
		std:     importer.Default(),
		pkgs:    map[string]*types.Package{},
		seen:    map[string]bool{},
		checked: map[types.Object]string{},
		fields:  map[*types.Var]string{},
		exempt:  map[*types.Var]bool{},
	}
}

// loadTree loads every directory below the working directory, skipping
// the ones the go command ignores.
func (l *moduleLoader) loadTree() {
	err := filepath.WalkDir(".", func(path string, e os.DirEntry, err error) error {
		if err != nil || !e.IsDir() {
			return err
		}
		name := e.Name()
		if path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		l.loadDir(filepath.ToSlash(path))
		return nil
	})
	if err != nil {
		l.t.Fatal(err)
	}
}

func importPath(dir string) string {
	if dir == "." {
		return modulePath
	}
	return modulePath + "/" + dir
}

func inModule(path string) bool {
	return path == modulePath || strings.HasPrefix(path, modulePath+"/")
}

// parseDir returns the package's files, its in-package test files, and its
// external (_test package) test files.
func (l *moduleLoader) parseDir(dir string) (src, inTest, exTest []*ast.File) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		l.t.Fatal(err)
	}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			l.t.Fatal(err)
		}
		switch {
		case !strings.HasSuffix(name, "_test.go"):
			src = append(src, f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			exTest = append(exTest, f)
		default:
			inTest = append(inTest, f)
		}
	}
	return src, inTest, exTest
}

// loadDir type-checks the package in dir (once, after the packages it
// imports) together with its in-package and external tests.
func (l *moduleLoader) loadDir(dir string) {
	path := importPath(dir)
	if l.seen[path] {
		return
	}
	l.seen[path] = true
	src, inTest, exTest := l.parseDir(dir)
	for _, f := range append(append(append([]*ast.File(nil), src...), inTest...), exTest...) {
		l.loadImports(f)
	}

	var pkg *types.Package
	if len(src) > 0 {
		info := newInfo()
		pkg = l.check(path, src, info, nil)
		l.pkgs[path] = pkg
		l.collect(pkg, src, info, dir)
		collectNamed(pkg, &l.named)
	}
	testPkg := pkg
	if len(inTest) > 0 {
		info := newInfo()
		testPkg = l.check(path, append(append([]*ast.File(nil), src...), inTest...), info, nil)
		l.collectTestUses(path, inTest, info)
	}
	if len(exTest) > 0 {
		info := newInfo()
		l.check(path+"_test", exTest, info, map[string]*types.Package{path: testPkg})
		l.collectTestUses(path, exTest, info)
	}
}

// collectTestUses records as roots the objects that test files use from
// other directories; same-directory tests keep nothing alive.
func (l *moduleLoader) collectTestUses(path string, files []*ast.File, info *types.Info) {
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := info.Uses[id]; obj != nil && obj.Pkg() != nil && obj.Pkg().Path() != path {
					l.roots = append(l.roots, origin(obj))
				}
			}
			return true
		})
	}
}

func (l *moduleLoader) loadImports(f *ast.File) {
	for _, imp := range f.Imports {
		if dir, ok := strings.CutPrefix(strings.Trim(imp.Path.Value, `"`), modulePath+"/"); ok {
			l.loadDir(dir)
		}
	}
}

func newInfo() *types.Info {
	return &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func (l *moduleLoader) check(path string, files []*ast.File, info *types.Info, override map[string]*types.Package) *types.Package {
	conf := types.Config{Importer: importerFunc(func(p string) (*types.Package, error) {
		if pkg := override[p]; pkg != nil {
			return pkg, nil
		}
		if pkg, ok := l.pkgs[p]; ok {
			return pkg, nil
		}
		if inModule(p) {
			return nil, fmt.Errorf("package %s not loaded", p)
		}
		return l.std.Import(p)
	})}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		l.t.Fatalf("type-checking %s: %v", path, err)
	}
	return pkg
}

// collect records the top-level declarations of files and the objects each
// one uses. Exported declarations under internal/ are checked exports, and
// unexported functions and methods of the root module are checked too,
// except init and main. The root module's struct fields are recorded for
// TestNoDeadState.
func (l *moduleLoader) collect(pkg *types.Package, files []*ast.File, info *types.Info, dir string) {
	exports := dir == "internal" || strings.HasPrefix(dir, "internal/")
	rootModule := dir != "perfbench" && !strings.HasPrefix(dir, "perfbench/")
	l.exemptImplicit(files, info)
	for _, f := range files {
		snapshotFile := filepath.Base(l.fset.File(f.Pos()).Name()) == "snapshot.go"
		if rootModule {
			l.collectFields(pkg, f, info, snapshotFile)
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				name := d.Name.Name
				entry := d.Recv == nil && (name == "init" || name == "main" && pkg.Name() == "main")
				checked := exports && d.Name.IsExported() || rootModule && !d.Name.IsExported() && !entry
				snapshot := snapshotFile || d.Recv != nil && (name == "Snapshot" || name == "Restore")
				if d.Recv != nil && name == "Snapshot" {
					l.exemptSnapshot(info.Defs[d.Name].Type().(*types.Signature))
				}
				l.addDecl(d, []types.Object{info.Defs[d.Name]}, info, checked, snapshot)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					var objs []types.Object
					exported := true
					switch s := s.(type) {
					case *ast.TypeSpec:
						objs = append(objs, info.Defs[s.Name])
						exported = s.Name.IsExported()
					case *ast.ValueSpec:
						for _, n := range s.Names {
							objs = append(objs, info.Defs[n])
							exported = exported && n.IsExported()
						}
					case *ast.ImportSpec:
						continue
					}
					l.addDecl(s, objs, info, exports && exported, snapshotFile)
				}
			}
		}
	}
}

func (l *moduleLoader) addDecl(n ast.Node, objs []types.Object, info *types.Info, checked, snapshot bool) {
	d := &decl{objs: objs, checked: checked}
	var recv *ast.FieldList
	if fd, ok := n.(*ast.FuncDecl); ok {
		recv = fd.Recv
	}
	ast.Inspect(n, func(x ast.Node) bool {
		if x == recv && recv != nil {
			// A method's own receiver type is not a use of that type.
			return false
		}
		if id, ok := x.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil && obj.Pkg() != nil {
				d.uses = append(d.uses, origin(obj))
			}
		}
		return true
	})
	if !snapshot {
		d.reads = fieldReads(n, info)
	}
	if checked {
		for _, obj := range objs {
			l.checked[obj] = exportKey(obj)
		}
	}
	l.decls = append(l.decls, d)
}

func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func exportKey(obj types.Object) string {
	key := obj.Pkg().Name() + "." + obj.Name()
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			key = obj.Pkg().Name() + "." + recvNamed(recv.Type()).Obj().Name() + "." + obj.Name()
		}
	}
	return key
}

func recvNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

func collectNamed(pkg *types.Package, out *[]*types.Named) {
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
			if n, ok := tn.Type().(*types.Named); ok {
				*out = append(*out, n)
			}
		}
	}
}

// interfaces returns error and every named, non-generic method-set
// interface of the loaded packages and everything they import.
func (l *moduleLoader) interfaces() []*types.Interface {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok || n.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := n.Underlying().(*types.Interface); ok && it.IsMethodSet() && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, p := range l.pkgs {
		walk(p)
	}
	return ifaces
}

// deadCode returns the checked declarations that nothing live reaches, the
// fields that no live declaration reads, and the allowlist keys that would
// not be dead without the allowlist.
func (l *moduleLoader) deadCode() *deadCode {
	// Methods that satisfy an interface live and die with their type.
	withType := map[*types.TypeName][]types.Object{}
	ifaces := l.interfaces()
	for _, n := range l.named {
		if types.IsInterface(n) {
			continue
		}
		for i := 0; i < n.NumMethods(); i++ {
			if m := n.Method(i); l.checked[m] != "" && satisfiesInterface(n, m, ifaces) {
				withType[n.Obj()] = append(withType[n.Obj()], m)
			}
		}
	}
	byObj := map[types.Object]*decl{}
	for _, d := range l.decls {
		for _, obj := range d.objs {
			byObj[obj] = d
		}
	}
	liveFrom := func(extra []types.Object) map[types.Object]bool {
		live := map[types.Object]bool{}
		var queue []types.Object
		mark := func(objs ...types.Object) {
			for _, obj := range objs {
				if !live[obj] {
					live[obj] = true
					queue = append(queue, obj)
				}
			}
		}
		mark(l.roots...)
		mark(extra...)
		for _, d := range l.decls {
			if !d.checked {
				mark(d.uses...)
			}
		}
		for len(queue) > 0 {
			obj := queue[0]
			queue = queue[1:]
			if tn, ok := obj.(*types.TypeName); ok {
				mark(withType[tn]...)
			}
			if d := byObj[obj]; d != nil && d.checked {
				mark(d.uses...)
			}
		}
		// A field is live once a live declaration reads it; its stores
		// marked it above, so start it over.
		for f := range l.fields {
			live[f] = false
		}
		for _, obj := range extra {
			live[obj] = true
		}
		for _, d := range l.decls {
			if !d.checked || slices.ContainsFunc(d.objs, func(o types.Object) bool { return live[o] }) {
				for _, f := range d.reads {
					live[f] = true
				}
			}
		}
		return live
	}

	var allowed []types.Object
	allowDead := map[string]bool{}
	bare := liveFrom(nil)
	allowlisted := func(obj types.Object, key string) {
		if _, ok := deadCodeAllowlist[key]; ok {
			allowed = append(allowed, obj)
			allowDead[key] = !bare[obj]
		}
	}
	for obj, key := range l.checked {
		allowlisted(obj, key)
	}
	for f, key := range l.fields {
		allowlisted(f, key)
	}
	live := liveFrom(allowed)
	dc := &deadCode{}
	for obj, key := range l.checked {
		if !live[obj] {
			d := deadItem{pos: l.fset.Position(obj.Pos()), key: key}
			if obj.Exported() {
				dc.exports = append(dc.exports, d)
			} else {
				dc.funcs = append(dc.funcs, d)
			}
		}
	}
	for f, key := range l.fields {
		if !live[f] && !l.exempt[f] {
			dc.fields = append(dc.fields, deadItem{pos: l.fset.Position(f.Pos()), key: key})
		}
	}
	for _, list := range [][]deadItem{dc.exports, dc.funcs, dc.fields} {
		sort.Slice(list, func(i, j int) bool {
			a, b := list[i].pos, list[j].pos
			return a.Filename < b.Filename || a.Filename == b.Filename && a.Offset < b.Offset
		})
	}
	for key := range deadCodeAllowlist {
		if !allowDead[key] {
			dc.stale = append(dc.stale, key)
		}
	}
	sort.Strings(dc.stale)
	return dc
}

func satisfiesInterface(n *types.Named, m *types.Func, ifaces []*types.Interface) bool {
	ptr := types.NewPointer(n)
	for _, it := range ifaces {
		has := false
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == m.Name() {
				has = true
				break
			}
		}
		if has && (types.Implements(n, it) || types.Implements(ptr, it)) {
			return true
		}
	}
	return false
}
