package servicefridge_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"testing"
)

// TestNoDeadState fails for every struct field of the root module that no
// live non-test code reads, and for every unexported function or method
// that no live non-test code uses. Code under cmd/, examples/ and the
// perfbench module counts as live non-test code.
//
// Storing to a field is not reading it: the target of =, op=, ++ and --,
// an element store x.f[k] = v or x.f[k]++, x.f = append(x.f, ...),
// delete and clear on x.f, and a key of a keyed struct literal are writes.
// Reads in Snapshot and Restore methods and in snapshot.go files are copies
// and do not count either. Exempt are the fields encoding/json reads by
// reflection (those with a struct tag, and the exported fields of values
// handed to it), fields of struct types that are compared with == or used
// as map keys, and fields of the state types that Snapshot methods return
// or snapshot.go files declare: those go when their source field goes. An unexported method that satisfies an interface lives with
// its type, as in TestNoDeadExports, whose allowlist this test shares.
func TestNoDeadState(t *testing.T) {
	dc := findDeadCode(t)
	for _, d := range dc.funcs {
		t.Errorf("%s: %s is not used by live non-test code", d.pos, d.key)
	}
	for _, d := range dc.fields {
		t.Errorf("%s: field %s is not read by live non-test code", d.pos, d.key)
	}
	checkAllowlist(t, dc)
}

// collectFields records every struct field that f declares, keyed
// "pkg.Owner.field". The owner is the declared type that holds the field,
// or for a struct type written inside a function, the function (or
// "Type.method"). Fields with a tag, and every field a snapshot.go file
// declares, are exempt.
func (l *moduleLoader) collectFields(pkg *types.Package, f *ast.File, info *types.Info, snapshotFile bool) {
	add := func(owner string, n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			if st, ok := n.(*ast.StructType); ok {
				for _, fld := range st.Fields.List {
					for _, id := range fld.Names {
						v := info.Defs[id].(*types.Var)
						l.fields[v] = owner + "." + id.Name
						if fld.Tag != nil || snapshotFile {
							l.exempt[v] = true
						}
					}
				}
			}
			return true
		})
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			add(exportKey(info.Defs[d.Name]), d)
		case *ast.GenDecl:
			for _, s := range d.Specs {
				if ts, ok := s.(*ast.TypeSpec); ok {
					add(pkg.Name()+"."+ts.Name.Name, ts)
				} else {
					add(pkg.Name(), s)
				}
			}
		}
	}
}

// exemptImplicit exempts the fields that files read without naming them.
// Those are the fields of every struct type compared with == or !=, used
// as a map key, or passed as a type argument constrained by comparable,
// since removing a field changes equality. They are also the exported
// fields of every value handed to encoding/json, and of the values it
// holds.
func (l *moduleLoader) exemptImplicit(files []*ast.File, info *types.Info) {
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			e, ok := n.(ast.Expr)
			if !ok {
				return true
			}
			if m, ok := typeOf(info, e).(*types.Map); ok {
				l.exemptFields(m.Key(), true)
			}
			switch e := e.(type) {
			case *ast.BinaryExpr:
				if e.Op == token.EQL || e.Op == token.NEQ {
					l.exemptFields(info.TypeOf(e.X), true)
				}
			case *ast.CallExpr:
				if fn, ok := callee(info, e).(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "encoding/json" &&
					(fn.Name() == "Marshal" || fn.Name() == "MarshalIndent" || fn.Name() == "Encode") {
					l.exemptEncoded(info.TypeOf(e.Args[0]))
				}
			}
			return true
		})
	}
	for id, inst := range info.Instances {
		var params *types.TypeParamList
		switch obj := info.Uses[id].(type) {
		case *types.Func:
			params = obj.Origin().Type().(*types.Signature).TypeParams()
		case *types.TypeName:
			params = obj.Type().(*types.Named).Origin().TypeParams()
		}
		for i := range params.Len() {
			if params.At(i).Constraint().Underlying().(*types.Interface).IsComparable() {
				l.exemptFields(inst.TypeArgs.At(i), true)
			}
		}
	}
}

// callee returns the function or method a call names, if any.
func callee(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	}
	return nil
}

// exemptEncoded exempts the exported fields that encoding/json writes out
// for a value of type t.
func (l *moduleLoader) exemptEncoded(t types.Type) {
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		l.exemptEncoded(u.Elem())
	case *types.Slice:
		l.exemptEncoded(u.Elem())
	case *types.Array:
		l.exemptEncoded(u.Elem())
	case *types.Map:
		l.exemptEncoded(u.Elem())
	case *types.Struct:
		for i := range u.NumFields() {
			f := origin(u.Field(i)).(*types.Var)
			if f.Exported() && !l.exempt[f] {
				l.exempt[f] = true
				l.exemptEncoded(f.Type())
			}
		}
	}
}

func typeOf(info *types.Info, e ast.Expr) types.Type {
	if t := info.TypeOf(e); t != nil {
		return t.Underlying()
	}
	return nil
}

// exemptSnapshot exempts the fields of the struct types that a Snapshot
// method returns.
func (l *moduleLoader) exemptSnapshot(sig *types.Signature) {
	for i := range sig.Results().Len() {
		l.exemptFields(sig.Results().At(i).Type(), false)
	}
}

// exemptFields exempts the fields of t's struct type, and with deep the
// fields of the structs and arrays it holds by value.
func (l *moduleLoader) exemptFields(t types.Type, deep bool) {
	if t == nil {
		return
	}
	if p, ok := t.Underlying().(*types.Pointer); ok && !deep {
		t = p.Elem()
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := range u.NumFields() {
			f := origin(u.Field(i)).(*types.Var)
			if !l.exempt[f] {
				l.exempt[f] = true
				if deep {
					l.exemptFields(f.Type(), true)
				}
			}
		}
	case *types.Array:
		if deep {
			l.exemptFields(u.Elem(), true)
		}
	}
}

// fieldReads returns the struct fields that n reads, including the
// embedded fields a promoted field or method is reached through.
func fieldReads(n ast.Node, info *types.Info) []*types.Var {
	stores := map[*ast.SelectorExpr]bool{}
	var store func(e ast.Expr)
	store = func(e ast.Expr) {
		switch e := e.(type) {
		case *ast.ParenExpr:
			store(e.X)
		case *ast.IndexExpr:
			switch typeOf(info, e.X).(type) {
			case *types.Map, *types.Slice, *types.Array:
				store(e.X)
			}
		case *ast.SelectorExpr:
			if sel := info.Selections[e]; sel != nil && sel.Kind() == types.FieldVal {
				stores[e] = true
				if _, ptr := typeOf(info, e.X).(*types.Pointer); !ptr {
					store(e.X)
				}
			}
		}
	}
	var reads []*types.Var
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.AssignStmt:
			for i, lhs := range x.Lhs {
				store(lhs)
				if x.Tok == token.ASSIGN && len(x.Rhs) == len(x.Lhs) && isBuiltinCall(info, x.Rhs[i], "append") {
					if arg := x.Rhs[i].(*ast.CallExpr).Args[0]; types.ExprString(arg) == types.ExprString(lhs) {
						store(arg)
					}
				}
			}
		case *ast.IncDecStmt:
			store(x.X)
		case *ast.CallExpr:
			if isBuiltinCall(info, x, "delete") || isBuiltinCall(info, x, "clear") {
				store(x.Args[0])
			}
		case *ast.SelectorExpr:
			sel := info.Selections[x]
			if sel == nil {
				break
			}
			t := sel.Recv()
			for _, i := range sel.Index()[:len(sel.Index())-1] {
				if p, ok := t.Underlying().(*types.Pointer); ok {
					t = p.Elem()
				}
				f := origin(t.Underlying().(*types.Struct).Field(i)).(*types.Var)
				reads = append(reads, f)
				t = f.Type()
			}
			if sel.Kind() == types.FieldVal && !stores[x] {
				reads = append(reads, origin(sel.Obj()).(*types.Var))
			}
		}
		return true
	})
	return reads
}

func isBuiltinCall(info *types.Info, e ast.Expr, name string) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name && len(call.Args) > 0
}
