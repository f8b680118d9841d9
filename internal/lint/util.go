package lint

import (
	"go/ast"
	"go/types"
)

// pkgNameOf resolves an expression to the package it names (the "time" in
// time.Now), or nil when the expression is not a package qualifier.
func pkgNameOf(info *types.Info, e ast.Expr) *types.PkgName {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	pn, _ := info.Uses[id].(*types.PkgName)
	return pn
}

// selectorFromPkg reports whether sel is a qualified reference into a
// package with the given import path ("time", "math/rand"), returning the
// selected name.
func selectorFromPkg(info *types.Info, sel *ast.SelectorExpr, path string) (name string, ok bool) {
	pn := pkgNameOf(info, sel.X)
	if pn == nil || pn.Imported().Path() != path {
		return "", false
	}
	return sel.Sel.Name, true
}

// isBuiltinCall reports whether call invokes the named builtin.
func isBuiltinCall(p *Package, call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := p.Info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}
