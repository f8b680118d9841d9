package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
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

// constInt evaluates an expression to an integer constant via the type
// checker (so named constants, arithmetic like tagBase+1, and cross-
// package constants all resolve).
func constInt(info *types.Info, e ast.Expr) (int64, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, false
	}
	return constant.Int64Val(tv.Value)
}

// hasPathSuffix reports whether an import path is exactly suffix or ends
// with "/"+suffix — how analyzers recognize the simulator's own packages
// both in the real tree ("parblast/internal/mpi") and when fixtures
// exercise them.
func hasPathSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}
