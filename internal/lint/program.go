package lint

import (
	"go/ast"
	"go/types"
)

// This file is the call graph the taint engine in taint.go runs over: every
// declared function, method, and function literal of the unit's packages,
// with variable-bound literals addressable by their variable, so that
// `recvWorker := func(...)` passes taint into its parameters like a declared
// function does.

// Program is the module-wide analysis view built from a Unit's packages.
type Program struct {
	// Funcs lists every function body in deterministic (file position)
	// order: each declared function or method, then the literals inside it,
	// per package in load order.
	Funcs []*FuncInfo
	// ByObj resolves a function or bound-literal object to its info.
	ByObj map[types.Object]*FuncInfo
	// ByLit resolves any function literal (bound or anonymous).
	ByLit map[*ast.FuncLit]*FuncInfo
}

// FuncInfo is one function-like body under analysis.
type FuncInfo struct {
	Pkg  *Package
	Sig  *types.Signature
	Body *ast.BlockStmt
}

// BuildProgram collects every function body in the unit's packages.
func BuildProgram(u *Unit) *Program {
	prog := &Program{
		ByObj: make(map[types.Object]*FuncInfo),
		ByLit: make(map[*ast.FuncLit]*FuncInfo),
	}
	for _, p := range u.Pkgs {
		for _, f := range p.Files {
			prog.addFile(p, f)
		}
	}
	return prog
}

// addFile collects the declared functions of one file and every function
// literal inside them, each exactly once (nested literals included).
func (prog *Program) addFile(p *Package, f *ast.File) {
	litObjs := boundLiterals(p, f)
	addLits := func(body *ast.BlockStmt) {
		ast.Inspect(body, func(c ast.Node) bool {
			lit, ok := c.(*ast.FuncLit)
			if !ok {
				return true
			}
			fi := &FuncInfo{Pkg: p, Body: lit.Body}
			if tv, ok := p.Info.Types[lit]; ok {
				fi.Sig, _ = tv.Type.(*types.Signature)
			}
			prog.Funcs = append(prog.Funcs, fi)
			prog.ByLit[lit] = fi
			if obj := litObjs[lit]; obj != nil {
				prog.ByObj[obj] = fi
			}
			return true
		})
	}
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		fi := &FuncInfo{Pkg: p, Body: fd.Body}
		if obj := p.Info.Defs[fd.Name]; obj != nil {
			fi.Sig, _ = obj.Type().(*types.Signature)
			prog.ByObj[obj] = fi
		}
		prog.Funcs = append(prog.Funcs, fi)
		addLits(fd.Body)
	}
}

// boundLiterals maps each function literal assigned to a variable or
// declared value to that variable's object.
func boundLiterals(p *Package, f *ast.File) map[*ast.FuncLit]types.Object {
	litObj := make(map[*ast.FuncLit]types.Object)
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				lit, ok := rhs.(*ast.FuncLit)
				if !ok || i >= len(n.Lhs) {
					continue
				}
				if id, ok := n.Lhs[i].(*ast.Ident); ok {
					if obj := p.Info.Defs[id]; obj != nil {
						litObj[lit] = obj
					} else if obj := p.Info.Uses[id]; obj != nil {
						litObj[lit] = obj
					}
				}
			}
		case *ast.ValueSpec:
			for i, rhs := range n.Values {
				lit, ok := rhs.(*ast.FuncLit)
				if !ok || i >= len(n.Names) {
					continue
				}
				if obj := p.Info.Defs[n.Names[i]]; obj != nil {
					litObj[lit] = obj
				}
			}
		}
		return true
	})
	return litObj
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

// isConversion reports whether call is a type conversion, not a call.
func isConversion(p *Package, call *ast.CallExpr) bool {
	tv, ok := p.Info.Types[call.Fun]
	return ok && tv.IsType()
}

// Callee resolves a call to the FuncInfo of its static target: a declared
// function or method, a variable bound to a function literal, or a
// directly invoked literal. Dynamic calls (interface methods, function
// values from parameters or fields) resolve to nil.
func (prog *Program) Callee(p *Package, call *ast.CallExpr) *FuncInfo {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return prog.ByObj[p.Info.Uses[fun]]
	case *ast.SelectorExpr:
		return prog.ByObj[p.Info.Uses[fun.Sel]]
	case *ast.FuncLit:
		return prog.ByLit[fun]
	}
	return nil
}
