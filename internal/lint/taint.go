package lint

import (
	"go/ast"
	"go/types"
)

// A taint analysis parameterized by its source predicate: sideband's values
// derived from trace context. The engine is interprocedural and
// context-insensitive: a module-wide fixpoint propagates taint through
// assignments, range bindings, call arguments into parameters, and
// tainted returns back into call results. Variables are identified by
// their types.Object, which is unique module-wide, so captured closure
// variables and cross-package flows need no special casing.
//
// Deliberate soundness limits (documented in DESIGN.md §12): writes
// through struct fields, slices, and maps are not tracked as definitions
// (reading a source *field* can itself be a source, which is how sideband
// models trace context), and taint does not flow through interfaces or
// function values.

// Taint is the fixpoint result.
type Taint struct {
	prog *Program
	// source reports whether e is a taint source by itself (independent of
	// its operands): a call like r.TraceBatch(), a selector of a
	// trace-context field, a value of a trace-context type.
	source func(p *Package, e ast.Expr) bool
	vars   map[types.Object]bool // tainted variables (incl. parameters)
	// rets records, per function, which result positions carry taint.
	// Tracking positions separately matters: `res, err := f(r)` must not
	// taint err just because res carries trace context — otherwise every
	// error the caller hands on would carry it too.
	rets map[*FuncInfo][]bool
}

// RunTaint computes the module-wide fixpoint over the program.
func RunTaint(prog *Program, source func(p *Package, e ast.Expr) bool) *Taint {
	t := &Taint{
		prog:   prog,
		source: source,
		vars:   make(map[types.Object]bool),
		rets:   make(map[*FuncInfo][]bool),
	}
	for changed := true; changed; {
		changed = false
		for _, fi := range prog.Funcs {
			if t.propagate(fi) {
				changed = true
			}
		}
	}
	return t
}

// Tainted reports whether an expression carries taint under the current
// fixpoint.
func (t *Taint) Tainted(p *Package, e ast.Expr) bool {
	if e == nil {
		return false
	}
	if t.source(p, e) {
		return true
	}
	switch e := e.(type) {
	case *ast.Ident:
		if obj := p.Info.Uses[e]; obj != nil {
			return t.vars[obj]
		}
	case *ast.ParenExpr:
		return t.Tainted(p, e.X)
	case *ast.UnaryExpr:
		return t.Tainted(p, e.X)
	case *ast.StarExpr:
		return t.Tainted(p, e.X)
	case *ast.BinaryExpr:
		return t.Tainted(p, e.X) || t.Tainted(p, e.Y)
	case *ast.SelectorExpr:
		// A selector on a tainted value is tainted (ev.RecvAt when ev
		// is); selecting an untainted field of an untainted struct is not.
		return t.Tainted(p, e.X)
	case *ast.IndexExpr:
		return t.Tainted(p, e.X) || t.Tainted(p, e.Index)
	case *ast.SliceExpr:
		return t.Tainted(p, e.X)
	case *ast.TypeAssertExpr:
		return t.Tainted(p, e.X)
	case *ast.CallExpr:
		return t.callTainted(p, e)
	}
	return false
}

// callTainted handles call-expression taint: tainted results of known
// callees, conversions of tainted operands, and the pass-through
// builtins.
func (t *Taint) callTainted(p *Package, call *ast.CallExpr) bool {
	if isConversion(p, call) {
		for _, a := range call.Args {
			if t.Tainted(p, a) {
				return true
			}
		}
		return false
	}
	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, ok := p.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "len", "cap", "min", "max", "append", "copy":
				for _, a := range call.Args {
					if t.Tainted(p, a) {
						return true
					}
				}
			}
			return false
		}
	}
	if fi := t.prog.Callee(p, call); fi != nil {
		return t.retTainted(fi, 0)
	}
	return false
}

// retTainted reports whether a function's i-th result carries taint.
func (t *Taint) retTainted(fi *FuncInfo, i int) bool {
	r := t.rets[fi]
	return i < len(r) && r[i]
}

// markRet taints one result position, growing the record on demand.
func (t *Taint) markRet(fi *FuncInfo, i, n int) bool {
	r := t.rets[fi]
	if len(r) < n {
		grown := make([]bool, n)
		copy(grown, r)
		r = grown
		t.rets[fi] = r
	}
	if i >= len(r) || r[i] {
		return false
	}
	r[i] = true
	return true
}

// propagate runs one pass over a function body, returning whether any new
// fact was learned.
func (t *Taint) propagate(fi *FuncInfo) bool {
	p := fi.Pkg
	changed := false
	taintVar := func(obj types.Object) {
		if obj != nil && !t.vars[obj] {
			t.vars[obj] = true
			changed = true
		}
	}
	defObj := func(e ast.Expr) types.Object {
		id, ok := e.(*ast.Ident)
		if !ok {
			return nil
		}
		if obj := p.Info.Defs[id]; obj != nil {
			return obj
		}
		return p.Info.Uses[id]
	}
	ast.Inspect(fi.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i, rhs := range n.Rhs {
					if t.Tainted(p, rhs) {
						taintVar(defObj(n.Lhs[i]))
					}
				}
			} else if len(n.Rhs) == 1 {
				rhs := ast.Unparen(n.Rhs[0])
				if call, ok := rhs.(*ast.CallExpr); ok {
					// res, err := f(): taint each binding from its own
					// result position, so a tainted result does not smear
					// taint onto the error binding beside it.
					if callee := t.prog.Callee(p, call); callee != nil {
						for i, lhs := range n.Lhs {
							if t.retTainted(callee, i) {
								taintVar(defObj(lhs))
							}
						}
					}
				} else if t.Tainted(p, rhs) {
					// v, ok := m[k] / x.(T) / <-ch: both bindings depend on
					// the tainted operand (branching on ok is branching on
					// the tainted key).
					for _, lhs := range n.Lhs {
						taintVar(defObj(lhs))
					}
				}
			}
		case *ast.ValueSpec:
			for i, v := range n.Values {
				if !t.Tainted(p, v) {
					continue
				}
				if len(n.Values) == len(n.Names) {
					taintVar(p.Info.Defs[n.Names[i]])
				} else {
					for _, name := range n.Names {
						taintVar(p.Info.Defs[name])
					}
				}
			}
		case *ast.RangeStmt:
			if t.Tainted(p, n.X) {
				taintVar(defObj(n.Key))
				taintVar(defObj(n.Value))
			}
		case *ast.CallExpr:
			callee := t.prog.Callee(p, n)
			if callee == nil || callee.Sig == nil {
				return true
			}
			params := callee.Sig.Params()
			for i, a := range n.Args {
				if i < params.Len() && t.Tainted(p, a) {
					taintVar(params.At(i))
				}
			}
			// Deliberately no receiver-taint rule: tainting a method's
			// receiver parameter from one call site would poison every
			// other call of that method module-wide (context
			// insensitivity).
		case *ast.ReturnStmt:
			if fi.Sig == nil {
				return true
			}
			nres := fi.Sig.Results().Len()
			if len(n.Results) == 0 {
				// Bare return with named results.
				for i := 0; i < nres; i++ {
					if t.vars[fi.Sig.Results().At(i)] && t.markRet(fi, i, nres) {
						changed = true
					}
				}
				return true
			}
			if len(n.Results) == 1 && nres > 1 {
				// return f() forwarding a multi-result call.
				if call, ok := ast.Unparen(n.Results[0]).(*ast.CallExpr); ok {
					if callee := t.prog.Callee(p, call); callee != nil {
						for i := 0; i < nres; i++ {
							if t.retTainted(callee, i) && t.markRet(fi, i, nres) {
								changed = true
							}
						}
					}
				}
				return true
			}
			for i, r := range n.Results {
				if t.Tainted(p, r) && t.markRet(fi, i, nres) {
					changed = true
				}
			}
		case *ast.FuncLit:
			// Literal bodies are separate FuncInfos; don't double-visit.
			return false
		}
		return true
	})
	return changed
}
