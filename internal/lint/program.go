package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the interprocedural layer shared by the structural
// analyzers (collorder, sideband): a module-wide call graph over every
// declared function, method, and variable-bound function literal, with a
// per-function control-flow summary that preserves exactly the structure
// collorder reasons about — branches, loops, switches, go/defer
// statements, returns, and the call sites hoisted out of expressions. Everything below the summary (arithmetic,
// plain data flow) is deliberately erased; the taint engine in taint.go
// recovers value-level facts on demand.

// Program is the module-wide analysis view built from a Unit's packages.
type Program struct {
	Fset *token.FileSet
	// Funcs lists every summarized function in deterministic (file
	// position) order: declared functions and methods first, then
	// anonymous literals, per package in load order.
	Funcs []*FuncInfo
	// ByObj resolves a function or bound-literal object to its info.
	ByObj map[types.Object]*FuncInfo
	// ByLit resolves any function literal (bound or anonymous).
	ByLit map[*ast.FuncLit]*FuncInfo
}

// FuncInfo is one function-like body under analysis.
type FuncInfo struct {
	Pkg *Package
	// Obj is the declared function/method object, or the variable object
	// a literal is bound to (recvWorker := func(...)); nil for anonymous
	// literals.
	Obj  types.Object
	Decl *ast.FuncDecl // nil for literals
	Lit  *ast.FuncLit  // nil for declarations
	Sig  *types.Signature
	Body *ast.BlockStmt
	// Summary is the control-flow summary of Body (a NodeSeq).
	Summary *Node
}

// Name returns a human-readable identifier for diagnostics.
func (fi *FuncInfo) Name() string {
	if fi.Obj != nil {
		return fi.Obj.Name()
	}
	return "func literal"
}

// NodeKind discriminates summary nodes.
type NodeKind int

const (
	NodeSeq    NodeKind = iota // Kids in order
	NodeIf                     // Cond, Then, Else (Else may be nil)
	NodeLoop                   // Body; Stmt is *ast.ForStmt or *ast.RangeStmt
	NodeSwitch                 // Cases (each a NodeSeq); HasDefault
	NodeSelect                 // Cases
	NodeGo                     // Call: runs on its own control path
	NodeDefer                  // Call
	NodeCall                   // Call: one call site, hoisted in source order
	NodeReturn                 // Results
	NodeBranch                 // Tok: BREAK / CONTINUE / GOTO / FALLTHROUGH
	NodePanic                  // call to the panic builtin
)

// Node is one control-flow summary node. Field use depends on Kind; see
// the NodeKind constants.
type Node struct {
	Kind NodeKind
	Pos  token.Pos

	Kids       []*Node  // Seq, and hoisted condition calls for structured nodes
	Cond       ast.Expr // If cond, Switch tag (may be nil)
	Then, Else *Node    // If
	Body       *Node    // Loop
	Cases      []*Node  // Switch/Select case bodies, in source order
	CaseConds  []ast.Expr
	HasDefault bool
	Call       *ast.CallExpr // Go, Defer, Call, Panic
	Stmt       ast.Stmt      // Loop (for/range)
	Results    []ast.Expr    // Return
	Tok        token.Token   // Branch
}

// BuildProgram summarizes every function in the unit's packages and links
// the call graph.
func BuildProgram(u *Unit) *Program {
	prog := &Program{
		Fset:  u.Fset,
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

// addFile summarizes the declared functions of one file, plus every
// function literal (bound literals become addressable call-graph nodes,
// anonymous ones are still summarized: they are checked as functions of
// their own and spliced in where they are passed as callbacks).
func (prog *Program) addFile(p *Package, f *ast.File) {
	litObjs := boundLiterals(p, f)
	// Literals are collected during the declaration walk so each literal's
	// summary exists exactly once and nested literals attach to their own
	// FuncInfo, not their parent's.
	var addLits func(n ast.Node)
	addLits = func(n ast.Node) {
		ast.Inspect(n, func(c ast.Node) bool {
			lit, ok := c.(*ast.FuncLit)
			if !ok {
				return true
			}
			fi := &FuncInfo{Pkg: p, Obj: litObjs[lit], Lit: lit, Body: lit.Body}
			if tv, ok := p.Info.Types[lit]; ok {
				fi.Sig, _ = tv.Type.(*types.Signature)
			}
			fi.Summary = prog.summarizeBlock(p, lit.Body)
			prog.Funcs = append(prog.Funcs, fi)
			prog.ByLit[lit] = fi
			if fi.Obj != nil {
				prog.ByObj[fi.Obj] = fi
			}
			addLits(lit.Body)
			return false
		})
	}
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		fi := &FuncInfo{Pkg: p, Decl: fd, Body: fd.Body}
		if obj := p.Info.Defs[fd.Name]; obj != nil {
			fi.Obj = obj
			fi.Sig, _ = obj.Type().(*types.Signature)
			prog.ByObj[obj] = fi
		}
		fi.Summary = prog.summarizeBlock(p, fd.Body)
		prog.Funcs = append(prog.Funcs, fi)
		addLits(fd.Body)
	}
}

// boundLiterals maps each function literal assigned to a variable or
// declared value to that variable's object, so `recvWorker := func(...)`
// participates in the call graph and in tagmatch's tag forwarding.
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

// summarizeBlock turns a statement block into a NodeSeq.
func (prog *Program) summarizeBlock(p *Package, b *ast.BlockStmt) *Node {
	seq := &Node{Kind: NodeSeq}
	if b == nil {
		return seq
	}
	seq.Pos = b.Pos()
	for _, s := range b.List {
		prog.summarizeStmt(p, s, seq)
	}
	return seq
}

// summarizeStmt appends the summary of one statement to seq. Calls
// embedded in expressions are hoisted as NodeCall kids in source order
// before the structural node they feed.
func (prog *Program) summarizeStmt(p *Package, s ast.Stmt, seq *Node) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		sub := prog.summarizeBlock(p, s)
		seq.Kids = append(seq.Kids, sub.Kids...)
	case *ast.IfStmt:
		if s.Init != nil {
			prog.summarizeStmt(p, s.Init, seq)
		}
		prog.hoistCalls(p, s.Cond, seq)
		n := &Node{Kind: NodeIf, Pos: s.Pos(), Cond: s.Cond}
		n.Then = prog.summarizeBlock(p, s.Body)
		if s.Else != nil {
			elseSeq := &Node{Kind: NodeSeq, Pos: s.Else.Pos()}
			prog.summarizeStmt(p, s.Else, elseSeq)
			n.Else = elseSeq
		}
		seq.Kids = append(seq.Kids, n)
	case *ast.ForStmt:
		if s.Init != nil {
			prog.summarizeStmt(p, s.Init, seq)
		}
		n := &Node{Kind: NodeLoop, Pos: s.Pos(), Stmt: s, Cond: s.Cond}
		body := &Node{Kind: NodeSeq, Pos: s.Body.Pos()}
		// Condition and post-statement calls run per iteration: they
		// belong to the loop body, not the enclosing sequence.
		prog.hoistCalls(p, s.Cond, body)
		inner := prog.summarizeBlock(p, s.Body)
		body.Kids = append(body.Kids, inner.Kids...)
		if s.Post != nil {
			prog.summarizeStmt(p, s.Post, body)
		}
		n.Body = body
		seq.Kids = append(seq.Kids, n)
	case *ast.RangeStmt:
		prog.hoistCalls(p, s.X, seq)
		n := &Node{Kind: NodeLoop, Pos: s.Pos(), Stmt: s}
		n.Body = prog.summarizeBlock(p, s.Body)
		seq.Kids = append(seq.Kids, n)
	case *ast.SwitchStmt:
		if s.Init != nil {
			prog.summarizeStmt(p, s.Init, seq)
		}
		prog.hoistCalls(p, s.Tag, seq)
		n := &Node{Kind: NodeSwitch, Pos: s.Pos(), Cond: s.Tag}
		prog.summarizeCases(p, s.Body, n)
		seq.Kids = append(seq.Kids, n)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			prog.summarizeStmt(p, s.Init, seq)
		}
		n := &Node{Kind: NodeSwitch, Pos: s.Pos()}
		prog.summarizeCases(p, s.Body, n)
		seq.Kids = append(seq.Kids, n)
	case *ast.SelectStmt:
		n := &Node{Kind: NodeSelect, Pos: s.Pos()}
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			caseSeq := &Node{Kind: NodeSeq, Pos: cc.Pos()}
			if cc.Comm != nil {
				prog.summarizeStmt(p, cc.Comm, caseSeq)
			} else {
				n.HasDefault = true
			}
			for _, cs := range cc.Body {
				prog.summarizeStmt(p, cs, caseSeq)
			}
			n.Cases = append(n.Cases, caseSeq)
		}
		seq.Kids = append(seq.Kids, n)
	case *ast.GoStmt:
		// Argument evaluation happens synchronously at the go statement.
		for _, a := range s.Call.Args {
			prog.hoistCalls(p, a, seq)
		}
		seq.Kids = append(seq.Kids, &Node{Kind: NodeGo, Pos: s.Pos(), Call: s.Call})
	case *ast.DeferStmt:
		for _, a := range s.Call.Args {
			prog.hoistCalls(p, a, seq)
		}
		seq.Kids = append(seq.Kids, &Node{Kind: NodeDefer, Pos: s.Pos(), Call: s.Call})
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			prog.hoistCalls(p, r, seq)
		}
		seq.Kids = append(seq.Kids, &Node{Kind: NodeReturn, Pos: s.Pos(), Results: s.Results})
	case *ast.SendStmt:
		prog.hoistCalls(p, s.Chan, seq)
		prog.hoistCalls(p, s.Value, seq)
	case *ast.BranchStmt:
		seq.Kids = append(seq.Kids, &Node{Kind: NodeBranch, Pos: s.Pos(), Tok: s.Tok})
	case *ast.ExprStmt:
		prog.hoistCalls(p, s.X, seq)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			prog.hoistCalls(p, e, seq)
		}
		for _, e := range s.Lhs {
			prog.hoistCalls(p, e, seq)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						prog.hoistCalls(p, v, seq)
					}
				}
			}
		}
	case *ast.IncDecStmt:
		prog.hoistCalls(p, s.X, seq)
	case *ast.LabeledStmt:
		prog.summarizeStmt(p, s.Stmt, seq)
	case *ast.EmptyStmt:
	}
}

// summarizeCases fills a switch node's case list from a case-clause body.
func (prog *Program) summarizeCases(p *Package, body *ast.BlockStmt, n *Node) {
	for _, c := range body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		caseSeq := &Node{Kind: NodeSeq, Pos: cc.Pos()}
		for _, e := range cc.List {
			prog.hoistCalls(p, e, caseSeq)
		}
		if cc.List == nil {
			n.HasDefault = true
		}
		n.CaseConds = append(n.CaseConds, cc.List...)
		for _, cs := range cc.Body {
			prog.summarizeStmt(p, cs, caseSeq)
		}
		n.Cases = append(n.Cases, caseSeq)
	}
}

// hoistCalls appends a NodeCall (or NodePanic) for every call expression
// inside e, in source order, without descending into function literals
// (their bodies are summarized separately).
func (prog *Program) hoistCalls(p *Package, e ast.Expr, seq *Node) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if isBuiltinCall(p, n, "panic") {
				seq.Kids = append(seq.Kids, &Node{Kind: NodePanic, Pos: n.Pos(), Call: n})
			} else if !isConversion(p, n) {
				seq.Kids = append(seq.Kids, &Node{Kind: NodeCall, Pos: n.Pos(), Call: n})
			}
		}
		return true
	})
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
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if obj := p.Info.Uses[fun]; obj != nil {
			return prog.ByObj[obj]
		}
	case *ast.SelectorExpr:
		if obj := p.Info.Uses[fun.Sel]; obj != nil {
			return prog.ByObj[obj]
		}
	case *ast.FuncLit:
		return prog.ByLit[fun]
	case *ast.ParenExpr:
		inner := &ast.CallExpr{Fun: fun.X, Args: call.Args}
		return prog.Callee(p, inner)
	}
	return nil
}

// FuncValueArgs returns the FuncInfos of call arguments that are function
// values with known bodies — literals passed inline or identifiers bound
// to literals/declared functions. This is how callback-taking helpers
// (runBatches(r, ..., emit)) contribute their callbacks' behavior at the
// call site.
func (prog *Program) FuncValueArgs(p *Package, call *ast.CallExpr) []*FuncInfo {
	var out []*FuncInfo
	for _, a := range call.Args {
		switch a := a.(type) {
		case *ast.FuncLit:
			if fi := prog.ByLit[a]; fi != nil {
				out = append(out, fi)
			}
		case *ast.Ident:
			if obj := p.Info.Uses[a]; obj != nil {
				if fi := prog.ByObj[obj]; fi != nil {
					out = append(out, fi)
				}
			}
		case *ast.SelectorExpr:
			if obj := p.Info.Uses[a.Sel]; obj != nil {
				if fi := prog.ByObj[obj]; fi != nil {
					out = append(out, fi)
				}
			}
		}
	}
	return out
}
