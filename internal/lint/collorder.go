package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// CollOrderAnalyzer enforces the collective-consistency property every
// MPI program owes its runtime (and which mpi.runCollective can only
// check at simulation time, one schedule at a time): a collective
// operation must be reached by every participant, so any conditional
// whose outcome depends on the rank identity must reach the same *set*
// of collective operations on every branch. A master/worker split where
// only the master calls Barrier deadlocks the simulated world; this
// analyzer catches it before a single rank runs.
//
// The check is interprocedural: each function's "collective footprint"
// (the set of mpi collective kinds it can reach, transitively through
// callees and through function-valued arguments such as per-batch merge
// callbacks) is spliced into its call sites, the same forwarding idea
// tagmatch uses for tag parameters. Which operations are collectives, and
// which values name the calling rank, is declared on the mpi declarations
// themselves (//lint:collective, //lint:rank-identity; facts.go). Rank
// dependence is a taint: values derived from a rank-identity method or
// field, transitively through assignments, parameters, and returns.
//
// Soundness limits (DESIGN.md §12): the footprint is a set, so two
// branches that reach the same collectives in different orders or
// multiplicities are accepted (mpi.runCollective still catches those at
// run time); branches that terminate by panicking or returning a
// constructed error (fmt.Errorf/errors.New) are exempt, because an
// abort takes the whole world down rather than desynchronizing it; and
// goroutine bodies are analyzed as their own functions, not as part of
// the spawning path.

var CollOrderAnalyzer = &Analyzer{
	Name: "collorder",
	Doc: "operations marked //lint:collective must be reached uniformly by all ranks: " +
		"every rank-dependent branch must cover the same collective set",
	Run: runCollOrder,
}

// opset is a footprint: the set of collective op kinds a region can reach.
type opset map[string]bool

func (s opset) add(op string) { s[op] = true }
func (s opset) union(o opset) {
	for op := range o {
		s[op] = true
	}
}
func (s opset) equal(o opset) bool {
	if len(s) != len(o) {
		return false
	}
	for op := range s {
		if !o[op] {
			return false
		}
	}
	return true
}

func (s opset) list() string {
	if len(s) == 0 {
		return "none"
	}
	ops := make([]string, 0, len(s))
	for op := range s {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	return strings.Join(ops, ",")
}

// fallKind classifies how control leaves a region.
type fallKind int

const (
	fallThrough fallKind = iota // control reaches the region's end
	stopReturn                  // a plain (or success) return
	stopAbort                   // panic or constructed-error return
	stopBranch                  // break/continue out of the region
)

func runCollOrder(u *Unit) {
	prog := BuildProgram(u)
	taint := RunTaint(prog, TaintSpec{ExprSource: func(p *Package, e ast.Expr) bool {
		return sourceObj(u.Facts, p, e, factRankIdentity)
	}})
	c := &collChecker{u: u, prog: prog, taint: taint, fps: make(map[*FuncInfo]opset)}
	c.fixpointFootprints()
	for _, fi := range prog.Funcs {
		c.fi = fi
		c.frames = c.frames[:0]
		c.walkSeq(fi.Summary)
	}
}

// sourceObj reports whether e is a call of a function, or a read of a
// struct field, that carries the given taint-source marker.
func sourceObj(facts Facts, p *Package, e ast.Expr, marker string) bool {
	switch e := e.(type) {
	case *ast.CallExpr:
		return facts.Has(calleeObj(p.Info, e), marker)
	case *ast.SelectorExpr:
		if f := fieldObj(p.Info, e); f != nil {
			return facts.Has(f, marker)
		}
	}
	return false
}

type collChecker struct {
	u     *Unit
	prog  *Program
	taint *Taint
	fps   map[*FuncInfo]opset

	fi     *FuncInfo
	frames []collFrame
}

// collFrame is one pending continuation during the walk: the statements
// that run after the node currently being visited. loopBoundary frames
// mark where a break/continue stops skipping.
type collFrame struct {
	rest         []*Node
	loopBoundary bool
}

// fixpointFootprints computes every function's reachable collective set,
// iterating because footprints splice through call sites (including
// mutual recursion).
func (c *collChecker) fixpointFootprints() {
	for _, fi := range c.prog.Funcs {
		c.fps[fi] = opset{}
	}
	for changed := true; changed; {
		changed = false
		for _, fi := range c.prog.Funcs {
			fp := opset{}
			c.collectOps(fi, fi.Summary, fp)
			if !fp.equal(c.fps[fi]) {
				c.fps[fi] = fp
				changed = true
			}
		}
	}
}

// callOps returns the footprint of one call site: the op itself for a
// direct collective, otherwise the callee's footprint plus the
// footprints of any function-valued arguments (callbacks run by the
// callee are charged to the caller's path).
func (c *collChecker) callOps(p *Package, call *ast.CallExpr) opset {
	fp := opset{}
	if op := calleeObj(p.Info, call); c.u.Facts.Has(op, factCollective) {
		fp.add(op.Name())
		return fp
	}
	if callee := c.prog.Callee(p, call); callee != nil {
		fp.union(c.fps[callee])
	}
	for _, arg := range c.prog.FuncValueArgs(p, call) {
		fp.union(c.fps[arg])
	}
	return fp
}

// collectOps unions every collective reachable anywhere inside n
// (termination-insensitive over-approximation), excluding goroutine
// bodies, which run on their own control path.
func (c *collChecker) collectOps(fi *FuncInfo, n *Node, fp opset) {
	if n == nil {
		return
	}
	switch n.Kind {
	case NodeCall, NodeDefer:
		fp.union(c.callOps(fi.Pkg, n.Call))
	case NodeGo:
		return
	}
	for _, k := range n.Kids {
		c.collectOps(fi, k, fp)
	}
	c.collectOps(fi, n.Then, fp)
	c.collectOps(fi, n.Else, fp)
	c.collectOps(fi, n.Body, fp)
	for _, k := range n.Cases {
		c.collectOps(fi, k, fp)
	}
}

// exec simulates one region, accumulating reachable collectives into fp
// and classifying how control leaves it.
func (c *collChecker) exec(n *Node, fp opset) fallKind {
	if n == nil {
		return fallThrough
	}
	switch n.Kind {
	case NodeSeq:
		for _, k := range n.Kids {
			if kind := c.exec(k, fp); kind != fallThrough {
				return kind
			}
		}
		return fallThrough
	case NodeCall, NodeDefer:
		fp.union(c.callOps(c.fi.Pkg, n.Call))
		return fallThrough
	case NodeGo:
		return fallThrough
	case NodePanic:
		return stopAbort
	case NodeReturn:
		if c.isAbortReturn(n) {
			return stopAbort
		}
		return stopReturn
	case NodeBranch:
		switch n.Tok {
		case token.BREAK, token.CONTINUE:
			return stopBranch
		case token.GOTO:
			return stopReturn
		}
		return fallThrough // fallthrough in a switch
	case NodeIf:
		kT := c.exec(n.Then, fp)
		kE := c.exec(n.Else, fp)
		return combineKinds(kT, kE)
	case NodeLoop:
		c.collectOps(c.fi, n.Body, fp)
		return fallThrough
	case NodeSwitch, NodeSelect:
		kinds := make([]fallKind, 0, len(n.Cases)+1)
		for _, k := range n.Cases {
			kinds = append(kinds, c.exec(k, fp))
		}
		if !n.HasDefault {
			kinds = append(kinds, fallThrough)
		}
		out := stopAbort
		for _, k := range kinds {
			out = combineKinds(out, k)
		}
		return out
	}
	return fallThrough
}

// combineKinds merges the exit kinds of two alternative paths: if either
// can fall through, the merge can; break/continue dominates returns
// (it executes more of the continuation); abort only survives when every
// path aborts.
func combineKinds(a, b fallKind) fallKind {
	if a == fallThrough || b == fallThrough {
		return fallThrough
	}
	if a == stopBranch || b == stopBranch {
		return stopBranch
	}
	if a == stopAbort && b == stopAbort {
		return stopAbort
	}
	return stopReturn
}

// isAbortReturn reports whether a return statement's last result is a
// freshly constructed error — the simulated equivalent of MPI_Abort,
// which tears the world down instead of desynchronizing it.
func (c *collChecker) isAbortReturn(n *Node) bool {
	if len(n.Results) == 0 {
		return false
	}
	last := n.Results[len(n.Results)-1]
	call, ok := ast.Unparen(last).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if name, ok := selectorFromPkg(c.fi.Pkg.Info, sel, "fmt"); ok && name == "Errorf" {
		return true
	}
	if name, ok := selectorFromPkg(c.fi.Pkg.Info, sel, "errors"); ok && (name == "New" || name == "Join") {
		return true
	}
	return false
}

// pathOps computes the full collective set executed from the start of
// branch until the function exits, spliced with the pending
// continuations: a falling-through branch rejoins every frame; a
// break/continue rejoins only the frames outside the innermost loop; a
// return or abort rejoins nothing (deferred calls are already charged at
// their NodeDefer site, an over-approximation shared by both sides of
// every comparison).
func (c *collChecker) pathOps(branch *Node) (opset, fallKind) {
	fp := opset{}
	kind := c.exec(branch, fp)
	switch kind {
	case fallThrough:
		for _, fr := range c.frames {
			for _, n := range fr.rest {
				c.collectOps(c.fi, n, fp)
			}
		}
	case stopBranch:
		// Skip frames up to and including the innermost loop boundary.
		i := len(c.frames) - 1
		for ; i >= 0; i-- {
			if c.frames[i].loopBoundary {
				i--
				break
			}
		}
		for j := 0; j <= i; j++ {
			for _, n := range c.frames[j].rest {
				c.collectOps(c.fi, n, fp)
			}
		}
	}
	return fp, kind
}

// walkSeq visits a sequence, maintaining the continuation stack.
func (c *collChecker) walkSeq(seq *Node) {
	if seq == nil {
		return
	}
	for i, kid := range seq.Kids {
		c.frames = append(c.frames, collFrame{rest: seq.Kids[i+1:]})
		c.walkNode(kid)
		c.frames = c.frames[:len(c.frames)-1]
	}
}

func (c *collChecker) walkNode(n *Node) {
	switch n.Kind {
	case NodeIf:
		if c.taint.Tainted(c.fi.Pkg, n.Cond) {
			c.checkRankBranch(n)
		}
		c.walkSeq(n.Then)
		c.walkSeq(n.Else)
	case NodeLoop:
		if c.rankDependentLoop(n) {
			c.checkRankLoop(n)
		}
		c.frames = append(c.frames, collFrame{loopBoundary: true})
		c.walkSeq(n.Body)
		c.frames = c.frames[:len(c.frames)-1]
	case NodeSwitch:
		if c.rankDependentSwitch(n) {
			c.checkRankSwitch(n)
		}
		for _, k := range n.Cases {
			c.walkSeq(k)
		}
	case NodeSelect:
		for _, k := range n.Cases {
			c.walkSeq(k)
		}
	case NodeSeq:
		c.walkSeq(n)
	}
	// Go bodies and literal bodies are walked as their own FuncInfos.
}

func (c *collChecker) rankDependentLoop(n *Node) bool {
	switch s := n.Stmt.(type) {
	case *ast.ForStmt:
		return s.Cond != nil && c.taint.Tainted(c.fi.Pkg, s.Cond)
	case *ast.RangeStmt:
		return c.taint.Tainted(c.fi.Pkg, s.X)
	}
	return false
}

func (c *collChecker) rankDependentSwitch(n *Node) bool {
	if n.Cond != nil && c.taint.Tainted(c.fi.Pkg, n.Cond) {
		return true
	}
	for _, e := range n.CaseConds {
		if c.taint.Tainted(c.fi.Pkg, e) {
			return true
		}
	}
	return false
}

// checkRankBranch compares the two sides of a rank-dependent if.
func (c *collChecker) checkRankBranch(n *Node) {
	thenOps, kT := c.pathOps(n.Then)
	elseOps, kE := c.pathOps(n.Else)
	if kT == stopAbort || kE == stopAbort {
		return // an aborting side takes the world down, not out of sync
	}
	if thenOps.equal(elseOps) {
		return
	}
	if c.u.Justified(c.fi.Pkg, n.Pos, "collorder") {
		return
	}
	c.u.Reportf(n.Pos,
		"rank-dependent branch diverges on collectives: one side reaches {%s}, the other {%s} — all ranks must reach the same collective set (or justify with //lint:collorder)",
		thenOps.list(), elseOps.list())
}

// checkRankLoop flags collectives whose execution count depends on the
// rank identity: a loop bounded by a rank-derived value runs a different
// number of collective rounds on each rank.
func (c *collChecker) checkRankLoop(n *Node) {
	fp := opset{}
	c.collectOps(c.fi, n.Body, fp)
	if len(fp) == 0 {
		return
	}
	if c.u.Justified(c.fi.Pkg, n.Pos, "collorder") {
		return
	}
	c.u.Reportf(n.Pos,
		"collectives {%s} inside a rank-dependent loop: the iteration count differs per rank, so ranks fall out of collective lockstep (or justify with //lint:collorder)",
		fp.list())
}

// checkRankSwitch requires every arm of a rank-dependent switch (plus
// the implicit empty default) to cover the same collective set.
func (c *collChecker) checkRankSwitch(n *Node) {
	var first opset
	ok := true
	check := func(ops opset, kind fallKind) {
		if kind == stopAbort {
			return
		}
		if first == nil {
			first = ops
			return
		}
		if !ops.equal(first) {
			ok = false
		}
	}
	for _, k := range n.Cases {
		ops, kind := c.pathOps(k)
		check(ops, kind)
	}
	if !n.HasDefault {
		ops, kind := c.pathOps(&Node{Kind: NodeSeq})
		check(ops, kind)
	}
	if ok || c.u.Justified(c.fi.Pkg, n.Pos, "collorder") {
		return
	}
	c.u.Reportf(n.Pos,
		"rank-dependent switch arms diverge on collectives: all arms must reach the same collective set (or justify with //lint:collorder)")
}

// fieldObj resolves a selector to the struct field it reads, or nil when
// it is not a field selection.
func fieldObj(info *types.Info, sel *ast.SelectorExpr) *types.Var {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	v, _ := s.Obj().(*types.Var)
	return v
}
