package lint

import (
	"go/ast"
	"go/types"
	"sort"
)

// TagMatchAnalyzer enforces the protocol-discipline invariant: every MPI
// message tag is a compile-time constant, every tag that is sent is
// received somewhere in the module, and every tag that is received is
// sent. A one-sided tag is a protocol that can deadlock or a message that
// silently rots in an inbox; a non-constant tag is a protocol the checker
// (and the reviewer) cannot reason about. PR 2's collective-traffic
// bucket bug and PR 4's rendezvous-wait misattribution were both slips in
// exactly this tag/protocol discipline.
//
// Which operations carry a tag, in which parameter and in which direction,
// is declared on the mpi declarations themselves (//lint:sends <param>,
// //lint:receives <param>; facts.go).
//
// Helper functions that forward a tag parameter into a send/receive
// (engine.RecvOutputPhase(r, pkg, w, tag), recvWorker(w, tag)) are resolved
// at their call sites, transitively, so wrapping a receive in a
// fault-tolerance loop does not demand an annotation. A call whose tag is
// neither a constant nor a forwarded parameter is reported, unless it
// carries a //lint:tagmatch <reason> justification.

const (
	dirSend = 1 << iota
	dirRecv
)

// anyTag mirrors mpi.AnyTag: a wildcard receive that matches every tag
// sent within its package's protocol.
const anyTag = -1

// tagEntity is one function-like scope a call site can live in: a
// declared function/method, or a function literal bound to a variable
// (recvWorker := func(...)). obj is nil for anonymous literals.
type tagEntity struct {
	obj types.Object
	sig *types.Signature
}

// tagCallSite is one CallExpr with its enclosing function stack
// (innermost last) and owning package.
type tagCallSite struct {
	pkg       *Package
	call      *ast.CallExpr
	enclosing []tagEntity
}

// tagOccurrence is one resolved constant-tag use.
type tagOccurrence struct {
	pkg *Package
	pos ast.Node
	dir int
}

var TagMatchAnalyzer = &Analyzer{
	Name: "tagmatch",
	Doc: "collect every tag constant passed to a //lint:sends or //lint:receives operation across the module and report " +
		"tags sent but never received, received but never sent, or passed as non-constant expressions",
	Run: runTagMatch,
}

func runTagMatch(u *Unit) {
	var sites []tagCallSite
	for _, p := range u.Pkgs {
		for _, f := range p.Files {
			sites = append(sites, collectCallSites(p, f)...)
		}
	}

	// Fixpoint: discover which function parameters forward into a tag
	// position, one wrapping level at a time.
	forwarders := make(map[types.Object]map[int]int) // func/var object → param index → dirs
	for changed := true; changed; {
		changed = false
		for _, s := range sites {
			for _, use := range tagUsesAt(u.Facts, s, forwarders) {
				if ent, idx, ok := paramOf(s, use.arg); ok && ent.obj != nil {
					if forwarders[ent.obj] == nil {
						forwarders[ent.obj] = make(map[int]int)
					}
					if forwarders[ent.obj][idx]&use.dir != use.dir {
						forwarders[ent.obj][idx] |= use.dir
						changed = true
					}
				}
			}
		}
	}

	// Final pass: record constant occurrences and report unresolvable tags.
	sends := make(map[int64][]tagOccurrence)
	recvs := make(map[int64][]tagOccurrence)
	wildcardPkgs := make(map[*Package]bool)
	for _, s := range sites {
		for _, use := range tagUsesAt(u.Facts, s, forwarders) {
			if v, ok := constInt(s.pkg.Info, use.arg); ok {
				occ := tagOccurrence{pkg: s.pkg, pos: use.arg, dir: use.dir}
				if use.dir&dirRecv != 0 {
					if v == anyTag {
						wildcardPkgs[s.pkg] = true
					} else {
						recvs[v] = append(recvs[v], occ)
					}
				}
				if use.dir&dirSend != 0 && v != anyTag {
					sends[v] = append(sends[v], occ)
				}
				continue
			}
			if _, _, isParam := paramOf(s, use.arg); isParam {
				continue // resolved at this helper's own call sites
			}
			if u.Justified(s.pkg, use.arg.Pos(), "tagmatch") {
				continue
			}
			u.Reportf(use.arg.Pos(),
				"message tag %s is not a constant: tag protocols must be statically matchable (use a named tag constant, or forward a tag parameter)",
				types.ExprString(use.arg))
		}
	}

	for v, occs := range sends {
		if len(recvs[v]) > 0 {
			continue
		}
		for _, occ := range occs {
			if wildcardPkgs[occ.pkg] {
				continue // an AnyTag receive in this protocol covers it
			}
			u.Reportf(occ.pos.Pos(), "tag %d is sent here but never received anywhere in the module", v)
		}
	}
	for v, occs := range recvs {
		if len(sends[v]) > 0 {
			continue
		}
		for _, occ := range occs {
			u.Reportf(occ.pos.Pos(), "tag %d is received here but never sent anywhere in the module", v)
		}
	}
}

// collectCallSites walks one file recording every CallExpr together with
// its stack of enclosing function entities.
func collectCallSites(p *Package, f *ast.File) []tagCallSite {
	// Function literals are addressable as forwarders through the variables
	// they are bound to: recvWorker := func(w, tag int) {...}.
	litObj := boundLiterals(p, f)

	var sites []tagCallSite
	var stack []tagEntity
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		switch n := n.(type) {
		case *ast.FuncDecl:
			var ent tagEntity
			if obj := p.Info.Defs[n.Name]; obj != nil {
				ent = tagEntity{obj: obj, sig: obj.Type().(*types.Signature)}
			}
			stack = append(stack, ent)
			if n.Body != nil {
				walk(n.Body)
			}
			stack = stack[:len(stack)-1]
			return
		case *ast.FuncLit:
			ent := tagEntity{obj: litObj[n]}
			if tv, ok := p.Info.Types[n]; ok {
				ent.sig, _ = tv.Type.(*types.Signature)
			}
			stack = append(stack, ent)
			walk(n.Body)
			stack = stack[:len(stack)-1]
			return
		case *ast.CallExpr:
			sites = append(sites, tagCallSite{
				pkg:       p,
				call:      n,
				enclosing: append([]tagEntity(nil), stack...),
			})
		}
		if n != nil {
			ast.Inspect(n, func(c ast.Node) bool {
				if c == n {
					return true
				}
				switch c.(type) {
				case *ast.FuncDecl, *ast.FuncLit, *ast.CallExpr:
					walk(c)
					return false
				}
				return true
			})
		}
	}
	walk(f)
	return sites
}

// tagUse is one argument of a call that lands in a tag position.
type tagUse struct {
	arg ast.Expr
	dir int
}

// tagUsesAt returns the tag-position arguments of a call: the tag of a
// marked send/receive, or the forwarded parameters of a known helper.
func tagUsesAt(facts Facts, s tagCallSite, forwarders map[types.Object]map[int]int) []tagUse {
	op := calleeObj(s.pkg.Info, s.call)
	var uses []tagUse
	for _, arg := range facts.Args(op, s.call, factSends) {
		uses = append(uses, tagUse{arg: arg, dir: dirSend})
	}
	for _, arg := range facts.Args(op, s.call, factReceives) {
		uses = append(uses, tagUse{arg: arg, dir: dirRecv})
	}
	if len(uses) > 0 {
		return uses
	}
	switch fun := s.call.Fun.(type) {
	case *ast.SelectorExpr:
		if obj, ok := s.pkg.Info.Uses[fun.Sel]; ok {
			uses = forwardedUses(s.call, forwarders[obj])
		}
	case *ast.Ident:
		if obj, ok := s.pkg.Info.Uses[fun]; ok {
			uses = forwardedUses(s.call, forwarders[obj])
		}
	}
	return uses
}

func forwardedUses(call *ast.CallExpr, params map[int]int) []tagUse {
	var idxs []int
	for idx := range params {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	var uses []tagUse
	for _, idx := range idxs {
		if idx < len(call.Args) {
			uses = append(uses, tagUse{arg: call.Args[idx], dir: params[idx]})
		}
	}
	return uses
}

// paramOf reports whether arg is a plain reference to a parameter of one
// of the call's enclosing functions, returning that entity and the
// parameter index (innermost scope wins).
func paramOf(s tagCallSite, arg ast.Expr) (tagEntity, int, bool) {
	id, ok := arg.(*ast.Ident)
	if !ok {
		return tagEntity{}, 0, false
	}
	obj, ok := s.pkg.Info.Uses[id].(*types.Var)
	if !ok {
		return tagEntity{}, 0, false
	}
	for i := len(s.enclosing) - 1; i >= 0; i-- {
		ent := s.enclosing[i]
		if ent.sig == nil {
			continue
		}
		for j := 0; j < ent.sig.Params().Len(); j++ {
			if ent.sig.Params().At(j) == obj {
				return ent, j, true
			}
		}
	}
	return tagEntity{}, 0, false
}
