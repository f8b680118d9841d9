package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// MapOrderAnalyzer enforces the third determinism invariant: Go's map
// iteration order is randomized per run, so a `range` over a map may not
// feed anything order-sensitive — message sends, output writes,
// serialization, or appends to a slice that escapes the loop — unless the
// result is sorted afterwards or the site carries a //lint:sorted
// justification. This is the invariant behind every byte-identity pin in
// the tree: one unsorted map walk ahead of a Send or a Write and two runs
// of the same seed produce different bytes.
//
// Recognized-safe shapes:
//   - bodies that only read (max/sum/count) or write into another map;
//   - the collect-then-sort idiom: appends into a slice that is later
//     passed to sort.* / slices.Sort* in the same function;
//   - sites annotated //lint:sorted <reason> (the reason is required —
//     a bare annotation is itself a finding).
var MapOrderAnalyzer = &Analyzer{
	Name: "maporder",
	Doc: "flag range over maps whose body sends, writes output, serializes, " +
		"or appends to an escaping slice without a later sort or a //lint:sorted justification",
	Run: func(u *Unit) {
		for _, p := range u.Pkgs {
			for _, f := range p.Files {
				for _, decl := range f.Decls {
					fn, ok := decl.(*ast.FuncDecl)
					if !ok || fn.Body == nil {
						continue
					}
					checkMapRanges(u, p, fn)
				}
			}
		}
	},
}

func checkMapRanges(u *Unit, p *Package, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv := p.Info.Types[rs.X]
		if tv.Type == nil {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		if u.Justified(p, rs.Pos(), "sorted") {
			return true
		}
		checkMapRangeBody(u, p, fn, rs)
		return true
	})
}

// orderSensitiveCall classifies a call inside a map-range body. The
// returned description is empty for order-insensitive calls. Foreign
// writers are recognized by naming convention (fmt.Print*, Write*,
// Encode*, Marshal*, and anything called like one of our //lint:payload
// operations, which hand message data to the runtime); our own wire-format
// primitives by their //lint:encodes marker.
func orderSensitiveCall(facts Facts, p *Package, call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		name := fun.Sel.Name
		if pkgName, ok := selectorFromPkg(p.Info, fun, "fmt"); ok {
			if strings.HasPrefix(pkgName, "Print") || strings.HasPrefix(pkgName, "Fprint") {
				return fmt.Sprintf("writes output via fmt.%s", pkgName)
			}
			return ""
		}
		switch {
		case facts.Named(name, factPayload):
			return "sends a message"
		case strings.HasPrefix(name, "Write"):
			return fmt.Sprintf("writes output via %s", name)
		case strings.HasPrefix(name, "Encode") || strings.HasPrefix(name, "Marshal"):
			return fmt.Sprintf("feeds serialization via %s", name)
		case facts.Has(p.Info.Uses[fun.Sel], factEncodes):
			if s, ok := p.Info.Selections[fun]; ok {
				name = namedType(s.Recv()) + "." + name
			}
			return fmt.Sprintf("feeds the wire codec via %s", name)
		}
	case *ast.Ident:
		if strings.HasPrefix(fun.Name, "Encode") || strings.HasPrefix(fun.Name, "Marshal") {
			return fmt.Sprintf("feeds serialization via %s", fun.Name)
		}
	}
	return ""
}

// namedType names a method receiver's type without package or pointer.
func namedType(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}

func checkMapRangeBody(u *Unit, p *Package, fn *ast.FuncDecl, rs *ast.RangeStmt) {
	type escapingAppend struct {
		expr string // printed form of the append target, for sort matching
		pos  ast.Node
	}
	var appends []escapingAppend
	reported := false
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if reported {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			u.Reportf(rs.Pos(), "range over %s iterates a map in randomized order and its body sends on a channel: sort the keys first or justify with //lint:sorted",
				types.ExprString(rs.X))
			reported = true
			return false
		case *ast.CallExpr:
			if desc := orderSensitiveCall(u.Facts, p, n); desc != "" {
				u.Reportf(rs.Pos(), "range over %s iterates a map in randomized order and its body %s: sort the keys first or justify with //lint:sorted",
					types.ExprString(rs.X), desc)
				reported = true
				return false
			}
			if isBuiltinCall(p, n, "append") && len(n.Args) > 0 {
				if target, escapes := escapesRange(p, n.Args[0], rs); escapes {
					appends = append(appends, escapingAppend{expr: target, pos: n})
				}
			}
		}
		return true
	})
	if reported {
		return
	}
	for _, a := range appends {
		if sortedAfter(p, fn, rs, a.expr) {
			continue
		}
		u.Reportf(rs.Pos(), "range over %s appends to %s, which escapes the loop in map-iteration order and is never sorted afterwards: sort it or justify with //lint:sorted",
			types.ExprString(rs.X), a.expr)
	}
}

// escapesRange reports whether an append target's base variable is
// declared outside the range statement (so the slice carries the map's
// iteration order out of the loop), returning the target's printed form.
func escapesRange(p *Package, target ast.Expr, rs *ast.RangeStmt) (string, bool) {
	base := target
	for {
		switch e := base.(type) {
		case *ast.ParenExpr:
			base = e.X
		case *ast.SelectorExpr:
			base = e.X
		case *ast.IndexExpr:
			base = e.X
		case *ast.StarExpr:
			base = e.X
		case *ast.Ident:
			obj := p.Info.Uses[e]
			if obj == nil {
				obj = p.Info.Defs[e]
			}
			if obj == nil {
				return "", false
			}
			if obj.Pos() >= rs.Pos() && obj.Pos() <= rs.End() {
				return "", false // declared inside the loop: order stays local
			}
			return types.ExprString(target), true
		default:
			return "", false
		}
	}
}

// sortFuncs are the qualified functions that establish a deterministic
// order over their first argument.
var sortFuncs = map[string]map[string]bool{
	"sort": {
		"Strings": true, "Ints": true, "Float64s": true,
		"Slice": true, "SliceStable": true, "Sort": true, "Stable": true,
	},
	"slices": {
		"Sort": true, "SortFunc": true, "SortStableFunc": true,
	},
}

// sortedAfter reports whether, after the range statement, the enclosing
// function passes exprStr to a recognized sort function — the
// collect-then-sort idiom.
func sortedAfter(p *Package, fn *ast.FuncDecl, rs *ast.RangeStmt, exprStr string) bool {
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pn := pkgNameOf(p.Info, sel.X)
		if pn == nil {
			return true
		}
		names := sortFuncs[pn.Imported().Path()]
		if names == nil || !names[sel.Sel.Name] {
			return true
		}
		if types.ExprString(call.Args[0]) == exprStr {
			found = true
			return false
		}
		return true
	})
	return found
}
