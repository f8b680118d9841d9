package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// unreachedAllowed lists the exported internal names that shipped code
// may leave unused, each with its reason. Only two reasons hold: the
// frozen bench module (its own go.mod, outside ./...) calls the name, or
// the tests of more than one package read it. Any other unused export is
// deleted, or moved into the test file that needs it.
var unreachedAllowed = map[string]string{
	"blast.RenderHit":               "the frozen bench calls it",
	"blast.Context.SetQuery":        "the frozen bench calls it",
	"blast.Context.SearchFragment":  "the frozen bench calls it",
	"engine.EncodeGob":              "the frozen bench calls it",
	"engine.DecodeGob":              "the frozen bench calls it",
	"engine.EncodeQueryMetas":       "the frozen bench calls it",
	"engine.DecodeQueryMetas":       "the frozen bench calls it",
	"metrics.Snapshot.CounterTotal": "tests of more than one package read it",
	"metrics.Snapshot.GaugeTotal":   "tests of more than one package read it",
	"seq.New":                       "tests of more than one package read it",
	"wiretest.Fuzz":                 "tests of more than one package read it",
}

// TestNoUnreachedExports fails on an exported identifier of internal/ that
// no non-test file of the module uses. Functions, types and values count
// as reached through types.Info.Uses; a method counts as reached when any
// selector in the module names it, which covers dispatch through an
// interface (String, Error) without resolving it.
func TestNoUnreachedExports(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	l := testLoader(t)
	pkgs, err := l.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	used := make(map[types.Object]bool)
	selected := make(map[string]bool)
	for _, p := range pkgs {
		for _, obj := range p.Info.Uses {
			used[obj] = true
		}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					selected[sel.Sel.Name] = true
				}
				return true
			})
		}
	}
	prefix := l.ModulePath + "/internal/"
	var unreached []string
	seen := make(map[string]bool)
	for _, p := range pkgs {
		short, ok := strings.CutPrefix(p.ImportPath, prefix)
		if !ok {
			continue
		}
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() && !used[obj] {
				unreached = append(unreached, short+"."+name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok {
				continue
			}
			for _, m := range declaredMethods(tn) {
				if m.Exported() && !selected[m.Name()] {
					unreached = append(unreached, short+"."+name+"."+m.Name())
				}
			}
		}
	}
	for _, name := range unreached {
		seen[name] = true
		if _, ok := unreachedAllowed[name]; !ok {
			t.Errorf("%s: exported, and no non-test code uses it: delete it or move it into the test that needs it", name)
		}
	}
	var stale []string
	for name := range unreachedAllowed {
		if !seen[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		t.Errorf("allowlist entry %s: shipped code uses it now, or it is gone: drop the entry", name)
	}
}

// declaredMethods returns the methods declared on a named type: the
// explicit methods of an interface, the method declarations of any other
// type.
func declaredMethods(tn *types.TypeName) []*types.Func {
	named, ok := tn.Type().(*types.Named)
	if !ok {
		return nil
	}
	var ms []*types.Func
	if iface, ok := named.Underlying().(*types.Interface); ok {
		for i := 0; i < iface.NumExplicitMethods(); i++ {
			ms = append(ms, iface.ExplicitMethod(i))
		}
		return ms
	}
	for i := 0; i < named.NumMethods(); i++ {
		ms = append(ms, named.Method(i))
	}
	return ms
}
