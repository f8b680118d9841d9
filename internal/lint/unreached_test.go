package lint

import (
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
	"blast.HSP.Validate":            "tests of more than one package read it",
	"metrics.Snapshot.CounterTotal": "tests of more than one package read it",
	"metrics.Snapshot.GaugeTotal":   "tests of more than one package read it",
	"seq.New":                       "tests of more than one package read it",
	"seq.Alphabet.Code":             "tests of more than one package read it",
	"wiretest.Fuzz":                 "tests of more than one package read it",
}

// TestNoUnreachedExports fails on an exported identifier of internal/ that
// no non-test file of the module uses. Functions, types and values count
// as reached through types.Info.Uses, a method when a selector resolves to it
// (types.Info.Selections) or when its type satisfies an interface the module
// calls that method through: one whose method a selector resolves to, or the
// two the standard library calls for it, error and fmt.Stringer. A method
// that only shares its name with a called one is not reached.
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
	selected := make(map[*types.Func]bool)
	for _, p := range pkgs {
		for _, obj := range p.Info.Uses {
			used[obj] = true
		}
		for _, sel := range p.Info.Selections {
			if m, ok := sel.Obj().(*types.Func); ok {
				selected[m.Origin()] = true
			}
		}
	}
	through := calledInterfaces(selected)
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
				if m.Exported() && !selected[m] && !satisfiesCalled(tn, m.Name(), through) {
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

// calledInterfaces returns the interfaces the module calls methods through:
// every interface type a selected method belongs to, plus error and
// fmt.Stringer, whose methods fmt calls.
func calledInterfaces(selected map[*types.Func]bool) []*types.Interface {
	str := types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(types.NewVar(0, nil, "", types.Typ[types.String])), false)
	stringer := types.NewInterfaceType([]*types.Func{types.NewFunc(0, nil, "String", str)}, nil).Complete()
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface), stringer}
	for m := range selected {
		if recv := m.Type().(*types.Signature).Recv(); recv != nil {
			if iface, ok := recv.Type().Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, iface)
			}
		}
	}
	return ifaces
}

// satisfiesCalled reports whether tn or a pointer to it implements one of
// the called interfaces that has a method named name.
func satisfiesCalled(tn *types.TypeName, name string, ifaces []*types.Interface) bool {
	for _, iface := range ifaces {
		has := false
		for i := 0; i < iface.NumMethods(); i++ {
			has = has || iface.Method(i).Name() == name
		}
		if has && (types.Implements(tn.Type(), iface) || types.Implements(types.NewPointer(tn.Type()), iface)) {
			return true
		}
	}
	return false
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
