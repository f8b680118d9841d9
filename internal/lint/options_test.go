package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"testing"
)

// optionTypes are the structs a caller configures a run with, by package
// (the module's root package is ""), then type name.
var optionTypes = map[string][]string{
	"":         {"RunSpec", "Search"},
	"blast":    {"Options"},
	"core":     {"Options"},
	"mpiblast": {"Options"},
	"mpi":      {"Config", "Fault"},
	"workload": {"DBConfig", "QueryConfig", "ArrivalConfig"},
	"mpiio":    {"Hints"},
	"vfs":      {"FaultPlan", "Profile"},
	"simtime":  {"CostModel"},
	"formatdb": {"Config"},
}

// unsetAllowed lists the option fields that shipped code may leave unset,
// each with its reason. Only one reason holds: the frozen bench module
// (its own go.mod, outside ./...) sets the field. Any other field nothing
// sets is a constant: delete the field, its default fill and its checks.
var unsetAllowed = map[string]string{}

// TestEveryOptionIsSet fails on an exported field of an option type that no
// non-test file of the module writes. A write is a composite-literal key
// (or a position in an unkeyed literal), the left side of an assignment or
// increment, or the operand of &. A default fill — an assignment under an
// if whose condition compares that same field with its zero value — is not
// a write: a field only its default fill sets has one value.
func TestEveryOptionIsSet(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	l := testLoader(t)
	pkgs, err := l.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	written := make(map[*types.Var]bool)
	for _, p := range pkgs {
		for _, f := range p.Files {
			markWrites(p.Info, f, nil, written)
		}
	}
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.ImportPath] = p
	}
	var unset []string
	for short, names := range optionTypes {
		path, label := l.ModulePath, "parblast"
		if short != "" {
			path, label = l.ModulePath+"/internal/"+short, short
		}
		p := byPath[path]
		if p == nil {
			t.Errorf("option package %s: not loaded", path)
			continue
		}
		for _, name := range names {
			tn, ok := p.Types.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				t.Errorf("option type %s.%s: no such type", label, name)
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				t.Errorf("option type %s.%s: not a struct", label, name)
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() && !written[f] {
					unset = append(unset, label+"."+name+"."+f.Name())
				}
			}
		}
	}
	sort.Strings(unset)
	seen := make(map[string]bool)
	for _, name := range unset {
		seen[name] = true
		if _, ok := unsetAllowed[name]; !ok {
			t.Errorf("%s: no non-test code sets it: make it a constant", name)
		}
	}
	for name := range unsetAllowed {
		if !seen[name] {
			t.Errorf("allowlist entry %s: shipped code sets it now, or it is gone: drop the entry", name)
		}
	}
}

// markWrites records in written every struct field that n writes. guards
// holds the fields that an enclosing if compares with their zero value; an
// assignment to one of them is a default fill and is skipped.
func markWrites(info *types.Info, n ast.Node, guards map[*types.Var]bool, written map[*types.Var]bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			if n.Init != nil {
				markWrites(info, n.Init, guards, written)
			}
			markWrites(info, n.Cond, guards, written)
			markWrites(info, n.Body, zeroCompared(info, n.Cond, guards), written)
			if n.Else != nil {
				markWrites(info, n.Else, guards, written)
			}
			return false
		case *ast.CompositeLit:
			st, ok := typeOf(info, n).(*types.Struct)
			if !ok {
				return true
			}
			for i, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					if f := fieldOf(info, kv.Key); f != nil {
						written[f] = true
					}
				} else if i < st.NumFields() {
					written[st.Field(i)] = true
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if f := fieldOf(info, lhs); f != nil && !guards[f] {
					written[f] = true
				}
			}
		case *ast.IncDecStmt:
			if f := fieldOf(info, n.X); f != nil && !guards[f] {
				written[f] = true
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if f := fieldOf(info, n.X); f != nil {
					written[f] = true
				}
			}
		}
		return true
	})
}

// zeroCompared returns guards plus every field that cond compares with its
// zero value through ==.
func zeroCompared(info *types.Info, cond ast.Expr, guards map[*types.Var]bool) map[*types.Var]bool {
	out := guards
	ast.Inspect(cond, func(n ast.Node) bool {
		b, ok := n.(*ast.BinaryExpr)
		if !ok || b.Op != token.EQL {
			return true
		}
		for _, pair := range [][2]ast.Expr{{b.X, b.Y}, {b.Y, b.X}} {
			f := fieldOf(info, pair[0])
			if f == nil || !isZero(info, pair[1]) {
				continue
			}
			if len(out) == len(guards) {
				out = make(map[*types.Var]bool, len(guards)+1)
				for g := range guards {
					out[g] = true
				}
			}
			out[f] = true
		}
		return true
	})
	return out
}

// fieldOf returns the struct field that e names (x.F, or a bare key F),
// looking through parentheses; nil when e names no field.
func fieldOf(info *types.Info, e ast.Expr) *types.Var {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			break
		}
		e = p.X
	}
	var id *ast.Ident
	switch e := e.(type) {
	case *ast.SelectorExpr:
		id = e.Sel
	case *ast.Ident:
		id = e
	default:
		return nil
	}
	if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
		return v
	}
	return nil
}

// isZero reports whether e is a constant zero value or nil.
func isZero(info *types.Info, e ast.Expr) bool {
	tv := info.Types[e]
	if tv.IsNil() {
		return true
	}
	switch v := tv.Value; {
	case v == nil:
		return false
	case v.Kind() == constant.String:
		return constant.StringVal(v) == ""
	case v.Kind() == constant.Bool:
		return !constant.BoolVal(v)
	}
	return constant.Sign(tv.Value) == 0
}

// typeOf is the underlying type of a composite literal, through pointers
// (an elided &T in a slice of pointers).
func typeOf(info *types.Info, lit *ast.CompositeLit) types.Type {
	t := info.TypeOf(lit)
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.Underlying()
}
