package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// The analyzers know no API by name. What they need to know about the
// simulator's own operations is declared where the operation lives, as
// "//lint:<marker> [param ...]" lines in the doc comment of the function,
// method, type or struct field it describes, and read into one fact set
// keyed by types.Object when the loader type-checks the declaring package
// (module-local packages always load from source, so an importer of mpi
// sees mpi's markers). Deleting or adding an operation therefore never
// touches this package, and a foreign method that merely shares a name
// with one of ours matches nothing (maporder's naming conventions aside:
// see Named).
const (
	// The call moves or re-buckets virtual time (clockneutral); the named
	// parameters are the amounts (sideband sinks).
	factClock = "clock"
	// The named parameter is message data handed to the runtime (sideband
	// sink; maporder treats the call as a send).
	factPayload = "payload"
	// The named parameter is appended to the wire format (sideband sink;
	// maporder treats the call as order-sensitive).
	factEncodes = "encodes"
	// The value is trace context that rides outside every payload: a
	// method's result, a field, or any value of a marked type (sideband's
	// taint source).
	factTraceContext = "trace-context"
)

var factMarkers = map[string]bool{
	factClock: true, factPayload: true, factEncodes: true, factTraceContext: true,
}

// Facts is the fact set: object → marker → indices of the parameters the
// marker names (present but empty when it names none).
type Facts map[types.Object]map[string][]int

// Has reports whether obj carries the marker.
func (f Facts) Has(obj types.Object, marker string) bool {
	_, ok := f[obj][marker]
	return ok
}

// Args returns the arguments of a call of op that land in the parameters
// the marker names on it (none when the call spreads a multi-value result
// over them).
func (f Facts) Args(op types.Object, call *ast.CallExpr, marker string) []ast.Expr {
	var args []ast.Expr
	for _, i := range f[op][marker] {
		if i < len(call.Args) {
			args = append(args, call.Args[i])
		}
	}
	return args
}

// Named reports whether any declaration carrying the marker is called name.
// Only maporder asks: its sinks are naming conventions (Write*, Encode*,
// Marshal*) because the writer is usually somebody else's type, and
// "called like one of our senders" is the same kind of evidence.
func (f Facts) Named(name, marker string) bool {
	for obj, markers := range f {
		if _, ok := markers[marker]; ok && obj.Name() == name {
			return true
		}
	}
	return false
}

// scan records the markers of one type-checked package. An unknown marker
// or a name the declaration does not have is a load error: a typo must not
// silently switch a check off.
func (f Facts) scan(l *Loader, p *Package) error {
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if err := f.add(l, p, d.Doc, d.Name); err != nil {
					return err
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					doc := ts.Doc
					if doc == nil {
						doc = d.Doc
					}
					if err := f.add(l, p, doc, ts.Name); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// add parses the marker lines of one doc comment. The names after the
// marker are parameters of the declared function, recorded on it by index,
// or fields of the declared struct type, each of which gets the marker
// itself; with no names the marker is about the declaration as a whole.
func (f Facts) add(l *Loader, p *Package, doc *ast.CommentGroup, name *ast.Ident) error {
	if doc == nil {
		return nil
	}
	decl := p.Info.Defs[name]
	for _, c := range doc.List {
		text, ok := strings.CutPrefix(c.Text, "//lint:")
		if !ok {
			continue
		}
		words := strings.Fields(text)
		where := l.Fset.Position(c.Pos())
		if len(words) == 0 || !factMarkers[words[0]] {
			return fmt.Errorf("lint: %s: unknown marker %q", where, c.Text)
		}
		marker, names := words[0], words[1:]
		if len(names) == 0 {
			f.set(decl, marker, nil)
			continue
		}
		var params []int
		for _, w := range names {
			bad := fmt.Errorf("lint: %s: %s has no parameter or field %q", where, name.Name, w)
			switch t := decl.Type().Underlying().(type) {
			case *types.Signature:
				i, _ := varNamed(t.Params().Len(), t.Params().At, w)
				if i < 0 {
					return bad
				}
				params = append(params, i)
			case *types.Struct:
				_, field := varNamed(t.NumFields(), t.Field, w)
				if field == nil {
					return bad
				}
				f.set(field, marker, nil)
			default:
				return bad
			}
		}
		if params != nil {
			f.set(decl, marker, params)
		}
	}
	return nil
}

func (f Facts) set(obj types.Object, marker string, params []int) {
	if f[obj] == nil {
		f[obj] = make(map[string][]int)
	}
	f[obj][marker] = params
}

// varNamed finds a parameter or field by name: its index and itself, or
// -1 and nil.
func varNamed(n int, at func(int) *types.Var, name string) (int, *types.Var) {
	for i := 0; i < n; i++ {
		if at(i).Name() == name {
			return i, at(i)
		}
	}
	return -1, nil
}

// calleeObj resolves a call to the declared function or method it invokes,
// or nil for conversions, builtins, literals and function values.
func calleeObj(info *types.Info, call *ast.CallExpr) types.Object {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	if fn, ok := info.Uses[id].(*types.Func); ok {
		return fn
	}
	return nil
}
