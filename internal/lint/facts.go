package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The analyzers know no API by name. What they need to know about the
// simulator's own operations is declared where the operation lives, as a
// bare "//lint:<marker>" line in the doc comment of the function or method
// it describes, and read into one fact set keyed by types.Object when the
// loader type-checks the declaring package (module-local packages always
// load from source, so an importer of mpi sees mpi's markers). Deleting or
// adding an operation therefore never touches this package, and a foreign
// method that merely shares a name with one of ours matches nothing
// (maporder's naming conventions aside: see Named).
const (
	// The call moves or re-buckets virtual time (clockneutral).
	factClock = "clock"
	// The call hands message data to the runtime (maporder treats it as a
	// send).
	factPayload = "payload"
	// The call appends to the wire format (maporder treats it as
	// order-sensitive).
	factEncodes = "encodes"
)

var factMarkers = map[string]bool{factClock: true, factPayload: true, factEncodes: true}

// Facts is the fact set: declared function → the markers it carries.
type Facts map[types.Object]map[string]bool

// Has reports whether obj carries the marker.
func (f Facts) Has(obj types.Object, marker string) bool { return f[obj][marker] }

// Named reports whether any declaration carrying the marker is called name.
// Only maporder asks: its sinks are naming conventions (Write*, Encode*,
// Marshal*) because the writer is usually somebody else's type, and
// "called like one of our senders" is the same kind of evidence.
func (f Facts) Named(name, marker string) bool {
	for obj, markers := range f {
		if markers[marker] && obj.Name() == name {
			return true
		}
	}
	return false
}

// scan records the markers of one type-checked package. A marker line that
// is not a bare known marker on a function — an unknown word, a name after
// the marker, a marker on a type — is a load error: a typo must not
// silently switch a check off.
func (f Facts) scan(l *Loader, p *Package) error {
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				for _, c := range markerLines(d.Doc) {
					marker := strings.TrimSpace(strings.TrimPrefix(c.Text, "//lint:"))
					if !factMarkers[marker] {
						return fmt.Errorf("lint: %s: %q is not a marker: a marker line is exactly //lint:clock, //lint:payload or //lint:encodes",
							l.Fset.Position(c.Pos()), c.Text)
					}
					obj := p.Info.Defs[d.Name]
					if f[obj] == nil {
						f[obj] = make(map[string]bool)
					}
					f[obj][marker] = true
				}
			case *ast.GenDecl:
				if d.Tok != token.TYPE {
					continue
				}
				docs := []*ast.CommentGroup{d.Doc}
				for _, spec := range d.Specs {
					docs = append(docs, spec.(*ast.TypeSpec).Doc)
				}
				for _, doc := range docs {
					if c := markerLines(doc); c != nil {
						return fmt.Errorf("lint: %s: %q documents a type: markers describe functions", l.Fset.Position(c[0].Pos()), c[0].Text)
					}
				}
			}
		}
	}
	return nil
}

// markerLines returns the "//lint:" lines of a doc comment.
func markerLines(doc *ast.CommentGroup) []*ast.Comment {
	if doc == nil {
		return nil
	}
	var out []*ast.Comment
	for _, c := range doc.List {
		if strings.HasPrefix(c.Text, "//lint:") {
			out = append(out, c)
		}
	}
	return out
}
