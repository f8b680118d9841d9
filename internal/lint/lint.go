// Package lint is a stdlib-only static-analysis framework that enforces
// the part of the simulator's determinism contract no single run can show.
// A run is one schedule: it cannot see that a wall-clock read, a global
// random draw or a map walk would come out differently next time, that
// metrics advance a clock only when they are on, that trace context leaks
// into bytes or time the same way traced or not, or that a goroutine the
// test happened to join is fenced. The analyzers in this package encode
// those invariants over the typed ASTs of every package, so a violation
// fails CI instead of waiting for a reviewer to notice. What one run does
// show — a collective some rank never reaches, a message nobody receives —
// is internal/mpi's to report, naming the rank and the collective or the
// source and the tag.
//
// The framework loads packages with `go list -json`, type-checks them
// with go/types, runs a registry of analyzers, and emits deterministic
// (file, line, analyzer, message) diagnostics as text or JSON. There is
// one way to run it (Analyze: the asked packages against the whole
// module) and one way to accept a finding: a "//lint:<name> <reason>"
// directive at the site. cmd/parblastlint is the CLI.
package lint

import (
	"encoding/json"
	"fmt"
	"go/token"
	"io"
	"sort"
	"strings"
)

// Diagnostic is one finding, ordered and deduplicated by all five fields.
type Diagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// String renders the canonical single-line form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Analyzer is one invariant checker. Run receives every loaded package at
// once: most analyzers iterate per package, but sideband's taint follows
// values across the whole module.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(u *Unit)
}

// Unit is the context one analyzer runs in.
type Unit struct {
	Fset *token.FileSet
	Pkgs []*Package
	// Facts are the API markers of every package the loader has checked,
	// the unit's own and the ones they import (facts.go).
	Facts Facts

	rel      func(string) string
	analyzer string
	diags    []Diagnostic
}

// Reportf records a diagnostic at pos.
func (u *Unit) Reportf(pos token.Pos, format string, args ...any) {
	position := u.Fset.Position(pos)
	u.diags = append(u.diags, Diagnostic{
		File:     u.rel(position.Filename),
		Line:     position.Line,
		Col:      position.Column,
		Analyzer: u.analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}

// All returns the full analyzer registry in the order they run. The order
// does not affect output: diagnostics are sorted before they are returned.
func All() []*Analyzer {
	return []*Analyzer{
		WallclockAnalyzer,
		SeededRandAnalyzer,
		MapOrderAnalyzer,
		ClockNeutralAnalyzer,
		GoDiscAnalyzer,
		SidebandAnalyzer,
	}
}

// Justified reports whether a "//lint:<name> <reason>" directive covers
// pos: the one way to accept a finding. A bare directive covers it too but
// is itself reported — the reason is the review record.
func (u *Unit) Justified(p *Package, pos token.Pos, name string) bool {
	text, _ := p.Directive(u.Fset, pos)
	reason, ok := strings.CutPrefix(text, name)
	if !ok {
		return false
	}
	if strings.TrimSpace(reason) == "" {
		u.Reportf(pos, "//lint:%s needs a justification: say why the invariant holds here anyway", name)
	}
	return true
}

// Analyze lints the packages matching patterns (default ./...) with every
// analyzer. The analysis always runs over the whole module plus whatever
// else was asked for, and only the findings located in the asked packages
// are returned — so a subset run reports exactly what ./... reports there,
// however far from the subset a tainted value comes from.
func Analyze(l *Loader, patterns ...string) ([]Diagnostic, error) {
	all, err := l.Load(append([]string{"./..."}, patterns...)...)
	if err != nil {
		return nil, err
	}
	diags := Run(l, all, All())
	if len(patterns) == 0 {
		return diags, nil
	}
	asked, err := l.Load(patterns...)
	if err != nil {
		return nil, err
	}
	files := make(map[string]bool)
	for _, p := range asked {
		for _, f := range p.Files {
			files[l.Rel(l.Fset.Position(f.Pos()).Filename)] = true
		}
	}
	var out []Diagnostic
	for _, d := range diags {
		if files[d.File] {
			out = append(out, d)
		}
	}
	return out, nil
}

// Run executes the given analyzers over the packages and returns the
// deduplicated, deterministically ordered diagnostics.
func Run(l *Loader, pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		u := &Unit{Fset: l.Fset, Pkgs: pkgs, Facts: l.facts, rel: l.Rel, analyzer: a.Name}
		a.Run(u)
		diags = append(diags, u.diags...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	// Deduplicate: identical findings from overlapping package loads
	// (a package listed under two patterns) collapse to one record.
	out := diags[:0]
	var last Diagnostic
	for i, d := range diags {
		if i > 0 && d == last {
			continue
		}
		out = append(out, d)
		last = d
	}
	return out
}

// WriteJSON emits the diagnostics as an indented JSON array (stable field
// order, records pre-sorted by Run) with a trailing newline. An empty set
// encodes as [] rather than null.
func WriteJSON(w io.Writer, diags []Diagnostic) error {
	if diags == nil {
		diags = []Diagnostic{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(diags)
}

// WriteText emits the canonical one-line-per-finding form.
func WriteText(w io.Writer, diags []Diagnostic) {
	for _, d := range diags {
		fmt.Fprintln(w, d.String())
	}
}
