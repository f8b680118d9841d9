package lint

import (
	"go/ast"
	"go/types"
)

// SidebandAnalyzer upgrades clockneutral's import-level rule to a
// value-level guarantee: trace context — the batch tag and send clock
// that ride *outside* every message payload, and the trace.Flow records
// built from them — must never flow into payload bytes or into
// virtual-clock arithmetic. Either flow breaks a core determinism
// theorem: payload contamination makes traced and untraced runs produce
// different output bytes; clock contamination makes them produce
// different timings. Both would silently invalidate every byte-identity
// pin in the test suite the moment someone sets mpi.Config.Trace.
//
// Sources and sinks are declared on the declarations themselves
// (facts.go). Sources, //lint:trace-context: the result of a marked
// method, a read of a marked field (field-sensitive, so the mpi core that
// legitimately carries sideband next to payload data stays clean), any
// value of a marked type. Taint flows through assignments, parameters, and
// returns via the engine in taint.go; struct writes are not tracked
// (DESIGN.md §12), so stamping sideband INTO a message literal is fine —
// reading it back out and handing it to an encoder is not.
//
// Sinks are the named parameters of //lint:clock (virtual-time amounts),
// //lint:payload (message data) and //lint:encodes (wire-format
// primitives) operations. Findings are reported only inside the runtime
// packages (mpi, engine, core, mpiblast, mpiio), scoped by package name
// like clockneutral so fixtures can exercise the analyzer.
var SidebandAnalyzer = &Analyzer{
	Name: "sideband",
	Doc: "trace-context sideband (//lint:trace-context values) must never flow into " +
		"payload, encoder or virtual-clock parameters: tracing cannot perturb bytes or time",
	Run: runSideband,
}

var sidebandPackages = map[string]bool{
	"mpi":      true,
	"engine":   true,
	"core":     true,
	"mpiblast": true,
	"mpiio":    true,
}

// sidebandSinks pairs each sink marker with what a flow into it breaks.
var sidebandSinks = []struct{ marker, what string }{
	{factClock, "virtual-time cost %s: tracing must never perturb virtual time"},
	{factPayload, "the payload of %s: sideband must ride outside message data"},
	{factEncodes, "payload encoder %s: traced and untraced runs would emit different bytes"},
}

func runSideband(u *Unit) {
	prog := BuildProgram(u)
	taint := RunTaint(prog, func(p *Package, e ast.Expr) bool {
		return isTraceContextType(u.Facts, p.Info, e) || isTraceContext(u.Facts, p, e)
	})
	for _, fi := range prog.Funcs {
		if sidebandPackages[fi.Pkg.Types.Name()] {
			checkSideband(u, taint, fi)
		}
	}
}

// isTraceContext reports whether e is a call of a method, or a read of a
// struct field, marked //lint:trace-context.
func isTraceContext(facts Facts, p *Package, e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CallExpr:
		return facts.Has(calleeObj(p.Info, e), factTraceContext)
	case *ast.SelectorExpr:
		if s, ok := p.Info.Selections[e]; ok && s.Kind() == types.FieldVal {
			return facts.Has(s.Obj(), factTraceContext)
		}
	}
	return false
}

// isTraceContextType reports whether the expression's static type is a
// marked type (possibly behind a pointer or slice).
func isTraceContextType(facts Facts, info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
			continue
		case *types.Slice:
			t = u.Elem()
			continue
		}
		break
	}
	named, ok := t.(*types.Named)
	return ok && facts.Has(named.Obj(), factTraceContext)
}

func checkSideband(u *Unit, taint *Taint, fi *FuncInfo) {
	p := fi.Pkg
	ast.Inspect(fi.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // literal bodies are their own FuncInfos
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		op := calleeObj(p.Info, call)
		for _, sink := range sidebandSinks {
			for _, a := range u.Facts.Args(op, call, sink.marker) {
				if !taint.Tainted(p, a) || u.Justified(p, a.Pos(), "sideband") || u.Justified(p, call.Pos(), "sideband") {
					continue
				}
				u.Reportf(a.Pos(), "trace-context sideband flows into "+sink.what+" (or justify with //lint:sideband)",
					op.Pkg().Name()+"."+op.Name())
			}
		}
		return true
	})
}
