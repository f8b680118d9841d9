package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// SidebandAnalyzer upgrades clockneutral's import-level rule to a
// value-level guarantee: trace context — the batch tag and send clock
// that ride *outside* every message payload (PR 8), and the FlowEvent
// records built from them — must never flow into payload bytes or into
// virtual-clock arithmetic. Either flow breaks a core determinism
// theorem: payload contamination makes traced and untraced runs produce
// different output bytes; clock contamination makes them produce
// different timings. Both would silently invalidate every byte-identity
// pin in the test suite the moment someone enables -trace-flows.
//
// Sources (field-sensitive, so the mpi core that legitimately carries
// sideband next to payload data stays clean): Rank.TraceBatch() results,
// any value of type mpi.FlowEvent, and reads of the mpi-internal
// sideband fields (batch, batches, sendAt, traceBatch). Taint flows
// through assignments, parameters, and returns via the shared engine in
// taint.go; struct writes are not tracked (DESIGN.md §17), so stamping
// sideband INTO a message literal is fine — reading it back out and
// handing it to an encoder is not.
//
// Sinks: the engine payload encoders (gob, WireQueries, QueryMetas, the
// engine.Writer primitives), the payload argument of mpi sends and
// collectives, and clock arithmetic (simtime.Clock.Advance/AdvanceTo and
// the Rank cost methods). Findings are reported only inside the runtime
// packages (mpi, engine, core, mpiblast, mpiio), scoped by package name
// like clockneutral so fixtures can exercise the analyzer.
var SidebandAnalyzer = &Analyzer{
	Name: "sideband",
	Doc: "trace-context sideband (TraceBatch, send clocks, FlowEvent) must never flow into " +
		"payload encoders or virtual-clock arithmetic: tracing cannot perturb bytes or time",
	Run: runSideband,
}

var sidebandPackages = map[string]bool{
	"mpi":      true,
	"engine":   true,
	"core":     true,
	"mpiblast": true,
	"mpiio":    true,
}

// sidebandFields are the mpi-internal field names that carry trace
// context alongside payload data.
var sidebandFields = map[string]bool{
	"batch":      true,
	"batches":    true,
	"sendAt":     true,
	"traceBatch": true,
}

// clockSinkArgs maps mpi.Rank methods that advance virtual time to the
// argument index of the cost/amount operand.
var clockSinkArgs = map[string]int{
	"Advance":    0,
	"Compute":    0,
	"FormatCost": 0,
	"MemCopy":    0,
	"IO":         1,
	"StartIO":    1,
}

// payloadSinkArgs maps mpi.Rank messaging methods to the index of their
// payload argument.
var payloadSinkArgs = map[string]int{
	"Send":       2,
	"Bcast":      1,
	"AllGather":  0,
	"TreeReduce": 3,
	"TreeBcast":  3,
}

// encoderSinks are the engine payload-encoding entry points; every
// argument is a sink.
var encoderSinks = map[string]bool{
	"EncodeGob":         true,
	"EncodeWireQueries": true,
	"EncodeQueryMetas":  true,
}

// writerSinks are the engine.Writer primitives that emit payload bytes.
var writerSinks = map[string]bool{
	"Bool":   true,
	"Int":    true,
	"Uint":   true,
	"Float":  true,
	"String": true,
	"Blob":   true,
	"Bytes":  true,
}

func runSideband(u *Unit) {
	prog := BuildProgram(u)
	taint := RunTaint(prog, TaintSpec{ExprSource: traceSource})
	s := &sidebandChecker{u: u, taint: taint}
	for _, fi := range prog.Funcs {
		if !sidebandPackages[fi.Pkg.Types.Name()] {
			continue
		}
		s.checkFunc(fi)
	}
}

// traceSource marks the taint origins of trace context.
func traceSource(p *Package, e ast.Expr) bool {
	if isFlowEventType(p.Info, e) {
		return true
	}
	switch e := e.(type) {
	case *ast.CallExpr:
		if sel, ok := e.Fun.(*ast.SelectorExpr); ok {
			pkgPath, name := methodPkgPath(p.Info, sel)
			return name == "TraceBatch" && hasPathSuffix(pkgPath, "internal/mpi")
		}
	case *ast.SelectorExpr:
		if f := fieldObj(p.Info, e); f != nil && f.Pkg() != nil {
			return sidebandFields[f.Name()] && hasPathSuffix(f.Pkg().Path(), "internal/mpi")
		}
	}
	return false
}

// isFlowEventType reports whether the expression's static type is
// mpi.FlowEvent (possibly behind a pointer or slice).
func isFlowEventType(info *types.Info, e ast.Expr) bool {
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
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "FlowEvent" && obj.Pkg() != nil && hasPathSuffix(obj.Pkg().Path(), "internal/mpi")
}

type sidebandChecker struct {
	u     *Unit
	taint *Taint
}

func (s *sidebandChecker) checkFunc(fi *FuncInfo) {
	p := fi.Pkg
	ast.Inspect(fi.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // literal bodies are their own FuncInfos
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgPath, name := methodPkgPath(p.Info, sel)
		switch {
		case hasPathSuffix(pkgPath, "internal/simtime") && (name == "Advance" || name == "AdvanceTo"):
			s.checkArgs(fi, call, call.Args,
				"virtual-clock arithmetic simtime.%s: tracing must never perturb virtual time", name)
		case hasPathSuffix(pkgPath, "internal/mpi"):
			if idx, ok := clockSinkArgs[name]; ok && idx < len(call.Args) {
				s.checkArgs(fi, call, call.Args[idx:idx+1],
					"virtual-time cost mpi.%s: tracing must never perturb virtual time", name)
			}
			if idx, ok := payloadSinkArgs[name]; ok && idx < len(call.Args) {
				s.checkArgs(fi, call, call.Args[idx:idx+1],
					"the payload of mpi.%s: sideband must ride outside message data", name)
			}
		case hasPathSuffix(pkgPath, "internal/engine") && (encoderSinks[name] || writerSinks[name]):
			s.checkArgs(fi, call, call.Args,
				"payload encoder engine.%s: traced and untraced runs would emit different bytes", name)
		}
		return true
	})
}

func (s *sidebandChecker) checkArgs(fi *FuncInfo, call *ast.CallExpr, args []ast.Expr, format, name string) {
	for _, a := range args {
		if !s.taint.Tainted(fi.Pkg, a) {
			continue
		}
		if s.justified(fi, a.Pos()) || s.justified(fi, call.Pos()) {
			continue
		}
		s.u.Reportf(a.Pos(),
			"trace-context sideband flows into "+format+" (or justify with //lint:sideband)", name)
	}
}

func (s *sidebandChecker) justified(fi *FuncInfo, pos token.Pos) bool {
	text, ok := fi.Pkg.Directive(s.u.Fset, pos)
	if !ok || !strings.HasPrefix(text, "sideband") {
		return false
	}
	if strings.TrimSpace(strings.TrimPrefix(text, "sideband")) == "" {
		s.u.Reportf(pos, "//lint:sideband needs a justification: say why this flow cannot change payload bytes or virtual time")
	}
	return true
}
