package lint

import (
	"go/ast"
	"go/types"
)

// clockNeutralPackages are the observability packages that must never
// advance a virtual clock. The telemetry guarantee — enabling metrics or
// tracing cannot change any reported timestamp or phase duration — is only
// as strong as this invariant: one Clock.Advance inside an instrument would
// make an instrumented run's virtual times differ from an uninstrumented
// one, which is exactly the perturbation the registry was designed out of.
// Recognition is by package name so the fixture suite can exercise the
// analyzer on testdata packages.
var clockNeutralPackages = map[string]bool{
	"metrics": true,
	"trace":   true,
}

// ClockNeutralAnalyzer enforces the telemetry invariant: packages metrics
// and trace must not call a method marked //lint:clock, which moves or
// re-buckets virtual time. Unmarked read-only accessors are allowed, since
// exporters legitimately read clocks they must never drive. The mpi
// operations that charge the acting rank are out of their reach already:
// internal/mpi imports both packages, so the compiler rejects the import
// back, naming it.
var ClockNeutralAnalyzer = &Analyzer{
	Name: "clockneutral",
	Doc:  "packages metrics and trace must not call any //lint:clock API that advances a virtual clock",
	Run: func(u *Unit) {
		for _, p := range u.Pkgs {
			if !clockNeutralPackages[p.Types.Name()] {
				continue
			}
			for _, f := range p.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					sel, ok := n.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					if fn, ok := p.Info.Uses[sel.Sel].(*types.Func); ok && u.Facts.Has(fn, factClock) {
						u.Reportf(sel.Pos(),
							"package %s must stay clock-neutral: %s %s advances a virtual clock, so instrumentation would change the measured timings",
							p.Types.Name(), fn.Pkg().Name(), fn.Name())
					}
					return true
				})
			}
		}
	},
}
