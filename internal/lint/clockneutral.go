package lint

import (
	"go/ast"
	"go/types"
)

// clockNeutralPackages are the observability packages that must never
// advance a virtual clock. PR 3's telemetry guarantee — enabling metrics
// or tracing cannot change any reported timestamp or phase duration — is
// only as strong as this invariant: one Clock.Advance inside an
// instrument would make an instrumented run's virtual times differ from
// an uninstrumented one, which is exactly the perturbation the registry
// was designed out of. Recognition is by package name so the fixture
// suite can exercise the analyzer on testdata packages.
var clockNeutralPackages = map[string]bool{
	"metrics": true,
	"trace":   true,
}

// ClockNeutralAnalyzer enforces the telemetry invariant: packages metrics
// and trace must not advance virtual clocks, directly (the simtime.Clock
// methods marked //lint:clock, which move or re-bucket virtual time;
// unmarked read-only accessors are allowed, since exporters legitimately
// read clocks they must never drive) or indirectly (importing the mpi
// layer, whose operations all charge time to the acting rank).
var ClockNeutralAnalyzer = &Analyzer{
	Name: "clockneutral",
	Doc: "packages metrics and trace must not call any simtime/mpi API " +
		"that advances a virtual clock (the PR 3 identical-timestamps guarantee)",
	Run: func(u *Unit) {
		for _, p := range u.Pkgs {
			if !clockNeutralPackages[p.Types.Name()] {
				continue
			}
			for _, f := range p.Files {
				for _, imp := range f.Imports {
					path := imp.Path.Value // quoted
					path = path[1 : len(path)-1]
					if hasPathSuffix(path, "internal/mpi") {
						u.Reportf(imp.Pos(),
							"package %s must stay clock-neutral: importing %s pulls in operations that advance virtual clocks",
							p.Types.Name(), path)
					}
				}
				ast.Inspect(f, func(n ast.Node) bool {
					sel, ok := n.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
					if !ok || fn.Pkg() == nil {
						return true
					}
					switch {
					case hasPathSuffix(fn.Pkg().Path(), "internal/mpi"):
						u.Reportf(sel.Pos(),
							"package %s must stay clock-neutral: mpi.%s charges virtual time to the acting rank",
							p.Types.Name(), fn.Name())
					case u.Facts.Has(fn, factClock):
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
