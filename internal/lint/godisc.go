package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// GoDiscAnalyzer fences concurrency into named sites. The simulator is
// sequential by construction — one rank holds the scheduler token at a time
// — and the whole module has two go statements, one channel send and one
// channel receive. So instead of proving joins, the analyzer keeps the list
// of functions allowed to contain a go statement or a channel operation
// (send, receive, close, select, range over a channel), over every non-test
// file it is given, and each entry names the test that shows, by running it,
// that the site's goroutines are gone when its run returns. Anything outside
// the list is a finding; a new site pays one line here and one test case
// there. A listed function that no longer contains such a construct is a
// finding too, so the list cannot outlive the code it describes.
var GoDiscAnalyzer = &Analyzer{
	Name: "godisc",
	Doc: "go statements and channel operations are allowed only in the listed concurrency sites, " +
		"each joined by a named goroutine-count test",
	Run: runGoDisc,
}

// concurrencySites maps each allowed function, written as its package path,
// a dot, and its name with the receiver type spelled as in the source, to
// the tests that join it. Function literals belong to the declaration they
// are written in.
var concurrencySites = map[string]string{
	// One goroutine per rank, joined by wg.Wait before RunConfig returns.
	"parblast/internal/mpi.RunConfig": "mpi.TestAbortHygiene, parblast.TestNoGoroutineOutlivesARun",
	// The scheduler token: a one-slot wake channel per rank, sent to by the
	// rank that parks and received from by the rank that resumes.
	"parblast/internal/mpi.(*World).schedule":  "mpi.TestAbortHygiene, parblast.TestNoGoroutineOutlivesARun",
	"parblast/internal/mpi.(*Rank).awaitToken": "mpi.TestAbortHygiene, parblast.TestNoGoroutineOutlivesARun",
	// The kernel's subject-claiming pool, joined by wg.Wait before the
	// fragment's results are assembled.
	"parblast/internal/blast.(*Context).searchParallel": "blast.TestSearchPoolClaimOrderInvisible, parblast.TestNoGoroutineOutlivesARun",
}

func runGoDisc(u *Unit) {
	for _, p := range u.Pkgs {
		used := make(map[string]bool)
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				site := "a package-level initializer"
				if fd, ok := decl.(*ast.FuncDecl); ok {
					site = p.ImportPath + "." + fd.Name.Name
					if fd.Recv != nil {
						site = p.ImportPath + ".(" + types.ExprString(fd.Recv.List[0].Type) + ")." + fd.Name.Name
					}
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					what := concurrencyConstruct(p, n)
					if what == "" {
						return true
					}
					used[site] = true
					if _, listed := concurrencySites[site]; !listed {
						u.Reportf(n.Pos(),
							"%s in %s, which is not a listed concurrency site: keep the code sequential, or add the site to concurrencySites with the test that shows its goroutines are gone when the run returns",
							what, site)
					}
					return true
				})
			}
		}
		for site := range concurrencySites {
			if strings.HasPrefix(site, p.ImportPath+".") && !used[site] {
				u.Reportf(p.Files[0].Package,
					"concurrency site %s contains no go statement or channel operation any more: delete its concurrencySites entry", site)
			}
		}
	}
}

// concurrencyConstruct names the fenced construct n is, or "".
func concurrencyConstruct(p *Package, n ast.Node) string {
	switch n := n.(type) {
	case *ast.GoStmt:
		return "go statement"
	case *ast.SendStmt:
		return "channel send"
	case *ast.SelectStmt:
		return "select statement"
	case *ast.UnaryExpr:
		if n.Op == token.ARROW {
			return "channel receive"
		}
	case *ast.RangeStmt:
		if tv, ok := p.Info.Types[n.X]; ok && tv.Type != nil {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				return "range over a channel"
			}
		}
	case *ast.CallExpr:
		if isBuiltinCall(p, n, "close") {
			return "channel close"
		}
	}
	return ""
}
