package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked package under analysis: its parsed files
// (comments included, test files excluded — the invariants police shipped
// code, not tests), the go/types object graph, and the lint directives
// found in its comments.
type Package struct {
	// ImportPath is the package's import path ("parblast/internal/mpi"),
	// or a synthetic "fixture/<name>" path for testdata packages loaded
	// with LoadDir.
	ImportPath string
	// Dir is the package's source directory.
	Dir string
	// Files are the parsed non-test source files.
	Files []*ast.File
	// Types and Info are the go/types results for the package.
	Types *types.Package
	Info  *types.Info

	// directives maps file name → line → directive text for every
	// "//lint:<name> ..." comment, so analyzers can honour justification
	// comments like //lint:sorted.
	directives map[string]map[int]string
}

// Directive returns the "//lint:" directive text covering pos: a directive
// on the same line as pos, or on the line immediately above it. The
// returned text excludes the "lint:" prefix ("sorted snapshot is re-sorted
// below"). ok is false when no directive covers the position.
func (p *Package) Directive(fset *token.FileSet, pos token.Pos) (text string, ok bool) {
	position := fset.Position(pos)
	lines := p.directives[position.Filename]
	if lines == nil {
		return "", false
	}
	if t, found := lines[position.Line]; found {
		return t, true
	}
	if t, found := lines[position.Line-1]; found {
		return t, true
	}
	return "", false
}

// listedPackage is the subset of `go list -json` output the loader uses.
type listedPackage struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	Imports    []string
}

// Loader loads and type-checks packages for analysis. It shells out to
// `go list -json` for package discovery (the stdlib-only counterpart of
// golang.org/x/tools/go/packages) and type-checks with go/types, resolving
// stdlib imports through importer.Default with a from-source fallback and
// module-local imports by recursively loading them.
type Loader struct {
	// ModuleDir is the module root (where go.mod lives).
	ModuleDir string
	// ModulePath is the module's import-path prefix ("parblast").
	ModulePath string

	Fset *token.FileSet

	pkgs   map[string]*Package       // by import path, fully checked
	facts  Facts                     // //lint: markers of every checked package
	metas  map[string]*listedPackage // go list results, by import path
	std    map[string]*types.Package // stdlib import cache
	gcImp  types.Importer
	srcImp types.Importer
}

// NewLoader locates the enclosing module and returns an empty loader.
func NewLoader() (*Loader, error) {
	out, err := goTool("", "list", "-m", "-json")
	if err != nil {
		return nil, fmt.Errorf("lint: locating module: %w", err)
	}
	var mod struct {
		Path string
		Dir  string
	}
	if err := json.Unmarshal(out, &mod); err != nil {
		return nil, fmt.Errorf("lint: parsing go list -m output: %w", err)
	}
	fset := token.NewFileSet()
	return &Loader{
		ModuleDir:  mod.Dir,
		ModulePath: mod.Path,
		Fset:       fset,
		pkgs:       make(map[string]*Package),
		facts:      make(Facts),
		metas:      make(map[string]*listedPackage),
		std:        make(map[string]*types.Package),
		gcImp:      importer.Default(),
		srcImp:     importer.ForCompiler(fset, "source", nil),
	}, nil
}

// goTool runs the go command in dir (module root when empty) and returns
// stdout.
func goTool(dir string, args ...string) ([]byte, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod")
	out, err := cmd.Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok && len(ee.Stderr) > 0 {
			return nil, fmt.Errorf("go %s: %v: %s", strings.Join(args, " "), err, ee.Stderr)
		}
		return nil, fmt.Errorf("go %s: %w", strings.Join(args, " "), err)
	}
	return out, nil
}

// Load lists the given package patterns (e.g. "./...") and type-checks
// every match, returning them sorted by import path.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	metas, err := l.list(patterns)
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, m := range metas {
		if len(m.GoFiles) == 0 {
			continue // test-only or empty package: nothing to police
		}
		p, err := l.load(m.ImportPath)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ImportPath < out[j].ImportPath })
	return out, nil
}

// list runs go list -json and caches the results.
func (l *Loader) list(patterns []string) ([]*listedPackage, error) {
	out, err := goTool(l.ModuleDir, append([]string{"list", "-json=ImportPath,Dir,Name,GoFiles,Imports"}, patterns...)...)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	dec := json.NewDecoder(strings.NewReader(string(out)))
	var metas []*listedPackage
	for dec.More() {
		m := new(listedPackage)
		if err := dec.Decode(m); err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %w", err)
		}
		l.metas[m.ImportPath] = m
		metas = append(metas, m)
	}
	return metas, nil
}

// load returns the checked package for an import path, loading and
// type-checking it (and, through Import, its module-local dependencies)
// on first use.
func (l *Loader) load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	m, ok := l.metas[path]
	if !ok {
		metas, err := l.list([]string{path})
		if err != nil {
			return nil, err
		}
		if len(metas) != 1 {
			return nil, fmt.Errorf("lint: go list %q returned %d packages", path, len(metas))
		}
		m = metas[0]
	}
	files := make([]string, len(m.GoFiles))
	for i, f := range m.GoFiles {
		files[i] = filepath.Join(m.Dir, f)
	}
	p, err := l.check(m.ImportPath, m.Dir, files)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

// LoadDir parses and type-checks a single directory outside the go list
// universe (an internal/lint/testdata fixture package). Module-local
// imports inside the fixture resolve against the real module.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	var files []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		files = append(files, filepath.Join(dir, name))
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	sort.Strings(files)
	return l.check("fixture/"+filepath.Base(dir), dir, files)
}

// check parses and type-checks one package from explicit file paths.
func (l *Loader) check(importPath, dir string, filenames []string) (*Package, error) {
	p := &Package{
		ImportPath: importPath,
		Dir:        dir,
		directives: make(map[string]map[int]string),
	}
	for _, name := range filenames {
		f, err := parser.ParseFile(l.Fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		p.Files = append(p.Files, f)
		l.scanDirectives(p, f)
	}
	p.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	cfg := types.Config{Importer: l}
	tpkg, err := cfg.Check(importPath, l.Fset, p.Files, p.Info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", importPath, err)
	}
	p.Types = tpkg
	if err := l.facts.scan(l, p); err != nil {
		return nil, err
	}
	return p, nil
}

// scanDirectives records every //lint: comment by file and line.
func (l *Loader) scanDirectives(p *Package, f *ast.File) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			if !strings.HasPrefix(text, "lint:") {
				continue
			}
			pos := l.Fset.Position(c.Pos())
			if p.directives[pos.Filename] == nil {
				p.directives[pos.Filename] = make(map[int]string)
			}
			p.directives[pos.Filename][pos.Line] = strings.TrimPrefix(text, "lint:")
		}
	}
}

// Import implements types.Importer: module-local packages load recursively
// through the go list cache, everything else resolves as stdlib — first
// through the toolchain's export data, then by type-checking the stdlib
// package from source (toolchains past Go 1.20 no longer ship export data
// for every platform, so the fallback keeps the tool self-contained).
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "C" {
		return nil, fmt.Errorf("lint: cgo is not supported")
	}
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	if tp, ok := l.std[path]; ok {
		return tp, nil
	}
	tp, err := l.gcImp.Import(path)
	if err != nil {
		tp, err = l.srcImp.Import(path)
	}
	if err != nil {
		return nil, fmt.Errorf("lint: importing %s: %w", path, err)
	}
	l.std[path] = tp
	return tp, nil
}

// Rel makes a file path relative to the module root (slash-separated), the
// canonical form diagnostics use.
func (l *Loader) Rel(file string) string {
	if rel, err := filepath.Rel(l.ModuleDir, file); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(file)
}
