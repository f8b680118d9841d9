package lint

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// The loader shells out to `go list` and type-checks the whole module, so
// every test shares one instance (and its stdlib/package caches), and each
// pattern list is analysed once per test binary: the tree does not change
// while the tests run.
var (
	loaderOnce sync.Once
	testLdr    *Loader
	testLdrErr error
	analyses   = make(map[string][]Diagnostic)
)

func testLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() { testLdr, testLdrErr = NewLoader() })
	if testLdrErr != nil {
		t.Fatalf("NewLoader: %v", testLdrErr)
	}
	return testLdr
}

// analyze is Analyze(patterns...), memoised.
func analyze(t *testing.T, patterns ...string) []Diagnostic {
	t.Helper()
	key := strings.Join(patterns, " ")
	diags, ok := analyses[key]
	if !ok {
		var err error
		if diags, err = Analyze(testLoader(t), patterns...); err != nil {
			t.Fatalf("Analyze(%v): %v", patterns, err)
		}
		analyses[key] = diags
	}
	return diags
}

// fixtureDir returns the absolute path of a testdata fixture package, so
// diagnostic file names come out module-relative regardless of the test's
// working directory.
func fixtureDir(t *testing.T, name string) string {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatalf("abs: %v", err)
	}
	return dir
}

// loadDir parses and type-checks a single directory outside the go list
// universe (an internal/lint/testdata fixture package). Module-local
// imports inside the fixture resolve against the real module.
func (l *Loader) loadDir(dir string) (*Package, error) {
	entries, err := os.ReadDir(dir) // sorted by name
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
	return l.check("fixture/"+filepath.Base(dir), dir, files)
}

func loadFixtures(t *testing.T, names ...string) []*Package {
	t.Helper()
	l := testLoader(t)
	var pkgs []*Package
	for _, name := range names {
		p, err := l.loadDir(fixtureDir(t, name))
		if err != nil {
			t.Fatalf("loadDir(%s): %v", name, err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// want is one "// want \"re\"" expectation comment in a fixture file.
type want struct {
	file    string // module-relative, as diagnostics report it
	line    int
	re      *regexp.Regexp
	matched bool
}

var wantRe = regexp.MustCompile(`// want "([^"]*)"`)

// collectWants scans fixture sources for expectation comments.
func collectWants(t *testing.T, names ...string) []*want {
	t.Helper()
	l := testLoader(t)
	var wants []*want
	for _, name := range names {
		dir := fixtureDir(t, name)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("ReadDir: %v", err)
		}
		for _, e := range entries {
			if !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			path := filepath.Join(dir, e.Name())
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("ReadFile: %v", err)
			}
			for i, line := range strings.Split(string(src), "\n") {
				m := wantRe.FindStringSubmatch(line)
				if m == nil {
					continue
				}
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", path, i+1, m[1], err)
				}
				wants = append(wants, &want{file: l.Rel(path), line: i + 1, re: re})
			}
		}
	}
	return wants
}

// checkWants runs one analyzer over the named fixtures and requires an
// exact bijection between diagnostics and // want comments: every
// diagnostic matches a want on its line, every want is hit.
func checkWants(t *testing.T, a *Analyzer, names ...string) {
	t.Helper()
	l := testLoader(t)
	diags := Run(l, loadFixtures(t, names...), []*Analyzer{a})
	wants := collectWants(t, names...)
	for _, d := range diags {
		found := false
		for _, w := range wants {
			if w.file == d.File && w.line == d.Line && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched %q", w.file, w.line, w.re)
		}
	}
}

func TestWallclockFixture(t *testing.T)  { checkWants(t, WallclockAnalyzer, "wallclock") }
func TestSeededRandFixture(t *testing.T) { checkWants(t, SeededRandAnalyzer, "seededrand") }
func TestMapOrderFixture(t *testing.T)   { checkWants(t, MapOrderAnalyzer, "maporder") }

// Two fixtures: violations in a package named metrics, plus a package
// outside the telemetry set that may advance clocks freely.
func TestClockNeutralFixture(t *testing.T) {
	checkWants(t, ClockNeutralAnalyzer, "clockneutral", "clockneutralok")
}

// Goroutine discipline: listed and unlisted sites, and a listed site that
// no longer needs its entry.
func TestGoDiscFixture(t *testing.T) { checkWants(t, GoDiscAnalyzer, "godisc") }

// TestJSONGolden pins the -json output: field order, indentation, and the
// deterministic (file, line, col, analyzer, message) diagnostic ordering.
func TestJSONGolden(t *testing.T) {
	l := testLoader(t)
	diags := Run(l, loadFixtures(t, "seededrand", "wallclock"), All())
	var buf bytes.Buffer
	if err := WriteJSON(&buf, diags); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	goldenPath := filepath.Join("testdata", "golden.json")
	if os.Getenv("LINT_GOLDEN_UPDATE") != "" {
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatalf("writing golden: %v", err)
		}
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden (run with LINT_GOLDEN_UPDATE=1 to regenerate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Errorf("JSON output diverged from testdata/golden.json (LINT_GOLDEN_UPDATE=1 regenerates):\ngot:\n%s\nwant:\n%s", buf.Bytes(), golden)
	}
}

// TestJSONEmpty pins that no findings encode as [] rather than null.
func TestJSONEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, nil); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if got := strings.TrimSpace(buf.String()); got != "[]" {
		t.Errorf("empty diagnostics encode as %q, want []", got)
	}
}

// TestCommandExitCodes proves the CLI gate end to end: exit 0 on a clean
// package, exit 1 the moment a fixture violation enters the load.
func TestCommandExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the parblastlint binary")
	}
	l := testLoader(t)
	bin := filepath.Join(t.TempDir(), "parblastlint")
	build := exec.Command("go", "build", "-o", bin, "./cmd/parblastlint")
	build.Dir = l.ModuleDir
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/parblastlint: %v\n%s", err, out)
	}

	clean := exec.Command(bin, "./internal/simtime")
	clean.Dir = l.ModuleDir
	if out, err := clean.CombinedOutput(); err != nil {
		t.Errorf("clean package: want exit 0, got %v\n%s", err, out)
	}

	dirty := exec.Command(bin, "./internal/lint/testdata/src/wallclock")
	dirty.Dir = l.ModuleDir
	out, err := dirty.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Errorf("violating fixture: want exit 1, got %v\n%s", err, out)
	}
	if !bytes.Contains(out, []byte("wallclock")) {
		t.Errorf("violating fixture output missing wallclock finding:\n%s", out)
	}
}

// TestSubsetEqualsWhole: a run over named packages reports exactly what the
// run over the whole module (plus whatever else was named) reports in those
// packages, because that is what it is analysed against.
func TestSubsetEqualsWhole(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	const fixtures = "./internal/lint/testdata/src/..."
	for _, list := range [][]string{
		{"./internal/core"},
		{"./internal/engine", "./internal/mpiblast"},
		{fixtures},
		{"./internal/core", fixtures},
	} {
		got := analyze(t, list...)
		hasFixtures := list[len(list)-1] == fixtures
		whole := analyze(t) // ./...
		if hasFixtures {
			whole = analyze(t, "./...", fixtures)
		}
		var want []Diagnostic
		for _, d := range whole {
			for _, pattern := range list {
				if strings.HasPrefix(d.File, strings.TrimSuffix(strings.TrimPrefix(pattern, "./"), "...")) {
					want = append(want, d)
				}
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Analyze(%v) = %d findings, the whole run has %d there\n got: %v\nwant: %v", list, len(got), len(want), got, want)
		}
		if hasFixtures == (len(got) == 0) {
			t.Errorf("Analyze(%v) = %d findings: the fixtures are findings on purpose and the shipped tree has none", list, len(got))
		}
	}
}

// A marker the vocabulary does not have, a marker followed by a name, or a
// marker on a type fails the load: a typo must not switch a check off. The
// bare marker on a function loads, so the errors are the markers'.
func TestBadMarkerIsALoadError(t *testing.T) {
	for name, src := range map[string]string{
		"a bare marker on a function": "package p\n\n//lint:payload\nfunc Send(dst, tag int, data []byte) {}\n",
		"unknown marker":              "package p\n\n//lint:clok\nfunc Advance(d float64) {}\n",
		"a marker followed by a name": "package p\n\n//lint:payload data\nfunc Send(dst, tag int, data []byte) {}\n",
		"a marker on a type":          "package p\n\n//lint:clock\ntype Clock struct{ now float64 }\n",
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := testLoader(t).loadDir(dir)
		if good := strings.HasPrefix(name, "a bare"); good != (err == nil) {
			t.Errorf("%s: load error %v", name, err)
		}
	}
}

// TestModuleClean is the self-gate: the shipped tree has zero findings,
// so every determinism invariant the analyzers encode holds right now.
func TestModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	for _, d := range analyze(t) {
		t.Errorf("finding in shipped tree: %s", d)
	}
}
