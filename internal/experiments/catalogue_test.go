package experiments

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCatalogueNames: every entry has a name, a title and a runner, no name
// is taken twice or collides with "all", every name resolves to its own
// entry, and an unknown name's error lists them all.
func TestCatalogueNames(t *testing.T) {
	seen := map[string]bool{"all": true}
	for _, s := range Specs() {
		if s.Name == "" || s.Title == "" || s.Run == nil {
			t.Errorf("incomplete entry %+v", s)
		}
		if seen[s.Name] {
			t.Errorf("name %q is taken twice", s.Name)
		}
		seen[s.Name] = true
		got, err := Select(s.Name)
		if err != nil || len(got) != 1 || got[0].Name != s.Name || got[0].Title != s.Title {
			t.Errorf("Select(%q) = %+v, %v", s.Name, got, err)
		}
	}
	if all, err := Select("all"); err != nil || len(all) != len(Specs()) {
		t.Errorf(`Select("all") = %d entries, %v; want %d`, len(all), err, len(Specs()))
	}
	_, err := Select("nosuch")
	if err == nil {
		t.Fatal("unknown name accepted")
	}
	if !strings.Contains(err.Error(), strings.Join(Names(), ", ")) {
		t.Errorf("unknown-name error does not list the names: %v", err)
	}
}

// TestDocumentedNamesResolve: every `benchsuite -exp <name>` the documents
// spell is in the catalogue, and README's "Reproducing the paper" table has
// a row for every entry.
func TestDocumentedNamesResolve(t *testing.T) {
	spelled := regexp.MustCompile(`benchsuite -exp ([a-z0-9]+)`)
	docs := map[string]string{}
	for _, name := range []string{"README.md", "EXPERIMENTS.md", "DESIGN.md"} {
		data, err := os.ReadFile("../../" + name)
		if err != nil {
			t.Fatal(err)
		}
		docs[name] = string(data)
		for _, m := range spelled.FindAllStringSubmatch(docs[name], -1) {
			if _, err := Select(m[1]); err != nil {
				t.Errorf("%s spells `%s`: %v", name, m[0], err)
			}
		}
	}
	_, section, ok := strings.Cut(docs["README.md"], "## Reproducing the paper\n")
	if !ok {
		t.Fatal(`README.md has no "Reproducing the paper" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	for _, name := range Names() {
		if !strings.Contains(section, "| `benchsuite -exp "+name+"` |") {
			t.Errorf(`README.md "Reproducing the paper" has no row for -exp %s`, name)
		}
	}
}

// TestCitedTestsExist: every Test… name the documents or the lint's
// concurrency-site list cite is a test of the repository: a top-level test,
// or a row of a table test, whose name is a string literal in a test file. A
// test folded into a table keeps its name as the row's, so a citation of it
// still resolves; a test renamed or deleted must take its citations along.
func TestCitedTestsExist(t *testing.T) {
	exists := map[string]bool{}
	row := regexp.MustCompile(`^"(Test[A-Z][A-Za-z0-9_]*)(/|")`)
	err := filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "../.." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir // .git, build caches, fixtures
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Recv == nil && strings.HasPrefix(n.Name.Name, "Test") {
					exists[n.Name.Name] = true
				}
			case *ast.BasicLit:
				if m := row.FindStringSubmatch(n.Value); m != nil {
					exists[m[1]] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	godisc, err := os.ReadFile("../lint/godisc.go")
	if err != nil {
		t.Fatal(err)
	}
	_, sites, ok := strings.Cut(string(godisc), "var concurrencySites = map[string]string{")
	if !ok {
		t.Fatal("internal/lint/godisc.go declares no concurrencySites")
	}
	sites, _, _ = strings.Cut(sites, "\n}\n")
	sources := map[string]string{"internal/lint/godisc.go concurrencySites": sites}
	for _, name := range []string{"README.md", "EXPERIMENTS.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"} {
		data, err := os.ReadFile("../../" + name)
		if err != nil {
			t.Fatal(err)
		}
		sources[name] = string(data)
	}
	cited := regexp.MustCompile(`\bTest[A-Z][A-Za-z0-9_]*`)
	for name, text := range sources {
		for _, c := range cited.FindAllString(text, -1) {
			if !exists[c] {
				t.Errorf("%s cites %s, which is no test", name, c)
			}
		}
	}
}

// TestAllIsEachEntryAlone: at a reduced lab, "all" on one shared lab prints
// exactly what each entry prints when run alone on a fresh one — no entry
// changes the lab under the next — and returns the same artifact rows.
// prepcost, which the command line could not reach by name, is runnable and
// contributes a table but no artifact entry.
func TestAllIsEachEntryAlone(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole catalogue twice")
	}
	reduced := func() Lab {
		lab := DefaultLab()
		lab.DB.NumSeqs = 250 // the finest partition any entry asks for is 248 fragments
		lab.DB.MeanLen, lab.QueryMeanLen = 100, 150
		lab.QuerySizes = [4]int{300, 600, 900, 1500}
		lab.MergeRanks = []int{8}
		return lab
	}
	all, err := Select("all")
	if err != nil {
		t.Fatal(err)
	}
	shared := reduced()
	var together, alone bytes.Buffer
	for _, s := range all {
		rows, _, err := s.Run(&shared, &together)
		if err != nil {
			t.Fatalf("%s in all: %v", s.Name, err)
		}
		one, err := Select(s.Name)
		if err != nil {
			t.Fatal(err)
		}
		fresh := reduced()
		before := alone.Len()
		rowsAlone, _, err := one[0].Run(&fresh, &alone)
		if err != nil {
			t.Fatalf("%s alone: %v", s.Name, err)
		}
		block := alone.String()[before:]
		if !strings.HasPrefix(block, "\n== "+s.Title+" ==\n") {
			t.Errorf("%s: table does not start with the catalogue title:\n%s", s.Name, block)
		}
		if len(rows) != len(rowsAlone) {
			t.Errorf("%s: %d artifact rows in all, %d alone", s.Name, len(rows), len(rowsAlone))
		}
		if (s.Name == "prepcost") != (rows == nil) {
			t.Errorf("%s: artifact rows nil = %v", s.Name, rows == nil)
		}
	}
	if together.String() != alone.String() {
		t.Errorf("all differs from the entries run alone:\n--- all\n%s\n--- alone\n%s", together.String(), alone.String())
	}
}
