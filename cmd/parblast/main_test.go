package main

import (
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestIgnoredFlag: an arrival flag set without -serve is rejected, naming the
// flag and the reason. `-arrival-rate 7` used to exit 0 having dropped it.
// What an engine would not read the façade rejects by name
// (parblast.TestFacadeRejectsWhatAnEngineWouldDrop).
func TestIgnoredFlag(t *testing.T) {
	type tcase struct {
		set   string // space-separated flag names, as flag.Visit reports them
		serve bool
		want  string // substring of the error; "" = accepted
	}
	cases := []tcase{
		{"", false, ""},
		{"engine procs out db query report timeline search-threads filter tree-merge crash", false, ""},
		{strings.Join(serveOnlyFlags, " "), true, ""},
		{"early-prune collective-read io-tune arrival-rate", false, "-arrival-rate is a serving-mode option: it needs -serve"},
	}
	for _, f := range serveOnlyFlags {
		cases = append(cases, tcase{f, false, "-" + f + " is a serving-mode option: it needs -serve"})
	}
	for _, tc := range cases {
		set := map[string]bool{}
		for _, name := range strings.Fields(tc.set) {
			set[name] = true
		}
		err := ignoredFlag(set, tc.serve)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%+v: rejected: %v", tc, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%+v: error %v", tc, err)
		}
	}
}

// TestFlagListsNameRealFlags: a misspelt name in the list would never match
// and so never reject. Also holds the flag count the README states.
func TestFlagListsNameRealFlags(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	defined := map[string]bool{}
	for _, m := range regexp.MustCompile(`flag\.\w+\("([a-z-]+)", `).FindAllSubmatch(src, -1) {
		defined[string(m[1])] = true
	}
	if len(defined) != 36 {
		t.Errorf("main.go defines %d flags, README says 36", len(defined))
	}
	for _, name := range serveOnlyFlags {
		if !defined[name] {
			t.Errorf("-%s is listed but not defined", name)
		}
	}
}

// TestParseCrash: the whole string is consumed ("3@0.2junk" used to crash
// rank 3 at 0.2). A non-finite time parses here and is rejected by the
// engine, by name.
func TestParseCrash(t *testing.T) {
	for _, tc := range []struct {
		in   string
		rank int
		at   float64
		ok   bool
	}{
		{"3@0.2", 3, 0.2, true},
		{"12@0", 12, 0, true},
		{"1@2.5e-3", 1, 2.5e-3, true},
		{"3@Inf", 3, math.Inf(1), true},
		{"3@0.2junk", 0, 0, false},
		{"3@0.2 ", 0, 0, false},
		{"3x@0.2", 0, 0, false},
		{"3@", 0, 0, false},
		{"@0.2", 0, 0, false},
		{"3", 0, 0, false},
		{"3@0.2@1", 0, 0, false},
	} {
		rank, at, err := parseCrash(tc.in)
		if (err == nil) != tc.ok || rank != tc.rank || at != tc.at {
			t.Errorf("parseCrash(%q) = %d, %g, %v; want %d, %g, ok=%v", tc.in, rank, at, err, tc.rank, tc.at, tc.ok)
		}
		if err != nil && !strings.Contains(err.Error(), "want RANK@TIME") {
			t.Errorf("parseCrash(%q): error %v does not say what is wanted", tc.in, err)
		}
	}
}
