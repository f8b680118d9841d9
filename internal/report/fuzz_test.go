package report

import (
	"bytes"
	"testing"

	"parblast/internal/wiretest"
)

// FuzzReportParse holds the artifact reader to wiretest's three rules: no
// panic, allocation linear in the input, and an artifact that parses
// survives WriteJSON→parse unchanged. Anything ParseRun accepts must also
// carry the right kind discriminator and a version this reader supports.
func FuzzReportParse(f *testing.F) {
	var buf bytes.Buffer
	if err := (Run{Version: Version, Kind: KindRun}).WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	layout := wiretest.Layout{Name: "run report", Sample: buf.Bytes(), Decode: func(data []byte) (any, []byte, error) {
		run, err := ParseRun(data)
		if err != nil {
			return nil, nil, err
		}
		var again bytes.Buffer
		err = run.WriteJSON(&again)
		// Compared as printed, a pointer is its address: print the two
		// pointer blocks by value.
		latency, path := deref(run.Summary.QueryLatency), deref(run.ExactPath)
		run.Summary.QueryLatency, run.ExactPath = nil, nil
		return []any{run, latency, path}, again.Bytes(), err
	}}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"version":1,"kind":"parblast-run"}`))
	f.Add([]byte(`{"version":99,"kind":"parblast-run"}`))
	f.Add([]byte(`{"version":1,"kind":"parblast-suite"}`))
	f.Add([]byte(`{"version":1,"kind":"parblast-run","info":{"extra":{}},"metrics":{"distributions":[]},"exact_critical_path":{"batches":[]}}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		if wiretest.Check(t, layout, data) != nil {
			return
		}
		run, _ := ParseRun(data)
		if run.Kind != KindRun {
			t.Fatalf("ParseRun accepted kind %q", run.Kind)
		}
		if run.Version < 1 || run.Version > Version {
			t.Fatalf("ParseRun accepted version %d (reader supports 1..%d)", run.Version, Version)
		}
	})
}

func deref[T any](p *T) any {
	if p == nil {
		return nil
	}
	return *p
}
