package trace

import (
	"bytes"
	"strings"
	"testing"

	"parblast/internal/simtime"
)

func TestCollectorCoalesces(t *testing.T) {
	c := NewCollector()
	c.Record(0, "search", 0, 1)
	c.Record(0, "search", 1, 2) // contiguous same phase → coalesced
	c.Record(0, "output", 2, 3)
	spans := c.Spans(0)
	if len(spans) != 2 {
		t.Fatalf("%d spans, want 2: %v", len(spans), spans)
	}
	if spans[0].From != 0 || spans[0].To != 2 || spans[0].Phase != "search" {
		t.Fatalf("coalesced span wrong: %+v", spans[0])
	}
	if c.End() != 3 {
		t.Fatalf("end = %g", c.End())
	}
	// Zero-length intervals ignored.
	c.Record(0, "output", 3, 3)
	if len(c.Spans(0)) != 2 {
		t.Fatal("zero-length span recorded")
	}
}

func TestObserverViaClock(t *testing.T) {
	c := NewCollector()
	clock := simtime.NewClock()
	clock.SetObserver(c.Observer(4))
	clock.SetPhase(simtime.PhaseSearch)
	clock.Advance(2)
	clock.SetPhase(simtime.PhaseOutput)
	clock.Advance(1)
	spans := c.Spans(4)
	if len(spans) != 2 || spans[1].Phase != simtime.PhaseOutput.String() {
		t.Fatalf("spans: %v", spans)
	}
	if got := c.Ranks(); len(got) != 1 || got[0] != 4 {
		t.Fatalf("ranks: %v", got)
	}
}

func TestRender(t *testing.T) {
	c := NewCollector()
	c.Record(0, "search", 0, 8)
	c.Record(0, "output", 8, 10)
	c.Record(1, "idle", 0, 5)
	c.Record(1, "output", 5, 10)
	var buf bytes.Buffer
	c.Render(&buf, 40)
	out := buf.String()
	if !strings.Contains(out, "rank   0 |") || !strings.Contains(out, "rank   1 |") {
		t.Fatalf("render missing rows:\n%s", out)
	}
	if !strings.Contains(out, "SSS") || !strings.Contains(out, "OO") {
		t.Fatalf("render missing glyphs:\n%s", out)
	}
	// Empty collector renders a notice, not a panic.
	buf.Reset()
	NewCollector().Render(&buf, 40)
	if !strings.Contains(buf.String(), "empty") {
		t.Fatal("empty render missing notice")
	}
}

// TestRenderAbuttingSpans: two spans sharing a boundary time must not share
// a column. The old inclusive fill (i <= to) painted one extra column per
// span, so whichever span was recorded later overwrote its neighbour's edge
// glyph — visible here because the later-in-time span is recorded FIRST.
func TestRenderAbuttingSpans(t *testing.T) {
	c := NewCollector()
	c.Record(7, "output", 5, 10)
	c.Record(7, "search", 0, 5)
	var buf bytes.Buffer
	c.Render(&buf, 10)
	out := buf.String()
	if !strings.Contains(out, "|SSSSSOOOOO|") {
		t.Fatalf("abutting spans mis-painted (want |SSSSSOOOOO|):\n%s", out)
	}
}

// TestRenderTinySpan: a span far narrower than one column still paints one
// column instead of disappearing — the half-open rewrite must keep the old
// fill's only virtue.
func TestRenderTinySpan(t *testing.T) {
	c := NewCollector()
	c.Record(0, "search", 0, 10) // sets the scale
	c.Record(1, "output", 4.2, 4.4)
	var buf bytes.Buffer
	c.Render(&buf, 10)
	out := buf.String()
	if !strings.Contains(out, "|    O     |") {
		t.Fatalf("tiny span lost (want one O column on rank 1):\n%s", out)
	}
}

func TestGlyphs(t *testing.T) {
	if Glyph("search") != 'S' || Glyph("idle") != ' ' || Glyph("weird") != 'w' || Glyph("") != '?' {
		t.Fatal("glyph mapping wrong")
	}
}

// TestEventsOnTimeline: point events (fault marks) render as 'X' over the
// phase glyphs and extend Ranks/End when a rank has only events.
func TestEventsOnTimeline(t *testing.T) {
	c := NewCollector()
	c.Record(0, "search", 0, 10)
	c.RecordEventAttrs(0, "crash", 5, nil)
	c.RecordEventAttrs(2, "degrade", 12, nil) // rank with no spans at all

	if got := c.Ranks(); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("Ranks() = %v, want [0 2]", got)
	}
	if got := c.End(); got != 12 {
		t.Fatalf("End() = %g, want 12 (event past all spans)", got)
	}
	evs := c.Events(0)
	if len(evs) != 1 || evs[0].Name != "crash" || evs[0].At != 5 {
		t.Fatalf("Events(0) = %v", evs)
	}

	var buf bytes.Buffer
	c.Render(&buf, 24)
	out := buf.String()
	if !strings.Contains(out, "X") {
		t.Fatalf("render missing event mark:\n%s", out)
	}
	if !strings.Contains(out, "X=event") {
		t.Fatalf("legend missing event glyph:\n%s", out)
	}
}
