// Package trace records per-rank phase timelines from the cluster
// simulation and renders them as ASCII Gantt charts — the observability
// layer for understanding where a parallel run's virtual time goes
// (which ranks idle, when phases overlap, where the critical path is).
package trace

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

// Span is one contiguous interval a rank spent in one phase. Attrs
// optionally annotates the span (exported to trace viewers as args);
// spans recorded through the clock observer carry no attributes.
type Span struct {
	Phase    string
	From, To float64
	Attrs    map[string]string
}

// Event is an instantaneous occurrence on a rank's timeline (a fault
// firing, a recovery decision), optionally annotated with Attrs.
type Event struct {
	Name  string
	At    float64
	Attrs map[string]string
}

// Collector accumulates phase spans from many ranks. It is safe for
// concurrent use (ranks report from their own goroutines).
type Collector struct {
	mu     sync.Mutex
	ranks  map[int][]Span
	events map[int][]Event
	flows  []Flow
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{ranks: make(map[int][]Span), events: make(map[int][]Event)}
}

// RecordEvent adds a point event to a rank's timeline (rendered as an 'X'
// on the Gantt chart). The mpi layer marks every fired fault with one.
func (c *Collector) RecordEvent(rank int, name string, at float64) {
	c.RecordEventAttrs(rank, name, at, nil)
}

// RecordEventAttrs is RecordEvent with key/value annotations that trace
// exporters surface (Chrome trace args, Perfetto's argument panel).
func (c *Collector) RecordEventAttrs(rank int, name string, at float64, attrs map[string]string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events[rank] = append(c.events[rank], Event{Name: name, At: at, Attrs: attrs})
}

// Events returns a copy of one rank's point events.
func (c *Collector) Events(rank int) []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events[rank]...)
}

// Record adds one interval to a rank's timeline, coalescing it with the
// previous span when the phase continues.
func (c *Collector) Record(rank int, phase string, from, to float64) {
	c.RecordAttrs(rank, phase, from, to, nil)
}

// RecordAttrs is Record with key/value annotations. An annotated span is
// never coalesced into its predecessor (the annotation marks it distinct).
func (c *Collector) RecordAttrs(rank int, phase string, from, to float64, attrs map[string]string) {
	if to <= from {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	spans := c.ranks[rank]
	if n := len(spans); attrs == nil && n > 0 && spans[n-1].Phase == phase && spans[n-1].Attrs == nil && spans[n-1].To >= from {
		if to > spans[n-1].To {
			spans[n-1].To = to
		}
		c.ranks[rank] = spans
		return
	}
	c.ranks[rank] = append(spans, Span{Phase: phase, From: from, To: to, Attrs: attrs})
}

// Observer returns a recording function bound to one rank, in the shape
// simtime.Clock.SetObserver expects.
func (c *Collector) Observer(rank int) func(phase string, from, to float64) {
	return func(phase string, from, to float64) {
		c.Record(rank, phase, from, to)
	}
}

// Ranks returns the recorded rank ids in order (ranks with only point
// events included).
func (c *Collector) Ranks() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	seen := make(map[int]bool, len(c.ranks))
	out := make([]int, 0, len(c.ranks))
	for r := range c.ranks {
		seen[r] = true
		out = append(out, r)
	}
	for r := range c.events {
		if !seen[r] {
			out = append(out, r)
		}
	}
	sort.Ints(out)
	return out
}

// Spans returns a copy of one rank's timeline.
func (c *Collector) Spans(rank int) []Span {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Span(nil), c.ranks[rank]...)
}

// End returns the latest recorded time (spans or events).
func (c *Collector) End() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	end := 0.0
	// Scan every span, not just each rank's last: spans may be recorded out
	// of time order (e.g. replayed from a merged log).
	for _, spans := range c.ranks {
		for _, s := range spans {
			if s.To > end {
				end = s.To
			}
		}
	}
	for _, evs := range c.events {
		for _, e := range evs {
			if e.At > end {
				end = e.At
			}
		}
	}
	return end
}

// phaseGlyphs maps phase names to single-character glyphs for the chart.
var phaseGlyphs = map[string]byte{
	"copy":   'C',
	"input":  'I',
	"search": 'S',
	"output": 'O',
	"other":  '-',
	"idle":   ' ',
}

// Glyph returns the chart character for a phase (first letter otherwise).
func Glyph(phase string) byte {
	if g, ok := phaseGlyphs[phase]; ok {
		return g
	}
	if phase == "" {
		return '?'
	}
	return phase[0]
}

// Render writes an ASCII Gantt chart: one row per rank, width columns of
// phase glyphs spanning [0, End()].
func (c *Collector) Render(w io.Writer, width int) {
	if width < 10 {
		width = 10
	}
	end := c.End()
	if end == 0 {
		fmt.Fprintln(w, "trace: empty timeline")
		return
	}
	fmt.Fprintf(w, "timeline 0 .. %.3f virtual seconds  (C=copy I=input S=search O=output -=other, blank=idle, X=event)\n", end)
	for _, rank := range c.Ranks() {
		row := make([]byte, width)
		for i := range row {
			row[i] = ' '
		}
		for _, s := range c.Spans(rank) {
			// Half-open column interval [from, to): abutting spans share a
			// boundary time but never a column, so neither overwrites the
			// other's edge glyph.
			from := int(s.From / end * float64(width))
			to := int(s.To / end * float64(width))
			if to <= from {
				to = from + 1 // a tiny span still paints one column
			}
			if to > width {
				to = width
			}
			if from >= width {
				from = width - 1
			}
			g := Glyph(s.Phase)
			for i := from; i < to; i++ {
				row[i] = g
			}
		}
		// Point events overwrite phase glyphs: they are the thing to see.
		for _, e := range c.Events(rank) {
			i := int(e.At / end * float64(width))
			if i >= width {
				i = width - 1
			}
			row[i] = 'X'
		}
		fmt.Fprintf(w, "rank %3d |%s|\n", rank, string(row))
	}
}
