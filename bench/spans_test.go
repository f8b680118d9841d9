package main

import (
	"math"
	"testing"
)

func TestSpanSelfTime(t *testing.T) {
	var r recorder
	root := r.begin(0, "t", "bench", "job", 0)
	a := r.begin(root, "t", "parblast", "a", 1)
	g := r.begin(a, "t", "blast", "grandchild", 2)
	r.end(g, 3)
	r.end(a, 4)
	b := r.begin(root, "t", "parblast", "b", 4) // abuts a
	r.end(b, 6)
	c := r.begin(root, "t", "mpi", "c", 5) // overlaps b: [5,6] counts once
	r.end(c, 7)
	d := r.begin(root, "t", "vfs", "d", 9) // runs past the parent: clipped
	r.end(d, 12)
	r.end(root, 10)

	want := map[string]float64{"job": 10 - (3 + 2 + 1 + 1), "a": 2, "grandchild": 1, "b": 2, "c": 2, "d": 3}
	spans := r.finish()
	for _, s := range spans {
		if math.Abs(s.Self-want[s.Name]) > 1e-12 {
			t.Errorf("span %s self = %g, want %g", s.Name, s.Self, want[s.Name])
		}
	}
	byLayer := selfByLayer(spans)
	if byLayer["parblast"] != 4 || byLayer["bench"] != 3 {
		t.Errorf("self time by layer = %v", byLayer)
	}
	if spans[g-1].Parent != a || spans[a-1].Parent != root || spans[root-1].Parent != 0 {
		t.Error("parent links lost")
	}
}
