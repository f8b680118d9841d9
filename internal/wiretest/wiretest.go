// Package wiretest is the fuzz harness behind the FuzzWire target of each
// package that owns wire layouts (engine, core, mpiblast): one harness, so
// every layout is held to the same three rules.
package wiretest

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"testing"
)

// Layout is one wire layout under test.
type Layout struct {
	Name string
	// Sample is the encoding of a representative value: a fuzz seed.
	Sample []byte
	// Decode decodes data into a fresh value and returns it with its
	// encoding.
	Decode func(data []byte) (v any, again []byte, err error)
}

// Allocated returns the heap bytes f allocates: the least of three runs, as
// the count is process-wide and the fuzzing engine allocates alongside.
// ReadMemStats counts every object exactly, where runtime/metrics books a
// small one only when its span is refilled.
func Allocated(f func()) uint64 {
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// MaxVarint is a ten-byte varint of the largest value: a seed for every
// layout, as a count or length it claims far more than any payload holds.
var MaxVarint = []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}

// Fuzz runs f over layouts, the first input byte picking the layout; each
// layout's sample, the empty payload and MaxVarint are the seeds. Every
// input is held to Check.
func Fuzz(f *testing.F, layouts []Layout) {
	for i, l := range layouts {
		f.Add(uint8(i), l.Sample)
		f.Add(uint8(i), []byte{})
		f.Add(uint8(i), MaxVarint)
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		Check(t, layouts[int(which)%len(layouts)], data)
	})
}

// Check decodes data as l and fails t if a rule is broken.
//
// Decoding arbitrary bytes must not panic, and it may allocate no more than
// a small multiple of the input: a count may claim every byte left, and no
// element is over 128 bytes in memory, so each nesting level costs at most
// 128 bytes per input byte. A value that decodes cleanly must survive
// encode→decode unchanged, compared as encoded and as printed (so that a NaN
// equals itself). It returns the decode error.
func Check(t *testing.T, l Layout, data []byte) error {
	t.Helper()
	var v any
	var again []byte
	var err error
	if n := Allocated(func() { v, again, err = l.Decode(data) }); n > 512*uint64(len(data))+4096 {
		t.Fatalf("%s: decoding %d bytes allocated %d", l.Name, len(data), n)
	}
	if err != nil {
		return err
	}
	v2, again2, err2 := l.Decode(again)
	if err2 != nil {
		t.Fatalf("%s: re-decoding an encoded value failed: %v", l.Name, err2)
	}
	if !bytes.Equal(again, again2) || fmt.Sprintf("%#v", v) != fmt.Sprintf("%#v", v2) {
		t.Fatalf("%s: round trip changed the value:\nbefore: %#v\nafter:  %#v", l.Name, v, v2)
	}
	return nil
}
