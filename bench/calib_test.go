package main

import (
	"math"
	"testing"
)

func TestCalibratedScaling(t *testing.T) {
	// On the reference box calibrated seconds are raw seconds.
	if got := calibrated(0.5, calRefS); got != 0.5 {
		t.Errorf("calibrated(0.5, ref) = %g", got)
	}
	// A box running the kernel twice as slowly is taken to run jobs
	// 2^calElasticity times as slowly.
	want := 0.65 / math.Pow(2, calElasticity)
	if got := calibrated(0.65, 2*calRefS); math.Abs(got-want) > 1e-12 {
		t.Errorf("calibrated(0.65, 2·ref) = %g, want %g", got, want)
	}
	if slow, fast := calibrated(1, 1.5*calRefS), calibrated(1, calRefS/1.5); !(slow < 1 && fast > 1) {
		t.Errorf("a slow kernel must shrink the reading and a fast one grow it: %g, %g", slow, fast)
	}
}

func TestCalKernelFrozen(t *testing.T) {
	// The checksum pins the kernel's arithmetic: a different kernel is a
	// different unit for every calibrated metric, and must be a new constant
	// calRefS measured on the reference box, not an edit in passing.
	const want = 20994
	for i := 0; i < 2; i++ {
		if got := calKernel(); got != want {
			t.Fatalf("run %d: kernel checksum %d, want %d", i, got, want)
		}
	}
	if s := calibrate(); s <= 0 {
		t.Errorf("calibration kernel took %g s", s)
	}
	if _, total, ok := cpuTicks(); ok && total <= 0 {
		t.Errorf("/proc/stat total ticks %g", total)
	}
}
