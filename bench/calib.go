package main

import (
	"math"
	"os"
	"strconv"
	"strings"
	"sync"
)

// Host seconds on a shared box drift with the neighbours' load, so every
// timed operation is preceded by a frozen calibration kernel and reported
// in calibrated seconds: raw_s × (calRefS ÷ cal_s)^calElasticity. The kernel
// mixes the two things the simulator's hot paths do — a dependent integer DP
// sweep over two cache-resident rows, and scattered increments into a 1 MiB
// table — and must never change: a different kernel is a different unit.

// calRefS is the kernel's time on the quiet reference box (2-core Xeon
// 2.1 GHz, go1.24, GOMAXPROCS 2). Calibrated seconds equal raw seconds
// there.
const calRefS = 0.0200

// calElasticity is how much of the kernel's slowdown a job shares. The
// kernel is purely compute-bound; a job also waits on goroutine hand-offs,
// allocation and GC, which a busy neighbour slows less: where a neighbour
// slowed the kernel by 50 % it slowed jobs by 15 to 30 %. Over five sweeps of
// ten runs per workload (two quiet, two disturbed, one drifting) the worst
// spread of the median job time was 20 % with exponent 0 (raw seconds), 17 %
// with 1 (full scaling) and 7 % with 0.7; the quiet sweeps read 3 to 4 % with
// any exponent.
const calElasticity = 0.7

// calDisturbed is the p90/p10 ratio of a pass's calibration times above
// which the pass is treated as disturbed. Quiet passes on the reference box
// read 1.08 to 1.25, passes a neighbour ran through 1.3 to 2.6.
const calDisturbed = 1.30

const (
	calRowLen    = 4096
	calSweeps    = 3000
	calScatters  = 4 << 20
	calTableLen  = 1 << 18 // int32 entries: 1 MiB
	calTableBits = 18
)

var (
	calTable [calTableLen]int32
	calSink  int64
)

// The two rows the sweep runs on. An L1-resident loop should not care where
// its 32 KiB live, yet on the reference box about one process in thirty got
// rows — static or heap, the same virtual addresses as in every other
// process — on which the sweep ran 2.3 to 2.7 times slower for as long as
// the process lived, while the same loop on other pages of that process ran
// at full speed. A run calibrated on such rows reads a third too fast. So
// the first calibration times the sweep on calCandidates page-aligned row
// pairs and keeps the fastest for the rest of the process.
const calCandidates = 8

var (
	calRowsOnce sync.Once
	calA, calB  *[calRowLen]int32
)

func chooseCalRows() {
	const pair = 2 * calRowLen
	block := make([]int32, calCandidates*pair)
	best := math.Inf(1)
	for c := 0; c < calCandidates; c++ {
		a := (*[calRowLen]int32)(block[c*pair:])
		b := (*[calRowLen]int32)(block[c*pair+calRowLen:])
		for try := 0; try < 2; try++ {
			t := now()
			calSink += calSweep(a, b)
			if d := now() - t; d < best {
				best, calA, calB = d, a, b
			}
		}
	}
}

// calSweep is the kernel's first half: calSweeps dependent DP passes over
// two rows.
func calSweep(a, b *[calRowLen]int32) int64 {
	for i := range a {
		a[i] = int32(i * 7 % 13)
		b[i] = 0
	}
	for sweep := 0; sweep < calSweeps; sweep++ {
		for i := 1; i < calRowLen; i++ {
			v := a[i-1] + 3
			if w := b[i] - 1; w > v {
				v = w
			}
			if w := a[i] + int32(i&7); w > v {
				v = w
			}
			b[i] = v & 0xffff
		}
		a, b = b, a
	}
	return int64(a[100])
}

// calKernel runs the frozen kernel and returns a checksum so the compiler
// keeps the work.
func calKernel() int64 {
	calRowsOnce.Do(chooseCalRows)
	sum := calSweep(calA, calB)
	calTable = [calTableLen]int32{}
	x := uint32(12345)
	for i := 0; i < calScatters; i++ {
		x = x*1664525 + 1013904223
		calTable[x>>(32-calTableBits)]++
	}
	return sum + int64(calTable[5])
}

// calibrate times one run of the kernel in raw host seconds.
func calibrate() float64 {
	t := now()
	calSink += calKernel()
	return now() - t
}

// calibrated converts raw host seconds measured next to a calibration
// sample into calibrated seconds.
func calibrated(rawS, calS float64) float64 {
	return rawS * math.Pow(calRefS/calS, calElasticity)
}

// cpuTicks reads the aggregate cpu line of /proc/stat: steal ticks and
// total ticks. ok is false where the file or the column is unavailable.
func cpuTicks() (steal, total float64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, 0, false
		}
		if i < 8 { // user..steal; guest columns are already inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}
