// Package seededrand is a fixture for the seededrand analyzer: every
// random draw must flow from an explicitly seeded generator.
package seededrand

import (
	"math/rand"
	randv2 "math/rand/v2"
)

func bad(xs []int) int {
	rand.Shuffle(len(xs), func(i, j int) { // want "rand.Shuffle draws from the global"
		xs[i], xs[j] = xs[j], xs[i]
	})
	_ = rand.Float64()  // want "rand.Float64 draws from the global"
	return rand.Intn(9) // want "rand.Intn draws from the global"
}

func badV2() int {
	return randv2.IntN(9) // want "rand.IntN draws from the global"
}

func badExp() float64 {
	// Exponential gaps (open-loop arrival generators) are draws too.
	return rand.ExpFloat64() // want "rand.ExpFloat64 draws from the global"
}

func goodExp(seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	return rng.ExpFloat64() // seeded exponential gaps are fine
}

func good(seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	var r *rand.Rand = rng // type references are fine
	return r.Intn(9)       // methods on a seeded *rand.Rand are fine
}

func goodV2(seed uint64) int {
	rng := randv2.New(randv2.NewPCG(seed, 1))
	return rng.IntN(9)
}

// A seed drawn from the global source when the caller gives none. No test
// or smoke passes none, so no run shows it: only this check sees it (the
// audited mutant of cmd/makedb's -seed 0).
func seedOr(seed int64) int64 {
	if seed == 0 {
		seed = rand.Int63() // want "rand.Int63 draws from the global"
	}
	return seed
}
