package core

import "parblast/internal/mpi"

// AdaptiveBoundsForTest exposes the batch-boundary computation to tests.
func AdaptiveBoundsForTest(volumes []int64, budget int64) []int {
	return adaptiveBounds(volumes, budget)
}

// FixedBoundsForTest exposes the fixed batch-boundary computation to tests.
func FixedBoundsForTest(n, b int) []int {
	return fixedBounds(n, b)
}

// ExchangeThresholdForTest exposes the early-score threshold exchange.
func ExchangeThresholdForTest(r *mpi.Rank, scores []int64, k int) int64 {
	return exchangeThreshold(r, scores, k)
}
