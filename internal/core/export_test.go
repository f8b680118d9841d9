package core

import (
	"fmt"

	"parblast/internal/mpi"
)

// PartRequestFlowOp is the trace op of a dynamic worker's part request.
var PartRequestFlowOp = fmt.Sprintf("tag%02d", tagPartReq)

// PartAssignFlowOp is the trace op of the master's answer to one.
var PartAssignFlowOp = fmt.Sprintf("tag%02d", tagPartAssign)

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
