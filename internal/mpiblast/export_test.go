package mpiblast

import "fmt"

// ResultsFlowOp is the trace op of a flat-protocol result submission.
var ResultsFlowOp = fmt.Sprintf("tag%02d", tagResults)
