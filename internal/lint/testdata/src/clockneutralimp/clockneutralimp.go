// Fixture for the clockneutral analyzer's import and mpi-call checks:
// the package is deliberately named trace, inside the clock-neutral set.
package trace

import (
	"parblast/internal/mpi" // want "importing parblast/internal/mpi pulls in operations"
)

func drain(r *mpi.Rank) {
	r.RecvTimeout(0, 7, 0) // want "mpi.RecvTimeout charges virtual time"
}
