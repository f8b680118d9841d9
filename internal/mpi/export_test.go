package mpi

import "testing"

// CheckGrants returns cfg with every grant of its world held to the scan
// oracle and the heap to the ranks' states (scanOracle); *grants counts the
// grants checked.
func CheckGrants(t testing.TB, cfg Config, grants *int) Config {
	cfg.grantCheck = scanOracle(t, grants)
	return cfg
}
