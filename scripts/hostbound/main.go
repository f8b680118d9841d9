//go:build linux

// Command hostbound runs a command and fails when it takes more host CPU time
// or memory than it is allowed: the width smoke's gate in scripts/check.sh.
//
// Usage:
//
//	hostbound -max-s 1.8 -max-mb 165 -- ./parblast -procs 4096 ...
//
// It prints the command's CPU time (user and system, all threads) and peak
// resident set size to stderr, and exits 1 when the command fails or exceeds
// either bound. The command's stdout and stderr pass through.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"syscall"
)

func main() {
	maxS := flag.Float64("max-s", 0, "CPU-time bound in seconds (0: none)")
	maxMB := flag.Float64("max-mb", 0, "peak resident set bound in MB (0: none)")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "hostbound: no command")
		os.Exit(2)
	}
	cmd := exec.Command(flag.Arg(0), flag.Args()[1:]...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "hostbound:", err)
		os.Exit(1)
	}
	cpu := (cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()).Seconds()
	var mb float64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		mb = float64(ru.Maxrss) / 1024 // Linux reports kilobytes
	}
	fmt.Fprintf(os.Stderr, "hostbound: %.2f s CPU, %.0f MB peak RSS\n", cpu, mb)
	if (*maxS > 0 && cpu > *maxS) || (*maxMB > 0 && mb > *maxMB) {
		fmt.Fprintf(os.Stderr, "hostbound: over the bound of %g s and %g MB\n", *maxS, *maxMB)
		os.Exit(1)
	}
}
