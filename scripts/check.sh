#!/usr/bin/env sh
# Full verification gate: formatting, build, vet, race-enabled tests, a
# smoke run of the kernel benchmarks (one iteration — checks they still
# execute, not perf), an examples build + quickstart smoke run, and a
# telemetry smoke run (parblast -report/-trace-out + artifact validation).
set -eu
cd "$(dirname "$0")/.."

# One wire codec: encoding/gob numbers types per process, so a gob payload's
# length — and every virtual clock behind it — depends on what the process
# encoded before. Only the shim kept for the frozen benchmark row
# engine.gob_roundtrip_cal_us may import it (bench/ is its own module).
# `check.sh nogob` runs this gate alone.
gob=$(grep -rl '"encoding/gob"' --include='*.go' . |
    grep -v -e '^\./bench/' -e '^\./\.bench_build/' -e '^\./internal/engine/gob\.go$' || true)
if [ -n "$gob" ]; then
    echo "encoding/gob imported outside internal/engine/gob.go:" >&2
    echo "$gob" >&2
    exit 1
fi
if [ "${1:-}" = "nogob" ]; then
    exit 0
fi

# gofmt produces no output when everything is formatted; any path printed
# is a failure.
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: unformatted files:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go build ./...
go vet ./...

# The benchmark is a nested module (bench/go.mod, replaced onto ../), so
# `./...` above does not see it: without this step a rename in
# internal/engine breaks it only when the benchmark pipeline next runs.
(cd bench && go vet ./... && go test ./...)

# Invariant lint gate: the analyzers in internal/lint enforce the
# determinism contract (no wall clock, seeded randomness, no map-order
# leaks, matched MPI tags, clock-neutral telemetry, uniform collectives,
# concurrency only at the listed sites, sideband out of band). Any finding
# fails the build; the one way to accept one is a //lint:<name> <reason>
# directive at the site.
go run ./cmd/parblastlint ./...
# A subset run is analysed against the whole module: core sends a tag whose
# receive is forwarded through engine, and a core-only run used to report it
# as never received.
go run ./cmd/parblastlint ./internal/core

# The experiments package runs whole simulated-cluster sweeps per test
# and sits near go test's default 10m per-package limit under -race;
# give it explicit headroom rather than flaking on loaded machines.
go test -race -timeout 20m ./...
# The scheduler hands one token between rank goroutines: repeat its package
# so a handoff that only sometimes races shows, once more with four Ps, so
# that ranks computing aside (mpi.Rank.Aside) really overlap the holder.
go test -race -count=10 ./internal/mpi
GOMAXPROCS=4 go test -race -count=10 ./internal/mpi
# Searching on every core moves no clock and no artifact byte: the golden and
# the report's determinism hold with one P and with four.
for procs in 1 4; do
    GOMAXPROCS=$procs go test -count=1 -run 'TestClockFingerprint|TestArtifactDeterministic' \
        ./internal/core ./internal/report
done
# No goroutine outlives a run: the dynamic half of the godisc site list,
# repeated so a straggler that only sometimes outlives its run shows.
go test -race -count=3 -run TestNoGoroutineOutlivesARun .
# The kernel's worker pool claims subjects from a shared counter: race it
# oversubscribed (four Ps on however many cores there are) and repeatedly,
# so that claim orders the default run never produces are exercised.
GOMAXPROCS=4 go test -race -count=3 ./internal/blast

# Fuzz smoke: a few seconds per codec hardening target. Finds shallow
# panics in the wire codec and artifact reader without a long campaign.
go test -run=- -fuzz=FuzzWireQueries -fuzztime=5s ./internal/engine
go test -run=- -fuzz=FuzzReportParse -fuzztime=5s ./internal/report
go test -run=- -fuzz=FuzzFlowGraph -fuzztime=5s ./internal/trace
go test -run=- -bench='SearchFragment|ScanSubject|ExtendGapped|ExtendUngapped' -benchtime=1x ./internal/blast
go run ./examples/quickstart >/dev/null

# Telemetry smoke: a tiny end-to-end run with no telemetry flag but -report
# and -trace-out must produce a parseable run report (metrics from all five
# layers, the exact critical path with its blame tiling it, the per-query
# percentile block) and a loadable Chrome trace with balanced flow-event
# pairs; a repeated run reproduces the latency block byte for byte (the
# determinism gate).
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go run ./cmd/makedb -o "$tmp/db.fasta" -seqs 60 -meanlen 120 -seed 7
go run ./cmd/makedb -o "$tmp/q.fasta" -seqs 6 -meanlen 80 -seed 3 -prefix qry
go run ./cmd/parblast -db "$tmp/db.fasta" -query "$tmp/q.fasta" \
    -engine pio -procs 4 -out "$tmp/results.txt" \
    -report "$tmp/run.json" -trace-out "$tmp/trace.json" >/dev/null
go run ./cmd/parblast -db "$tmp/db.fasta" -query "$tmp/q.fasta" \
    -engine pio -procs 4 -out "$tmp/results2.txt" \
    -report "$tmp/run2.json" >/dev/null
go run ./scripts/validatereport -run "$tmp/run.json" -trace "$tmp/trace.json" \
    -latency -latency-second "$tmp/run2.json"
# An illegal option is rejected with its reason, not run: a negative thread
# count used to mean GOMAXPROCS silently.
if go run ./cmd/parblast -db "$tmp/db.fasta" -query "$tmp/q.fasta" \
    -engine pio -procs 4 -out "$tmp/rejected.txt" -search-threads -1 2>"$tmp/rejected.err"; then
    echo "parblast -search-threads -1 was accepted" >&2
    exit 1
fi
grep -q 'SearchThreads=-1 must not be negative' "$tmp/rejected.err"

# Catalogue smoke: an -exp name outside experiments.Specs() exits 2 and is
# told the names the catalogue holds (built, not `go run`, which reports
# every failure as 1), and prepcost — printed by "all" but unreachable by
# name until the catalogue owned every name — runs alone.
go build -o "$tmp/benchsuite" ./cmd/benchsuite
status=0
"$tmp/benchsuite" -exp nosuch 2>"$tmp/nosuch.err" || status=$?
test "$status" -eq 2
grep -q 'want all, fig1a, .*, prepcost, .*, sla)' "$tmp/nosuch.err"
"$tmp/benchsuite" -exp prepcost -dbseqs 120 | grep -q '^== Operational overhead'

# Read-path smoke: the collective-read / prefetch experiment row must run
# end to end on a scaled-down workload.
go run ./cmd/benchsuite -exp readpath -dbseqs 120 -querybytes 1500 >/dev/null

# Merge-scalability smoke: the flat-vs-tree merge sweep must run end to end
# at small rank counts with byte-identical layouts across every fan-out.
go run ./cmd/benchsuite -exp mergescale -mergescale-ranks 8,16 >/dev/null

# Latency-experiment smoke: the ranks × protocols sweep must run end to
# end on a scaled-down workload.
go run ./cmd/benchsuite -exp latency -dbseqs 120 >/dev/null

# Serving-mode smoke: a streamed run over a warm cluster must be
# byte-identical to the one-shot run over the same queries — both engines.
go run ./cmd/parblast -db "$tmp/db.fasta" -query "$tmp/q.fasta" \
    -engine pio -procs 4 -serve -arrival-rate 2 -arrival-seed 9 \
    -out "$tmp/served_pio.txt" >/dev/null
cmp "$tmp/results.txt" "$tmp/served_pio.txt"
go run ./cmd/parblast -db "$tmp/db.fasta" -query "$tmp/q.fasta" \
    -engine mpi -procs 4 -out "$tmp/results_mpi.txt" >/dev/null
go run ./cmd/parblast -db "$tmp/db.fasta" -query "$tmp/q.fasta" \
    -engine mpi -procs 4 -serve -arrival-rate 2 -arrival-seed 9 \
    -out "$tmp/served_mpi.txt" >/dev/null
cmp "$tmp/results_mpi.txt" "$tmp/served_mpi.txt"

# Fault smoke: a worker that is dead before it searches anything is recovered
# from on both engines, under the flat merge and under the tree merge (whose
# collectives go flat over the survivors once a fault is scheduled), and the
# report is the fault-free one byte for byte.
for eng in pio mpi; do
    go run ./cmd/parblast -db "$tmp/db.fasta" -query "$tmp/q.fasta" \
        -engine "$eng" -procs 6 -out "$tmp/free_$eng.txt" >/dev/null
    for tree in "" -tree-merge; do
        go run ./cmd/parblast -db "$tmp/db.fasta" -query "$tmp/q.fasta" \
            -engine "$eng" -procs 6 $tree -crash 3@0 \
            -out "$tmp/crash_$eng$tree.txt" >/dev/null
        cmp "$tmp/free_$eng.txt" "$tmp/crash_$eng$tree.txt"
    done
done

# Width smoke: the north star's 1024-rank merge, end to end. What is the same
# on every rank is built once per world, so this is half a second and some
# 30 MB; the report is the sequential one byte for byte.
go run ./cmd/makedb -o "$tmp/wide.fasta" -seqs 2400 -family 12
go run ./cmd/parblast -db "$tmp/wide.fasta" -query "$tmp/q.fasta" \
    -engine seq -out "$tmp/wide_seq.txt" >/dev/null
go run ./cmd/parblast -db "$tmp/wide.fasta" -query "$tmp/q.fasta" \
    -engine pio -tree-merge -procs 1024 -out "$tmp/wide_pio.txt" >/dev/null
cmp "$tmp/wide_seq.txt" "$tmp/wide_pio.txt"

# Pre-formatted database smoke: a database formatted under a name of the
# user's choosing runs on both engines (mpiBLAST used to fragment the literal
# name "db" whatever -dbname said) and each writes a non-empty report.
go run ./cmd/formatdb -in "$tmp/db.fasta" -db nr -outdir "$tmp/nr" >/dev/null
for eng in pio mpi; do
    go run ./cmd/parblast -dbdir "$tmp/nr" -dbname nr -query "$tmp/q.fasta" \
        -engine "$eng" -procs 4 -out "$tmp/results_nr_$eng.txt" >/dev/null
    test -s "$tmp/results_nr_$eng.txt"
done

# SLA smoke: the serving sweep (both engines, rate/batch/shed) must run end
# to end on a scaled-down workload — every row byte-identity-gated inside
# the experiment — and its suite artifact must pass the -sla gate (monotone
# percentiles, non-decreasing p99 along the rate sweep, a saturation row).
go run ./cmd/benchsuite -exp sla -dbseqs 120 -report "$tmp/sla.json" >/dev/null
go run ./scripts/validatereport -sla "$tmp/sla.json"

# I/O auto-tuning smoke: the tuned-vs-fixed study enforces its own gate
# (tuned never regresses the fixed heuristics on any fs profile, strictly
# beats them somewhere, byte-identity everywhere) and its learned-hints
# artifact must validate and round-trip through parblast -io-hints.
go run ./cmd/benchsuite -exp iotune -hints-out "$tmp/hints.json" >/dev/null
go run ./scripts/validatereport -hints "$tmp/hints.json"
go run ./cmd/parblast -db "$tmp/db.fasta" -query "$tmp/q.fasta" \
    -engine pio -procs 4 -collective-read -io-tune "$tmp/hints2.json" \
    -out "$tmp/results_tune.txt" >/dev/null
go run ./scripts/validatereport -hints "$tmp/hints2.json"
go run ./cmd/parblast -db "$tmp/db.fasta" -query "$tmp/q.fasta" \
    -engine pio -procs 4 -collective-read -io-hints "$tmp/hints2.json" \
    -out "$tmp/results_hinted.txt" >/dev/null
cmp "$tmp/results_tune.txt" "$tmp/results_hinted.txt"

# Perf-trajectory guard: each checked-in benchmark record must not be worse
# than its predecessor beyond the BENCHMARK.json bounds, back to the PR-11
# baseline.
bash bench/run.sh -compare bench/baseline.json BENCH_3.json
bash bench/run.sh -compare BENCH_3.json BENCH_4.json
bash bench/run.sh -compare BENCH_4.json BENCH_5.json
bash bench/run.sh -compare BENCH_5.json BENCH_6.json
