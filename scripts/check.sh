#!/usr/bin/env sh
# Full verification gate: formatting, build, vet, race-enabled tests, a
# smoke run of the kernel benchmarks (one iteration — checks they still
# execute, not perf), an examples build + a smoke run of each example, and a
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

# Prose the size of what it describes: no line of the repo's documents is
# longer than 500 characters (UTF-8 code points), except a table row, which
# cannot wrap. `check.sh mdwidth` runs this gate alone.
wide=$(LC_ALL=C awk '{ s = $0; gsub(/[\200-\277]/, "", s) }
    length(s) > 500 && s !~ /^[ \t]*\|/ { print FILENAME ":" FNR ": " length(s) " characters" }' \
    README.md DESIGN.md EXPERIMENTS.md CHANGES.md ROADMAP.md PAPER.md PAPERS.md SNIPPETS.md bench/README.md)
if [ -n "$wide" ]; then
    echo "Markdown lines over 500 characters outside tables:" >&2
    echo "$wide" >&2
    exit 1
fi
# CHANGES.md under its own rule: the newest "- PR" entry, up to the next
# top-level bullet, runs to at most 15 lines wrapped at 180 characters (a
# longer line or table row counts as the lines it wraps to).
long=$(LC_ALL=C awk '
    /^- / { inpr = /^- PR /; if (inpr) { n = 0; at = FNR } }
    inpr { s = $0; gsub(/[\200-\277]/, "", s); n += length(s) > 180 ? int((length(s) + 179) / 180) : 1 }
    END { if (n > 15) print "CHANGES.md:" at ": the newest PR entry runs to " n " wrapped lines, over 15" }' CHANGES.md)
if [ -n "$long" ]; then
    echo "$long" >&2
    exit 1
fi
if [ "${1:-}" = "mdwidth" ]; then
    exit 0
fi

# The -run gates below name their tests: every name of a gate's pattern must
# be a test of its packages, so a test that is folded or renamed fails the
# gate instead of dropping out of it. `check.sh runnames` runs this gate
# alone.
named() {
    pattern=$1
    shift
    listed=$(go test -list "^($pattern)\$" "$@")
    for name in $(echo "$pattern" | tr '|' ' '); do
        if ! printf '%s\n' "$listed" | grep -qx "$name"; then
            echo "a -run gate names $name, which is no test of $*" >&2
            exit 1
        fi
    done
}
golden='TestClockFingerprint|TestArtifactDeterministic|TestCrashSweepEveryProtocol'
pins='TestJobAllocationBudget|TestShuffleSizedByTouchedAggregators|TestIndexBuildAllocatesItsIndex|TestBatchMetasDecodeSharesOneString'
named "$golden" ./internal/core ./internal/report
named "$pins" . ./internal/mpiio ./internal/blast ./internal/core
named TestNoGoroutineOutlivesARun .
executor='TestExecutorConcurrentSearches|TestSearchPoolClaimOrderInvisible|TestSearchThreadsPoolReuse|TestQueryBankConcurrent|TestQueryBankLendsScratch|TestQueryBankRelease|TestQueryBankRecyclesBuildScratch'
named "$executor" ./internal/blast
if [ "${1:-}" = "runnames" ]; then
    exit 0
fi

# Whether a receive can see a crash is internal/mpi's call (mpi.Rank.
# DetectInterval, Failed, RecvCrashAware): no engine or I/O layer asks whether
# faults are scheduled or reads the detection interval itself.
detect=$(grep -rnE 'FaultDetectInterval|FaultsScheduled' --include='*.go' --exclude='*_test.go' \
    internal/core internal/mpiblast internal/engine internal/mpiio || true)
if [ -n "$detect" ]; then
    echo "the crash-detection rule is read outside internal/mpi:" >&2
    echo "$detect" >&2
    exit 1
fi

# Trace context lives in internal/mpi: a rank's batch stamp, the batch and
# send clock on every envelope and the flows built from them exist only while
# a collector is attached, and nothing outside mpi can read them. So no
# kernel, engine or I/O layer imports internal/trace, reads the collector
# (cfg.Trace, Config.Trace) or asks it for its flows mid-run.
tracectx=$(grep -rnE '"parblast/internal/trace"|\.Flows\(|\b(cfg|Config)\.Trace\b' --include='*.go' --exclude='*_test.go' \
    internal/blast internal/engine internal/core internal/mpiblast internal/mpiio || true)
if [ -n "$tracectx" ]; then
    echo "trace context is read outside internal/mpi:" >&2
    echo "$tracectx" >&2
    exit 1
fi

# The world needs no lock: the world's state and every rank's record belong
# to the scheduler token's holder, so no non-test file of internal/mpi
# declares a mutex.
locks=$(grep -rnE --include='*.go' --exclude='*_test.go' 'sync\.(RW)?Mutex\b' internal/mpi || true)
if [ -n "$locks" ]; then
    echo "internal/mpi declares a lock; its state belongs to the token holder:" >&2
    echo "$locks" >&2
    exit 1
fi

# pioBLAST reads its partitions through one pipeline: internal/core has one
# asynchronous read, one synchronous read and one extent decoder.
for call in '.StartReadAt(' '.ReadAt(' '.DecodeWithOffsets('; do
    n=$(grep -rF --include='*.go' --exclude='*_test.go' -o "$call" internal/core | wc -l)
    if [ "$n" -ne 1 ]; then
        echo "internal/core calls $call $n times; the partition pipeline has one" >&2
        exit 1
    fi
done

# A subject is scanned once per query batch: internal/blast has one word
# index type and one seed-scan loop over a subject's word ids, so a per-query
# scan cannot come back beside the batch scan.
scans=$(grep -rhF --include='*.go' --exclude='*_test.go' 'range words[' internal/blast | wc -l)
indexes=$(grep -rhE --include='*.go' --exclude='*_test.go' '^type [A-Za-z]*[Ii]ndex struct' internal/blast | wc -l)
if [ "$scans" -ne 1 ] || [ "$indexes" -ne 1 ]; then
    echo "internal/blast has $scans seed-scan loops and $indexes index types; the batch scan is the one of each" >&2
    exit 1
fi

# One renderer: the engines append every block into their own buffers with
# blast.AppendHit, so a string-per-block path cannot come back beside the
# workers' render arena.
for pkg in internal/core internal/mpiblast internal/engine; do
    old=$(grep -rnE --include='*.go' --exclude='*_test.go' 'RenderHit\(' "$pkg" || true)
    if [ -n "$old" ] || ! grep -rqF --include='*.go' --exclude='*_test.go' 'blast.AppendHit(' "$pkg"; then
        echo "$pkg must render blocks with blast.AppendHit, never RenderHit:" >&2
        echo "$old" >&2
        exit 1
    fi
done

# A run is one call: each engine declares one entry point, Run(nodes, nprocs,
# cfg, job, opts, stream), and engine.Launch is the one rank lifecycle, so the
# set-up cost is charged in one place.
for pkg in internal/core internal/mpiblast; do
    n=$(grep -rh --include='*.go' --exclude='*_test.go' '^func Run(' "$pkg" | wc -l)
    old=$(grep -rnE --include='*.go' --exclude='*_test.go' 'RunConfig|RunOpts|func Serve\(' "$pkg" || true)
    if [ "$n" -ne 1 ] || [ -n "$old" ]; then
        echo "$pkg declares $n func Run( and must declare one, with no RunConfig, RunOpts or Serve:" >&2
        echo "$old" >&2
        exit 1
    fi
done
setup=$(grep -rnF --include='*.go' --exclude='*_test.go' 'SetupCost' \
    internal/core internal/mpiblast internal/engine || true)
if [ "$(echo "$setup" | wc -l)" -ne 1 ] || ! echo "$setup" | grep -q '^internal/engine/run.go:'; then
    echo "SetupCost must be charged once, in engine.Launch:" >&2
    echo "$setup" >&2
    exit 1
fi

# One runner: the façade's Cluster.Run/Serve is the one place an engine is
# dispatched, so the experiments, the CLI and the examples build a run the
# same way and pass the same rejections. No other non-test file calls an
# engine's entry point (bench/ is its own module).
runners=$(grep -rnE --include='*.go' --exclude='*_test.go' 'core\.Run\(|mpiblast\.Run\(|engine\.RunSequential\(' . |
    grep -v -e '^\./bench/' -e '^\./\.bench_build/' -e '^\./parblast\.go:' || true)
if [ -n "$runners" ]; then
    echo "an engine is run outside the façade (parblast.go's Cluster.Run/Serve):" >&2
    echo "$runners" >&2
    exit 1
fi

# One world per engine run: engine.Launch starts every rank of an engine run,
# and the mpiio-layer I/O tuning study is the one experiment that drives the
# MPI layer directly, so no second model of an engine (its own protocol,
# combiner or cost charges) can stand beside the engines it would imitate
# (bench/ is its own module).
worlds=$(grep -rnE --include='*.go' --exclude='*_test.go' 'mpi\.Run(Config)?\(' . |
    grep -v -e '^\./bench/' -e '^\./\.bench_build/' \
        -e '^\./internal/engine/run\.go:' -e '^\./internal/experiments/iotune\.go:' || true)
if [ -n "$worlds" ]; then
    echo "mpi.Run/mpi.RunConfig called outside engine.Launch and the iotune study; run an engine through the façade instead:" >&2
    echo "$worlds" >&2
    exit 1
fi

# One stand-up: parblast.Stage builds a run's cluster and stages its
# database, and only it cuts mpiBLAST's physical fragments, one per worker or
# Fragments of them, so the CLI, the experiments and the examples pre-partition
# by the same rule. No other non-test file outside the façade and the engines
# calls engine.PartCount or PrepareFragments (bench/ is its own module).
staging=$(grep -rnE --include='*.go' --exclude='*_test.go' 'engine\.PartCount\(|\.PrepareFragments\(' . |
    grep -v -e '^\./bench/' -e '^\./\.bench_build/' -e '^\./parblast\.go:' \
        -e '^\./internal/core/' -e '^\./internal/mpiblast/' -e '^\./internal/engine/' || true)
if [ -n "$staging" ]; then
    echo "a run is staged outside the façade (parblast.go's Stage):" >&2
    echo "$staging" >&2
    exit 1
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

# Bits that do not depend on the architecture: no parblast/ function of the
# CLI or of the internal/core test binary (the clock fingerprint's runs) fuses
# a multiply-add, which the compiler would otherwise do on arm64, riscv64 and
# ppc64le, rounding once where amd64 rounds twice. Each such site rounds its
# product with an explicit float64(...) conversion instead.
xbuild=$(mktemp -d)
for arch in arm64 riscv64 ppc64le; do
    GOOS=linux GOARCH=$arch go build -o "$xbuild/parblast" ./cmd/parblast
    GOOS=linux GOARCH=$arch go test -c -o "$xbuild/core.test" ./internal/core
    fused=$(for bin in parblast core.test; do go tool objdump -s '^parblast/' "$xbuild/$bin"; done |
        awk '/^TEXT/ { fn = $2 } /[[:space:]]F(N)?M(ADD|SUB)/ { print fn ": " $0 }')
    if [ -n "$fused" ]; then
        rm -rf "$xbuild"
        echo "fused multiply-adds in parblast/ functions on $arch:" >&2
        echo "$fused" >&2
        exit 1
    fi
done
rm -rf "$xbuild"

# The benchmark is a nested module (bench/go.mod, replaced onto ../), so
# `./...` above does not see it: without this step a rename in
# internal/engine breaks it only when the benchmark pipeline next runs.
(cd bench && go vet ./... && go test ./...)

# Invariant lint gate: the analyzers in internal/lint enforce the part of
# the determinism contract no single run shows: no wall clock, seeded
# randomness, no map-order leaks, clock-neutral metrics and trace packages,
# and concurrency only at the listed sites. What a run does show is named by
# the tests below: unmatched collectives and unreceived messages by
# internal/mpi, a trace-context leak into bytes or time by
# TestTraceContextIsInert and TestTracingZeroVirtualTimeCost. Any finding
# fails the build; the one way to accept one is a //lint:<name> <reason>
# directive at the site.
go run ./cmd/parblastlint ./...

# The experiments package runs whole simulated-cluster sweeps per test
# and sits near go test's default 10m per-package limit under -race;
# give it explicit headroom rather than flaking on loaded machines.
go test -race -timeout 20m ./...
# The scheduler hands one token between rank goroutines: repeat its package
# so a handoff that only sometimes races shows, once more with four Ps, so
# that ranks computing aside (mpi.Rank.Aside) really overlap the holder.
go test -race -count=10 ./internal/mpi
GOMAXPROCS=4 go test -race -count=10 ./internal/mpi
# Searching on every core moves no clock and no artifact byte: the golden, the
# report's determinism and every recovery protocol's crash sweep hold with one
# P and with four.
# The allocation pins run at both too: how many scratch contexts a job's query
# bank creates depends on GOMAXPROCS.
for procs in 1 4; do
    GOMAXPROCS=$procs go test -count=1 -run "$golden" ./internal/core ./internal/report
    GOMAXPROCS=$procs go test -count=1 -run "$pins" . ./internal/mpiio ./internal/blast ./internal/core
done
# No goroutine outlives a run: the dynamic half of the godisc site list,
# repeated so a straggler that only sometimes outlives its run shows.
go test -race -count=3 -run TestNoGoroutineOutlivesARun .
# The kernel executor's slots claim subjects of concurrent searches from
# shared counters: race its tests oversubscribed (four Ps on however many
# cores there are) and repeatedly, so that claim orders and slot hand-offs
# the default run never produces are exercised.
GOMAXPROCS=4 go test -race -count=10 -run "^($executor)\$" ./internal/blast

# Fuzz smoke: five seconds for every Fuzz* target of the module, listed per
# package, so a new target joins without an edit here. Finds shallow panics,
# count-sized allocations and lossy round trips in the wire layouts, the
# on-disk formats and the artifact reader, and kernel differentials, without
# a long campaign.
for pkg in $(go list ./...); do
    listed=$(go test -list '^Fuzz' "$pkg")
    for target in $(printf '%s\n' "$listed" | grep '^Fuzz' || true); do
        go test -run=- -fuzz="^$target\$" -fuzztime=5s "$pkg"
    done
done
go test -run=- -bench='SearchFragment|SearchQueries|ScanSubject|ExtendGapped|ExtendUngapped' -benchtime=1x ./internal/blast
go run ./examples/quickstart >/dev/null
go run ./examples/clustersim >/dev/null
go run ./examples/dbcompare >/dev/null

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
# A plan is honoured or rejected, never downgraded: the master assigns one
# partition per request, so greedy assignment prefetches one deep at most.
if go run ./cmd/parblast -db "$tmp/db.fasta" -query "$tmp/q.fasta" \
    -engine pio -procs 4 -out "$tmp/rejected.txt" -dynamic -prefetch 2 2>"$tmp/rejected.err"; then
    echo "parblast -dynamic -prefetch 2 was accepted" >&2
    exit 1
fi
grep -q 'prefetches at most one partition' "$tmp/rejected.err"
# What an engine would not read is rejected by name: a pioBLAST option on
# mpiBLAST, and the I/O tuner without the collective reads that consult it
# (it used to learn nothing and exit 0). With them, it learns.
if go run ./cmd/parblast -db "$tmp/db.fasta" -query "$tmp/q.fasta" \
    -engine mpi -procs 4 -out "$tmp/rejected.txt" -dynamic 2>"$tmp/rejected.err"; then
    echo "parblast -engine mpi -dynamic was accepted" >&2
    exit 1
fi
grep -q 'Pio.DynamicAssignment' "$tmp/rejected.err"
if go run ./cmd/parblast -db "$tmp/db.fasta" -query "$tmp/q.fasta" \
    -engine pio -procs 4 -out "$tmp/rejected.txt" -io-tune "$tmp/untuned.json" 2>"$tmp/rejected.err"; then
    echo "parblast -io-tune without -collective-read was accepted" >&2
    exit 1
fi
grep -q 'IOTuner is read only by collective reads' "$tmp/rejected.err"
go run ./cmd/parblast -db "$tmp/db.fasta" -query "$tmp/q.fasta" \
    -engine pio -procs 4 -out "$tmp/tuned.txt" -collective-read -io-tune "$tmp/tuned.json" |
    grep -q 'learned I/O hints: [1-9][0-9]* keys'

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
# collectives go flat over the survivors once a fault is scheduled), and under
# pioBLAST's greedy assignment, with and without prefetch (one assignment loop
# serves every world); the report is the fault-free one byte for byte.
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
for mode in "-dynamic" "-dynamic -prefetch 1"; do
    go run ./cmd/parblast -db "$tmp/db.fasta" -query "$tmp/q.fasta" \
        -engine pio -procs 6 $mode -crash 3@0 -out "$tmp/crash_dynamic.txt" >/dev/null
    cmp "$tmp/free_pio.txt" "$tmp/crash_dynamic.txt"
done

# Width smoke: the north star's 1024- and 4096-rank merges, end to end, each
# report the sequential one byte for byte. What is the same on every rank is
# built once per world and a grant costs no scan of the ranks, so host time
# grows about as the rank count does (×3.4 from 1024 to 4096 ranks). Both
# jobs run at GOMAXPROCS=2: the job holds one token at a time, and on a wider
# machine idle Ps spend CPU time (GC mark workers, spinning Ms) that grows with
# the core count, not with the scheduler's work. At GOMAXPROCS=2 on the 2-core
# reference box the 4096-rank job took 0.41–0.92 s of CPU (0.56–0.66 s wall;
# CPU time varies with the box's other load) and 72–81 MB peak RSS, against
# 3.8–5.9 s of CPU (4.1–5.6 s wall) before the eligibility heap; the bounds
# are twice the highest readings.
go run ./cmd/makedb -o "$tmp/wide.fasta" -seqs 2400 -family 12
go build -o "$tmp/parblast" ./cmd/parblast
"$tmp/parblast" -db "$tmp/wide.fasta" -query "$tmp/q.fasta" \
    -engine seq -out "$tmp/wide_seq.txt" >/dev/null
for procs in 1024 4096; do
    bound=""
    if [ "$procs" = 4096 ]; then bound="-max-s 1.8 -max-mb 165"; fi
    GOMAXPROCS=2 go run ./scripts/hostbound $bound -- "$tmp/parblast" -db "$tmp/wide.fasta" -query "$tmp/q.fasta" \
        -engine pio -tree-merge -procs "$procs" -out "$tmp/wide_pio.txt" >/dev/null
    cmp "$tmp/wide_seq.txt" "$tmp/wide_pio.txt"
done

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
