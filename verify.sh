#!/bin/sh
# verify.sh — the repo's tier-1 gate (see ROADMAP.md). Every PR must pass:
#   gofmt -s (no unformatted or unsimplified files), go vet, the project's
#   own static analysis suite (cmd/bltcvet, see docs/static-analysis.md),
#   full build, full tests with the race detector, vet and tests of the
#   bench/ module, and a one-iteration smoke run of the tracked benchmarks
#   so they cannot bit-rot.
set -e

cd "$(dirname "$0")"

unformatted=$(gofmt -s -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt -s: unformatted files:" >&2
    echo "$unformatted" >&2
    exit 1
fi
echo "gofmt -s: ok"

go vet ./...
echo "go vet: ok"

# Machine-readable findings land in bltcvet-findings.json (uploaded as a
# CI artifact next to bench-smoke.txt); the file holds [] on a clean run.
if ! go run ./cmd/bltcvet -json ./... >bltcvet-findings.json; then
    echo "bltcvet: findings reported:" >&2
    cat bltcvet-findings.json >&2
    exit 1
fi
echo "bltcvet: ok"

go build ./...
echo "go build: ok"

go test -race ./...
echo "go test -race: ok"

# bench/ is a module of its own (bltcbench, see bench/README.md), so the
# root ./... above never enters it, yet it calls internal packages
# directly: vet it and run its tests (every workload at toy sizes).
go -C bench vet ./...
go -C bench test ./...
echo "bench module vet + test: ok"

# Daemon smoke: start bltcd in-process, create a plan, run one solve
# through the full HTTP path, verify the potentials bit-for-bit against
# the library, shut down cleanly (see cmd/bltcd and docs/serving.md).
go run ./cmd/bltcd -smoke
echo "bltcd smoke: ok"

# Smoke-run the benchmarks scripts/bench.sh tracks (keep the regex in sync
# with scripts/bench.sh): one iteration each — this only proves the tracked
# benches still compile and run. The output lands in bench-smoke.txt (not a
# perf record: one untimed iteration), which CI uploads as an artifact so a
# failing or silently vanishing benchmark is visible from the workflow run.
go test -run '^$' -bench '^(BenchmarkEvalDirectBlock|BenchmarkBuildLists100k|BenchmarkModifiedCharges|BenchmarkClusterData50k|BenchmarkTreeBuild100k|BenchmarkBatchBuild100k|BenchmarkTreecodeCPU50k|BenchmarkTreecodeDevice50k|BenchmarkComputePhase50k|BenchmarkComputePhase50kParallel|BenchmarkPlanSolve50k|BenchmarkServeSolve20k|BenchmarkLeapfrogStep100k|BenchmarkLeapfrogStep100kRebuild|BenchmarkDistributed4Ranks|BenchmarkDistributedOverlap4Ranks)$' -benchtime 1x . >bench-smoke.txt
echo "bench smoke (-benchtime=1x): ok"
echo "verify: all checks passed"
