#!/bin/sh
# verify.sh — the repo's gate (see ROADMAP.md), in two tiers.
#
#   ./verify.sh        the full gate; every PR must pass it, and CI runs it:
#                      gofmt -s (no unformatted or unsimplified files), go vet
#                      (native and for the pure-Go arm64 build, which has no
#                      assembly), the project's own static analysis suite
#                      (cmd/bltcvet, see docs/static-analysis.md), full build,
#                      full tests with the race detector, vet of the bench/
#                      module and its tests with the race detector too, the
#                      bltcd smoke and a one-iteration smoke run of every
#                      benchmark of the root package and of internal/kernel
#                      (the tile and charge-kernel microbenchmarks) so none
#                      can bit-rot.
#   ./verify.sh fast   the quick tier for use while editing: the same gofmt,
#                      vets, bltcvet and build, then go test -short ./...
#                      without the race detector, and vet and tests of
#                      bench/ (its split runs restate library drivers call
#                      for call, and only its tests catch them drifting).
set -e

cd "$(dirname "$0")"

case "$#:${1-}" in
0:) tier=full ;;
1:fast) tier=fast ;;
*)
    echo "usage: ./verify.sh [fast]" >&2
    exit 2
    ;;
esac

unformatted=$(gofmt -s -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt -s: unformatted files:" >&2
    echo "$unformatted" >&2
    exit 1
fi
echo "gofmt -s: ok"

go vet ./...
echo "go vet: ok"

# Type-check the pure-Go build too: internal/kernel's assembly tiles and
# CPU-feature probes are amd64-only, and nothing else compiles the files
# a non-amd64 build uses instead. Offline: arm64 is a cross-compile of
# the local toolchain (the first run builds its standard library).
GOARCH=arm64 go vet ./...
echo "go vet (GOARCH=arm64): ok"

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

if [ "$tier" = fast ]; then
    go test -short ./...
    echo "go test -short: ok"
    go -C bench vet ./...
    go -C bench test ./...
    echo "bench module vet + test: ok"
    echo "verify fast: all checks passed"
    exit 0
fi

go test -race ./...
echo "go test -race: ok"

# bench/ is a module of its own (bltcbench, see bench/README.md), so the
# root ./... above never enters it, yet it calls internal packages
# directly: vet it and run its tests (every workload at toy sizes) under
# the race detector, since its split distributed run shares one recorder
# and one potential array across the mpisim rank goroutines.
go -C bench vet ./...
go -C bench test -race ./...
echo "bench module vet + test -race: ok"

# Daemon smoke: start bltcd in-process, create a plan, run one solve
# through the full HTTP path, verify the potentials bit-for-bit against
# the library, shut down cleanly (see cmd/bltcd and docs/serving.md).
go run ./cmd/bltcd -smoke
echo "bltcd smoke: ok"

# Smoke-run every benchmark of the root package and of internal/kernel,
# one iteration each: this only proves they still compile and run.
# internal/kernel's (BenchmarkEvalTile, BenchmarkChargeUpdate,
# BenchmarkTransferUp, ...) are the ones kernel changes cite.
# Performance is recorded by bltcbench (bench/README.md). The output
# lands in bench-smoke.txt (not a perf record: one untimed iteration),
# which CI uploads as an artifact so a failing or silently vanishing
# benchmark is visible from the workflow run.
go test -run '^$' -bench . -benchtime 1x . ./internal/kernel >bench-smoke.txt
echo "bench smoke (-benchtime=1x): ok"
echo "verify: all checks passed"
