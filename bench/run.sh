#!/bin/sh
# Builds bltcbench from the checkout this is run in and runs it with the
# given arguments, e.g.
#
#   sh bench/run.sh --workload solve-uniform-50k --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and every
# temporary file stay under .bench_build there; nothing is downloaded.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C "$root/bench" build -o "$out/bltcbench" ./cmd/bltcbench
exec "$out/bltcbench" "$@"
