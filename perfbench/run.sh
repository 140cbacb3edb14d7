#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload fanout --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build product (Go build cache,
# binary, trace files) stays under .bench_build/ in that root, and no
# module is fetched: the benchmark imports only the repository itself and
# the standard library.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS= GOENV=off
(cd "$root/perfbench" && go build -o "$build/perfbench.bin" .)
exec "$build/perfbench.bin" --out "$build/perfbench" "$@"
