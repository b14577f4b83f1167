#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run from the
# repository root:
#
#	bash perfbench/run.sh --workload repro-all --seed 1 --seconds 20 --trace 0
#
# Build products (the Go build cache, the binary, span dumps) stay under
# $CARGO_TARGET_DIR, or .bench_build when it is unset.
set -euo pipefail
out=$(realpath -m "${CARGO_TARGET_DIR:-.bench_build}")
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOENV=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
