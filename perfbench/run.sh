#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload nightly-refresh --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
