#!/usr/bin/env bash
# Builds the perfbench binary from the checkout's sources and runs it.
# Usage (from the repository root):
#   bash perfbench/run.sh --workload parse-maspar --seed 1 --seconds 10 --trace 0
# The Go build cache, the binary and the span files all live under
# $CARGO_TARGET_DIR (default .bench_build), so a run reads and writes
# nothing outside the checkout. Outside a full checkout the build
# fails, and so does the run.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOENV=off CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$out/perfbench.bin" .)
exec "$out/perfbench.bin" -out "$out/perfbench" "$@"
