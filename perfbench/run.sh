#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# checkout:
#
#   bash perfbench/run.sh --workload sweep --seed 0 --seconds 20 --trace 0
#
# Every build product, cache and scratch file stays inside the checkout,
# under $CARGO_TARGET_DIR (default .bench_build). Outside a checkout that
# holds the jrs module the build fails and the script exits non-zero.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$build"
build=$(cd "$build" && pwd)

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly
mkdir -p "$GOTMPDIR"

go -C "$root/perfbench" build -o "$build/perfbench-bin" . >&2
exec "$build/perfbench-bin" -root "$root" -out "$build/perfbench" "$@"
