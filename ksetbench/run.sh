#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it. Run from the
# repository root; the arguments pass through:
#
#   bash ksetbench/run.sh --workload sync-sweep --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays inside the checkout: the
# Go build cache and the binary under $CARGO_TARGET_DIR (default
# .bench_build), traced-run spans and ladders under ksetbench/out.
set -euo pipefail

root=$PWD
bench=$(cd "$(dirname "$0")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp" "$build/config"

export GOCACHE=$build/gocache GOPATH=$build/gopath GOMODCACHE=$build/gopath/pkg/mod
export GOTMPDIR=$build/tmp TMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off

(cd "$bench" && go build -o "$build/ksetbench" .)
exec "$build/ksetbench" -spec "$root/BENCHMARK.json" -out "$bench/out" "$@"
