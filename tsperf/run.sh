#!/usr/bin/env bash
# Builds the tsperf benchmark from source and runs it with the given flags.
# Run from the repository root:
#
#   bash tsperf/run.sh --workload pairs-tcp --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build): the Go build cache, the
# binary, and the temporary directory journals and spill files live in.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/tmp"

export GOCACHE=$build/gocache GOTMPDIR=$build/gotmp GOPATH=$build/gopath
export GOENV=off GOWORK=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local
go -C "$root/tsperf" build -o "$build/tsperf" .

export TMPDIR=$build/tmp
exec "$build/tsperf" "$@"
