#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run it from the root of a
# checkout:
#
#   bash perfbench/run.sh --workload crowd-mix --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under the build directory in
# the checkout: $CARGO_TARGET_DIR when set, .bench_build otherwise.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp"

export GOTOOLCHAIN=local GOENV=off GOFLAGS=
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --workdir "$build/run" --spans "$build/spans" "$@"
