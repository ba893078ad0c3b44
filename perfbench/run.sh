#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Call it from the
# repository root; every argument is passed through, for example
#
#   bash perfbench/run.sh --workload secure-canneal --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# working directory ($CARGO_TARGET_DIR names it when set).
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod are required)" >&2
	exit 2
fi

root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
[[ $build = /* ]] || build="$root/$build"
mkdir -p "$build/tmp"

# A hermetic, offline build: caches, temp files and the toolchain's
# own config live in the build directory, and no module is fetched.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomodcache"
export XDG_CONFIG_HOME="$build/config" GOPROXY=off GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off

(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" --work "$build/perfbench-work" "$@"
