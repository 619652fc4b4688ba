#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash benchmark/run.sh --workload uts-ipc --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays inside the checkout: the
# compiler's caches and the binary under .bench_build/, trace files and
# the ranks' scratch files under benchmark/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config" \
	GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/scioto-benchmark" .)
cd "$root"
exec "$build/scioto-benchmark" -out benchmark/out "$@"
