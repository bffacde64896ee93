#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build leaves behind stays inside the checkout, under
# .bench_build: the compiler's cache, its temporary files and the binary.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTMPDIR="$build/tmp"
# The module needs nothing from the network: fail at once rather than wait.
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-modcacherw
# Freed heap pages stay with the process (MADV_FREE) instead of going back to
# the kernel: on the box this runs on, a page that went back costs 20-100 us
# to touch again, against 2 us for one that stayed (README.md).
export GODEBUG="madvdontneed=0${GODEBUG:+,$GODEBUG}"
go build -C benchmark -o "$build/benchmark" .
exec "$build/benchmark" "$@"
