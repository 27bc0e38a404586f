#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it; every
# file the build writes (Go build cache, binary) lands under .bench_build/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
BENCH_COMMIT=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
export BENCH_COMMIT
go build -C "$root/bench" -o "$build/bench" .
cd "$root/bench"
exec "$build/bench" "$@"
