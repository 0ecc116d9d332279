#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark runner from source
# into <checkout>/.bench_build and runs it. Everything the Go toolchain writes
# (build cache, module cache, temp files) is kept inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off
go build -C "$root/bench" -o "$build/bin/hammerhead-benchmark" .
exec "$build/bin/hammerhead-benchmark" -root "$root" "$@"
