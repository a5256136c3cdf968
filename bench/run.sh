#!/usr/bin/env bash
# Builds the benchmark from source into the checkout's .bench_build directory
# and runs it from the repository root. Everything the Go toolchain writes
# (build cache, module cache, the binary) stays inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOWORK=off
(cd "$root/bench" && go build -o "$build/allocbench" .)
cd "$root"
exec "$build/allocbench" "$@"
