#!/usr/bin/env bash
# Builds the benchmark and the two servers it drives, then runs it.
# Everything the build leaves behind stays inside this directory, under
# .build/ (Go's build cache included), so a run reads and writes nothing
# outside the tree it measures.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/benchmark/.build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOFLAGS=-mod=mod GOTOOLCHAIN=local
go build -o "$build/bin/" ./benchmark ./cmd/asrserve ./cmd/asrrouter
exec "$build/bin/benchmark" "$@"
