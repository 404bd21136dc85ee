#!/usr/bin/env bash
# The driver's entry point (see BENCHMARK.json): builds the benchmark from
# source inside the checkout and runs it with the arguments given. Everything
# the Go toolchain writes — binary, build cache, module cache, temporary files,
# telemetry counters (XDG_CONFIG_HOME) — goes under .bench_build/, and the
# benchmark itself writes under bench/out/, so nothing outside the checkout is
# touched. bench/ is its own Go module (bench/go.mod), so it builds only where
# the repository's root module sits above it.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= XDG_CONFIG_HOME="$build/config"
go build -C "$root/bench" -o "$build/fdb-bench" .
exec "$build/fdb-bench" -out "$root/bench/out" "$@"
