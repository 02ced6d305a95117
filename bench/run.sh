#!/usr/bin/env bash
# Builds the benchmark harness from source inside the checkout and runs
# it with the given flags. Everything the Go toolchain writes — build
# cache, temporary files, telemetry counters — is kept under
# bench/out/build/ in the checkout, so a run reads and writes nothing
# outside it.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/bench/out/build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
go build -C bench -o "$build/emap-bench" .
exec "$build/emap-bench" "$@"
