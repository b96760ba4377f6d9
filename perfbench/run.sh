#!/usr/bin/env bash
# Builds perfbench from source in this checkout and runs it with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload figure4 --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build state (Go build cache, binary,
# traced-run artifacts) stays under .bench_build/ in that directory.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/bin"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in here too.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOENV=off
go build -C perfbench -o "$build/bin/perfbench" .
exec "$build/bin/perfbench" "$@"
