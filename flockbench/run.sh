#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash flockbench/run.sh --workload point-predict --seed 1 --seconds 40 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, binary, data directories, span dumps) stays under
# .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal/core || ! -f flockbench/go.mod ]]; then
	echo "flockbench: run from the root of a repository checkout" >&2
	exit 2
fi
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
# XDG_CONFIG_HOME holds the go command's env file and telemetry counters.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
go -C flockbench build -o "$out/flockbench" .
exec "$out/flockbench" "$@"
