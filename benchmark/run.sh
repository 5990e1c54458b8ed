#!/bin/bash
# Builds the benchmark from the checkout's source and runs it. Everything the
# build and the runs write stays under .bench_build in the checkout: the Go
# build cache, and the toolchain's telemetry counters, which it keeps in the
# user's configuration directory.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$root/.bench_build"
export GOCACHE="$root/.bench_build/gocache"
export XDG_CONFIG_HOME="$root/.bench_build/config"
(cd "$root/benchmark" && go build -o "$root/.bench_build/benchmark" .)
exec "$root/.bench_build/benchmark" "$@"
