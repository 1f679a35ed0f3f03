#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it:
#   bash servebench/run.sh --workload serve-read --seed 1 --seconds 10 --trace 0
# Run from the repository root. Build outputs, the Go build cache, the
# scratch stores and span files all go under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
# Keep the toolchain's own files (build cache, go env, telemetry counters)
# inside the checkout too, and never reach for the network.
export GOCACHE="$out/gocache" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/servebench" && go build -o "$out/bin/servebench" .)
exec "$out/bin/servebench" "$@"
