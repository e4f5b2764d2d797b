#!/usr/bin/env bash
# Builds the benchmark from source and runs it. This is the `command` of
# BENCHMARK.json: the driver calls it from the root of a checkout with
#   --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Everything it writes - the Go build cache, the binary, results, traces and
# the durable workload's store - stays under benchmark/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/out"
mkdir -p "$out/build"
export GOCACHE="$out/build/gocache" GOPATH="$out/build/gopath"
export GOTOOLCHAIN=local GOPROXY=off
# Fails, as it must, where the repository around benchmark/ is missing: the
# module's replace directive points at it.
(cd "$here" && go build -o "$out/build/benchmark" .)
exec "$out/build/benchmark" -out "$out" "$@"
