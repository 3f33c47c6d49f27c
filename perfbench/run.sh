#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it. Run it from the
# root of the repository; arguments pass through to the benchmark:
#
#   bash perfbench/run.sh --workload invoke-direct --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and the traced run's span files all go
# under .bench_build/ in the current directory, so a run writes nowhere
# else. The build fails, and the script exits non-zero without printing a
# result, when the repository's sources are not beside this directory.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"
# XDG_CONFIG_HOME keeps the toolchain's telemetry counters in $out too.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
    XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
