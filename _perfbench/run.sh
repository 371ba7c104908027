#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash _perfbench/run.sh --workload codered-paper --seed 1 --seconds 15 --trace 0
#
# Everything the build writes stays under .bench_build/ in the working
# directory. Outside a full checkout the build fails and so does the run.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
  GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off
(cd "$root/_perfbench" && go build -o "$out/perfbench.$$" .)
mv "$out/perfbench.$$" "$out/perfbench"
exec "$out/perfbench" "$@"
