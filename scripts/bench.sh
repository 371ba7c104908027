#!/usr/bin/env bash
# Benchmark snapshot pipeline: run the standard CodeRedII driver benchmarks
# (and any extra pattern given as $1) with -benchmem, parse the output with
# cmd/benchsnap, and write BENCH_<date>.json at the repo root. Commit the
# file so performance changes show up in review diffs. Non-blocking in CI.
#
# Usage:
#   scripts/bench.sh                      # the snapshot set
#   scripts/bench.sh 'Benchmark.*Driver'  # custom pattern
#   BENCHTIME=3x COUNT=2 scripts/bench.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# The unanchored Run(Exact|Fast)CodeRedII leg matches the serial, Metrics,
# Trace, and Parallel variants, so the snapshot records each worker pool's
# overhead or speedup next to its serial baseline on every host. The
# internet-scale leg records the §14 scale contract (10⁷/10⁸-host CodeRedII
# outbreaks under the fast driver). BenchmarkProxGraphNew prices world
# construction next to BenchmarkRunFastProxGraph, which excludes it.
date="$(date -u +%F)"
out="BENCH_${date}.json"

if [ $# -ge 1 ]; then
  go test -run '^$' -bench "$1" -benchmem \
    -benchtime "${BENCHTIME:-1x}" -count "${COUNT:-1}" . |
    tee /dev/stderr |
    go run ./cmd/benchsnap -date "$date" -o "$out"
else
  # Two legs: the millisecond-scale set runs 3 iterations so single-shot
  # scheduler noise (±10% on shared hosts) doesn't swamp the numbers the
  # compare/overhead gates consume, while the internet-scale giants stay
  # single-shot — one 10⁸-host outbreak is minutes of signal on its own.
  {
    go test -run '^$' -benchmem -count "${COUNT:-1}" . \
      -bench 'BenchmarkRun(Exact|Fast)CodeRedII|BenchmarkFleetObserve|BenchmarkSweepResume|BenchmarkRunFastProxGraph|BenchmarkProxGraphNew' \
      -benchtime "${BENCHTIME:-3x}"
    go test -run '^$' -benchmem -count 1 . \
      -bench 'BenchmarkRunFastInternetScale' -benchtime 1x
  } |
    tee /dev/stderr |
    go run ./cmd/benchsnap -date "$date" -o "$out"
fi

echo "wrote $out"

# Overhead gate (intra-snapshot, so host speed drift between snapshots
# can't mask it): attaching the flight recorder must stay within 15% of
# the plain fast driver's ns/op. The budget is relative, so speeding up
# the plain driver tightens it for free: the slot-arena rewrite cut the
# plain run ~15%, which pushed the recorder's unchanged ~150 ns/event
# cost from ~8% to ~9% of the run — 15% keeps headroom for single-shot
# benchtime noise while still catching a per-event cost doubling.
# Skipped for custom patterns that don't run both benchmarks.
if grep -q '"name": "BenchmarkRunFastCodeRedIITrace"' "$out"; then
  echo "==> benchsnap -overhead (trace recorder <=15% over plain fast driver)"
  go run ./cmd/benchsnap \
    -overhead 'BenchmarkRunFastCodeRedII=BenchmarkRunFastCodeRedIITrace:15' "$out"
fi
