#!/usr/bin/env bash
# Tier-1 gate: build, vet, the repo's own determinism/concurrency lint
# suite, the full test suite, and the race detector over the concurrent
# packages. CI runs exactly this script; run it locally before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> go run ./cmd/reprolint -baseline lint.baseline ./..."
lint_start=$(date +%s)
mkdir -p .lint
if ! go run ./cmd/reprolint -baseline lint.baseline ./... | tee .lint/findings.txt; then
  # Machine-readable copy for the CI failure artifact / local tooling.
  go run ./cmd/reprolint -baseline lint.baseline -json ./... > .lint/findings.json || true
  echo "reprolint: findings recorded in .lint/findings.txt and .lint/findings.json"
  exit 1
fi
echo "reprolint: clean in $(( $(date +%s) - lint_start ))s ($(go run ./cmd/reprolint -list | wc -l | tr -d ' ') analyzers, typed whole-module pass)"

echo "==> go test ./..."
go test ./...

echo "==> go test -race ./..."
go test -race ./...

echo "==> go run ./cmd/xcheck -n 25 -budget 60s -trace-dir .trace"
go run ./cmd/xcheck -n 25 -budget 60s -trace-dir .trace

# Flight-recorder smoke: one traced CLI run end to end (record, dump,
# summarize) so a broken -trace path or NDJSON schema fails the gate with
# a one-line repro rather than surfacing in a debugging session.
echo "==> flight-recorder smoke (hotspotsim -trace + hotspottrace summarize)"
trace_start=$(date +%s)
mkdir -p .trace
go run ./cmd/hotspotsim -worm hitlist -pop 5000 -t 100 -rate 200 -sensors 200 \
  -seed 7 -trace .trace/smoke.ndjson > /dev/null
go run ./cmd/hotspottrace summarize .trace/smoke.ndjson
go run ./cmd/hotspottrace tree .trace/smoke.ndjson > /dev/null
echo "trace smoke: recorded and summarized in $(( $(date +%s) - trace_start ))s"

# hotspotd smoke: boot the server on an ephemeral port, drive it with the
# deterministic load harness (duplicate submissions, malformed bodies,
# client disconnects), then SIGTERM and require a clean drain — end-to-end
# proof that admission control, coalescing, and graceful shutdown hold in a
# real process, not just in httptest.
echo "==> hotspotd smoke (hotspotload -quick against a live server)"
serve_start=$(date +%s)
mkdir -p .serve
go build -o .serve/hotspotd ./cmd/hotspotd
go build -o .serve/hotspotload ./cmd/hotspotload
# A fresh store each run: a kept one would serve every job from its cache
# and the smoke would run no scenario at all.
rm -rf .serve/data
.serve/hotspotd -addr 127.0.0.1:0 -dir .serve/data -max-body 65536 > .serve/hotspotd.log 2>&1 &
hotspotd_pid=$!
addr=""
for _ in $(seq 1 100); do
  addr=$(sed -n 's/^hotspotd: listening on //p' .serve/hotspotd.log)
  [ -n "$addr" ] && break
  kill -0 "$hotspotd_pid" 2>/dev/null || { cat .serve/hotspotd.log; exit 1; }
  sleep 0.1
done
[ -n "$addr" ] || { echo "hotspotd: never reported its address"; cat .serve/hotspotd.log; exit 1; }
.serve/hotspotload -quick -addr "$addr"
kill -TERM "$hotspotd_pid"
wait "$hotspotd_pid"
grep -q 'hotspotd: drained' .serve/hotspotd.log || { echo "hotspotd: no clean drain"; cat .serve/hotspotd.log; exit 1; }
echo "hotspotd smoke: served and drained cleanly in $(( $(date +%s) - serve_start ))s"

echo "==> all checks passed"
