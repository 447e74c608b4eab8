#!/usr/bin/env bash
# Compute-backend benchmark driver. Run from anywhere; operates on the repo
# root. Produces/updates BENCH_COMPUTE.json (preserving the stored baseline
# section so speedup-vs-baseline stays comparable across PRs), writes the
# simulator tiers to BENCH_SIM.json (a "headline" name pointing into the
# "benches" array — resolve it with `graf-perf headline`, don't duplicate
# it), and appends every measurement to
# BENCH_HISTORY.jsonl tagged with the current git revision so
# `graf-perf compare <revA> <revB>` can gate perf regressions.
#
# Usage:
#   scripts/bench.sh                 # full run, updates BENCH_COMPUTE.json,
#                                    # BENCH_SIM.json and BENCH_HISTORY.jsonl
#   scripts/bench.sh --smoke         # fast sanity pass, writes no files
#   scripts/bench.sh --as-baseline   # re-capture the baseline section
#   scripts/bench.sh --threads 4     # thread the training measurements
set -euo pipefail
cd "$(dirname "$0")/.."

SMOKE=0
EXTRA=()
for a in "$@"; do
  case "$a" in
    --smoke) SMOKE=1 ;;
    *) EXTRA+=("$a") ;;
  esac
done

cargo build --release -q -p graf-bench --bin bench_compute

if [[ "$SMOKE" == 1 ]]; then
  # Sanity pass: exercises every measurement once, writes no file.
  exec target/release/bench_compute --smoke "${EXTRA[@]+"${EXTRA[@]}"}"
fi

exec target/release/bench_compute --out BENCH_COMPUTE.json \
  --sim-out BENCH_SIM.json --history BENCH_HISTORY.jsonl \
  "${EXTRA[@]+"${EXTRA[@]}"}"
