#!/usr/bin/env bash
# Runs every table/figure binary and collects outputs under results/.
#
# Keep-going semantics: a failing binary no longer aborts the run — every
# binary gets its turn, failures are collected, a summary is printed, and
# the exit code is nonzero iff anything failed. Binaries run in a small
# parallel pool (GRAF_JOBS, default 4; set GRAF_JOBS=1 for serial).
#
# Pass flags through, e.g.:  ./run_all_experiments.sh --paper-scale
set -uo pipefail
cd "$(dirname "$0")"

ARGS=("$@")
OUT=results
JOBS="${GRAF_JOBS:-4}"
mkdir -p "$OUT"

BINS=(
  fig01_instance_creation
  topologies
  fig02_03_surge_hpa
  fig06_latency_curves
  fig07_cascading
  table1_hyperparams
  table2_prediction_error
  fig11_ablation_mpnn
  fig12_loss_heatmap
  fig13_search_space
  fig14_16_resource_saving
  fig17_slo_targeting
  fig18_user_scaling
  fig19_cost_benefit
  table3_budget
  fig20_real_workload
  fig21_22_surge_comparison
  chaos_matrix
  solver_latency
  ablation_loss
  ablation_sampling
  ablation_integer
  ablation_anomaly
  ablation_partition
)

# Build once up front; running from target/ afterwards keeps the pool free
# of cargo lock contention. A build failure is fatal — nothing can run.
cargo build --release -p graf-bench --bins || exit 1

# Each job drops a marker file on failure; the summary is collected after
# the whole pool drains, so one bad binary never silences the rest.
FAILDIR="$(mktemp -d)"
trap 'rm -rf "$FAILDIR"' EXIT

run_one() {
  local bin="$1"
  if "target/release/$bin" "${ARGS[@]}" >"$OUT/$bin.txt" 2>"$OUT/$bin.err"; then
    rm -f "$OUT/$bin.err"
    echo "ok   $bin"
  else
    touch "$FAILDIR/$bin"
    echo "FAIL $bin (output: $OUT/$bin.txt, stderr: $OUT/$bin.err)"
  fi
}

for bin in "${BINS[@]}"; do
  # Throttle to $JOBS concurrent binaries.
  while (( $(jobs -rp | wc -l) >= JOBS )); do
    wait -n || true
  done
  run_one "$bin" &
done
wait

echo
FAILED=()
for bin in "${BINS[@]}"; do
  [[ -e "$FAILDIR/$bin" ]] && FAILED+=("$bin")
done
if (( ${#FAILED[@]} > 0 )); then
  echo "${#FAILED[@]}/${#BINS[@]} experiment(s) FAILED:"
  for bin in "${FAILED[@]}"; do
    echo "  - $bin (see $OUT/$bin.err)"
  done
  exit 1
fi
echo "All ${#BINS[@]} experiments passed; outputs in $OUT/"
