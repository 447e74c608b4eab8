#!/usr/bin/env bash
# CI gate: build, test, formatting, docs, sanitizers. Run from the repo root.
# clippy with the workspace bans (clippy.toml, [workspace.lints]) and
# `cargo fmt --check` run inside `cargo test -q`: tests/lints.rs.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release =="
cargo build --release

echo "== cargo test -q (whole workspace via default-members: doctests, the counting-allocator suites, clippy -D warnings and fmt --check included) =="
cargo test -q

echo "== cargo doc (deny warnings; missing_docs denied per-crate) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "== thread sanitizer (data-parallel train + the collector's and graf-exp all's worker pool) =="
if rustup component list --toolchain nightly 2>/dev/null | grep -q '^rust-src.*(installed)'; then
  TSAN_TARGET="$(rustc -vV | sed -n 's/^host: //p')"
  RUSTFLAGS="-Zsanitizer=thread" cargo +nightly test -Zbuild-std --target "$TSAN_TARGET" \
    -q --test determinism -- \
    parallel_training_matches_serial_bit_for_bit bound_search_is_thread_count_invariant
  RUSTFLAGS="-Zsanitizer=thread" cargo +nightly test -Zbuild-std --target "$TSAN_TARGET" \
    -q -p graf-bench --test artefacts -- \
    sharing_one_context_changes_no_byte_and_builds_once
  echo "thread sanitizer: clean"
else
  echo "SKIPPED: thread sanitizer needs the nightly rust-src component (-Zbuild-std); not installed in this environment"
fi

echo "== miri smoke (event-queue + matrix kernel invariants) =="
if cargo +nightly miri --version >/dev/null 2>&1; then
  MIRIFLAGS="-Zmiri-deterministic-concurrency" \
    cargo +nightly miri test -q -p graf-nn matrix
  MIRIFLAGS="-Zmiri-deterministic-concurrency" \
    cargo +nightly miri test -q -p graf-sim events
  echo "miri: clean"
else
  echo "SKIPPED: miri is not installed on the nightly toolchain in this environment"
fi

echo "== graf-exp all --quick (every registered experiment leaves a non-empty artefact, and nothing else; progress in registry order; one telemetry log, every line a span or a point naming its experiment) =="
GRAF_EXP="$PWD/target/release/graf-exp"
ALLDIR="$(mktemp -d)"
# Outside $ALLDIR: the leftover-files check below wants only results/*.txt there.
TELEMETRY="$(mktemp)"
trap 'rm -rf "$ALLDIR" "$TELEMETRY"' EXIT
PROGRESS="$(cd "$ALLDIR" && "$GRAF_EXP" all --quick --seed 7 --telemetry "$TELEMETRY")" \
  || { echo "$PROGRESS" >&2; exit 1; }
echo "$PROGRESS"
[[ -s "$TELEMETRY" ]] || { echo "graf-exp all --telemetry wrote no log" >&2; exit 1; }
# A line is a span or a point whose `exp` attribute names a registered experiment.
NAMES="$("$GRAF_EXP" list | awk '{print $1}' | paste -sd'|')"
RECORD='^\{.*"type":"(span|point)".*"exp":"('"$NAMES"')"[,}].*\}$'
BAD="$(grep -cvE "$RECORD" "$TELEMETRY" || true)"
[[ "$BAD" == 0 ]] \
  || { echo "graf-exp all --telemetry: $BAD lines are not span or point records naming an experiment:" >&2;
       grep -vE "$RECORD" "$TELEMETRY" | head -3 >&2; exit 1; }
# ablation_sampling's three collect spans are told apart by their variant scope.
VARIANTS="$(grep '"name":"graf.sample.collect"' "$TELEMETRY" \
  | grep -oE '"exp":"ablation_sampling","variant":"[^"]*"' | sed 's/.*"variant"://' | sort -u | paste -sd' ')"
[[ "$VARIANTS" == '"held-out" "naive" "state-aware"' ]] \
  || { echo "graf-exp all --telemetry: ablation_sampling's collect spans carry variants [$VARIANTS], want held-out, naive, state-aware" >&2; exit 1; }
[[ "$(awk '$1 == "ok" {print $2}' <<<"$PROGRESS")" == "$("$GRAF_EXP" list | awk '{print $1}')" ]] \
  || { echo "graf-exp all: its ok lines do not name the registry in graf-exp list order" >&2; exit 1; }
for name in $("$GRAF_EXP" list | awk '{print $1}'); do
  [[ -s "$ALLDIR/results/$name.txt" ]] \
    || { echo "graf-exp all left no results/$name.txt" >&2; exit 1; }
done
EXPECTED="$("$GRAF_EXP" list | awk '{print "./results/" $1 ".txt"}' | sort)"
LEFT="$(cd "$ALLDIR" && find . -type f | sort)"
[[ "$LEFT" == "$EXPECTED" ]] \
  || { echo "graf-exp all left files other than results/<name>.txt:" >&2;
       comm -13 <(echo "$EXPECTED") <(echo "$LEFT") >&2; exit 1; }

echo "== benchmark smoke (stand-alone benchmark/ workspace builds against the public API; output checks on) =="
bash benchmark/run.sh --smoke

echo "== benchmark unit tests (stats, JSON, rusage; its own workspace, so tier-1 does not see them) =="
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "CI OK"
