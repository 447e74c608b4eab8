#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root, where
# the workspace's .cargo/config.toml (target-cpu=native) applies as it does
# to every other build of these crates. Arguments go to the benchmark:
# see the usage text at the top of src/main.rs.
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"
