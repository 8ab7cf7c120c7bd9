#!/usr/bin/env bash
# Builds the `ltc` binary and the benchmark from this checkout, then runs
# the benchmark with the given arguments. Run from the repository root:
#
#   bash benchmark/run.sh --workload scal100k-aam --seed 1 --seconds 20 --trace 0
#
# Honours CARGO_TARGET_DIR (default: target/ for `ltc`, benchmark/target/
# for the benchmark itself).
set -euo pipefail
cargo build --release --offline --quiet -p ltc-cli
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
ltc="${CARGO_TARGET_DIR:-target}/release/ltc"
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/ltc-e2e-bench" --ltc "$ltc" "$@"
