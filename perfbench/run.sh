#!/usr/bin/env bash
# Builds the `lpr` binary and the benchmark from source, then runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload ark-cycle --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr; the last line of stdout is the JSON result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p lpr-cli --bin lpr >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
mkdir -p "$CARGO_TARGET_DIR/perfbench"
exec "$CARGO_TARGET_DIR/release/lpr-perfbench" "$@" \
    --lpr "$CARGO_TARGET_DIR/release/lpr" --work "$CARGO_TARGET_DIR/perfbench"
