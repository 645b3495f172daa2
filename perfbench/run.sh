#!/usr/bin/env bash
# Builds the release `uadb-serve` binary and the benchmark harness from
# source, then runs one workload:
#
#   bash perfbench/run.sh --workload fit_cardio --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Build outputs go to $CARGO_TARGET_DIR
# (default `.bench_build`); the last line of stdout is the JSON result.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -f crates/serve/Cargo.toml || ! -f perfbench/Cargo.toml ]]; then
    echo "perfbench: run from the repository root (Cargo.toml, crates/ and perfbench/ required)" >&2
    exit 2
fi

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p uadb-serve >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --server-bin "$CARGO_TARGET_DIR/release/uadb-serve" "$@"
