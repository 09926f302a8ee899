#!/usr/bin/env bash
# Builds the `univsa` CLI and the benchmark from source into one target
# directory, then runs the benchmark with the given arguments, e.g.
#
#   bash examples/benchmark/run.sh --workload stream --seed 42 --seconds 15 --trace 0
#
# Run it from the repository root. The benchmark finds the CLI as its
# sibling executable, so both builds must share CARGO_TARGET_DIR.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p univsa-cli >&2
cargo build --release --offline --quiet --manifest-path examples/benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/univsa-benchmark" "$@"
