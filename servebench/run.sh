#!/usr/bin/env bash
# Builds the release `ampc-serve` and the benchmark from source, then runs
# the benchmark against that server. Run from the repository root:
#
#   bash servebench/run.sh --workload forest100k-2a1 --seed 1 --seconds 35 --trace 0
#   bash servebench/run.sh --smoke
#
# Build output goes to stderr; the benchmark's last stdout line is its JSON
# result. CARGO_TARGET_DIR defaults to .bench_build.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml --bin ampc-serve 1>&2
cargo build --release --offline --quiet --manifest-path servebench/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/servebench" --server "$CARGO_TARGET_DIR/release/ampc-serve" "$@"
