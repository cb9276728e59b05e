#!/usr/bin/env bash
# Builds the release `mpgtool` and the benchmark driver, then hands every
# argument to the driver. Run from anywhere; it works from the repository
# root so that relative trace paths stay short.
#
#   benchmark/run.sh                       all four workloads, untraced then
#                                          traced; writes benchmark/out/results.json
#   benchmark/run.sh --seed 2              the same on another seed
#   benchmark/run.sh --workload NAME       one workload, untraced then traced
#   benchmark/run.sh --self-check          two back-to-back sets against the bounds
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                          one run; last stdout line is the result
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# One target directory for both builds: the caller's, or the repository's.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p mpg-analysis --bin mpgtool >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

exec "$CARGO_TARGET_DIR/release/mpg-benchmark" \
    --mpgtool "$CARGO_TARGET_DIR/release/mpgtool" --bench-dir benchmark "$@"
