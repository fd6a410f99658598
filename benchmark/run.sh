#!/usr/bin/env bash
# Builds dla-node and the benchmark harness (offline, release), then
# runs the harness with the arguments given:
#
#   benchmark/run.sh --workload <name> --seed N --seconds S --trace 0|1
#       one run of one workload; last stdout line is the result JSON
#   benchmark/run.sh [--seed N] [--trace 1]
#       all three workloads (telemetry off; --trace 1 adds the traced pass)
#   benchmark/run.sh --check-repeat [--seed N]
#       two sets on one seed (median of three full runs each) plus one run on
#       the next seed; fails if the two sets disagree (about ten minutes)
#   benchmark/run.sh --test
#       the package's own tests (they need the dla-node binary built here)
#
# Everything the build and the runs leave behind is under
# $CARGO_TARGET_DIR (default: the repository's target/) and
# benchmark/out/, both ignored by git.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
manifest="$here/Cargo.toml"

# A relative CARGO_TARGET_DIR is relative to where we were called from.
target="${CARGO_TARGET_DIR:-$here/../target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# Build output goes to stderr: stdout carries only the harness's report.
cargo build --offline --release --manifest-path "$manifest" -p dla-deploy --bin dla-node >&2
export DLA_NODE_BIN="$target/release/dla-node"
export DLA_BENCH_OUT="$here/out"

if [ "${1:-}" = "--test" ]; then
    exec cargo test --offline --release --manifest-path "$manifest"
fi

cargo build --offline --release --manifest-path "$manifest" >&2
exec "$target/release/dla-benchmark" "$@"
