#!/usr/bin/env bash
# Full CI gate: release build, tests, lints, doc links, formatting.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> tcp_transport in release, then again pinned to one CPU"
cargo test -q --release -p dla-net --test tcp_transport
if command -v taskset >/dev/null 2>&1; then
    # One CPU is the schedule the benchmark measures, and the one where
    # hand-off ordering bugs in the socket transport surface.
    taskset -c 0 cargo test -q --release -p dla-net --test tcp_transport
fi

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc -D warnings (intra-doc links must resolve)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> example smoke runs"
for example in quickstart integrity_audit fault_recovery; do
    cargo run --release --example "$example" >/dev/null
done

echo "==> benchmark/run.sh --test (harness tests incl. the 1/32-size smoke of every workload)"
benchmark/run.sh --test >/dev/null

# Each experiment binary asserts its own gate before it exits — the exit
# code is the check — and a --quick run writes no BENCH_*.json.
for experiment in query_e2e fault_recovery cost_profile epoch_scaling adversary federation standing_query; do
    echo "==> exp_$experiment --quick"
    cargo run --release -p dla-bench --bin "exp_$experiment" -- --quick >/dev/null
done

echo "==> dla-cluster smoke run (4 app + 3 infrastructure node processes; TCP mesh == ChannelNet digest)"
cargo run --release -p dla-deploy --bin dla-cluster -- --nodes 4 --records 8 --seed 7 \
    | grep -q "CLUSTER OK"

echo "==> chrome-trace export validates as JSON"
cargo run --release --example telemetry_trace >/dev/null
if command -v jq >/dev/null 2>&1; then
    jq -e . telemetry_trace.json >/dev/null
else
    python3 -m json.tool telemetry_trace.json >/dev/null
fi

echo "CI OK"
