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
# code is the check — and a --quick run writes no BENCH_*.json. The
# thirteen paper-artefact binaries behind the seven gates (tables,
# figures, scaling sweeps) read no flag: they always run at full size
# (0.6 s for all of them) and assert or `expect` their own results.
for binary in exp_query_e2e exp_fault_recovery exp_cost_profile exp_epoch_scaling \
    exp_adversary exp_federation exp_standing_query \
    tables_1_to_6 fig1_centralized fig2_architecture fig3_query_plan fig4_ssi_trace \
    fig6_evidence_chain fig7_rbinding exp_sum_scaling exp_ssi_scaling exp_rank_scaling \
    exp_tradeoff exp_integrity exp_metrics; do
    echo "==> $binary --quick"
    cargo run --release -p dla-bench --bin "$binary" -- --quick >/dev/null
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
