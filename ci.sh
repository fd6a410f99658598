#!/usr/bin/env bash
# Full CI gate: release build, tests, lints, doc links, formatting.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> bigint and crypto differential properties in release"
# The comb's 70 000-bit cases and the epoch-long fold_batch rows: the
# debug pass above runs them against dev-profile test code, this one
# with the arithmetic the benchmark runs (overflow wraps, no debug
# assertions), and it stays seconds however the debug pass is trimmed.
cargo test -q --release -p dla-bigint -p dla-crypto --test properties

echo "==> tcp_transport in release, then again pinned to one CPU; warm_cold pinned too"
cargo test -q --release -p dla-net --test tcp_transport
if command -v taskset >/dev/null 2>&1; then
    # One CPU is the schedule the benchmark measures, and the one where
    # hand-off ordering bugs in the socket transport surface — and where
    # the executor's scoped workers interleave with a lookup of what the
    # engine keeps.
    taskset -c 0 cargo test -q --release -p dla-net --test tcp_transport
    taskset -c 0 cargo test -q --release --test warm_cold
fi

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc -D warnings (intra-doc links must resolve)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> example runs (each asserts its own results)"
for example in quickstart transaction_audit secure_set_intersection intrusion_detection \
    evidence_chain integrity_audit confidentiality_metrics fault_recovery telemetry_trace; do
    cargo run --release --example "$example" >/dev/null
done

echo "==> benchmark/run.sh --test (harness tests incl. the 1/32-size smoke of every workload)"
benchmark/run.sh --test >/dev/null

# The twenty dla-bench binaries take no argument, run at one size (2 s
# for all of them) and assert their own gates before they exit — the
# exit code is the check. The seven exp_* at the head of the list then
# rewrite their BENCH_<name>.json, which the last step of this script
# diffs against the commit: a PR that moves a counted figure has to
# commit the new snapshot.
binaries=(exp_query_e2e exp_fault_recovery exp_cost_profile exp_epoch_scaling
    exp_adversary exp_federation exp_standing_query
    tables_1_to_6 fig1_centralized fig2_architecture fig3_query_plan fig4_ssi_trace
    fig6_evidence_chain fig7_rbinding exp_sum_scaling exp_ssi_scaling exp_rank_scaling
    exp_tradeoff exp_integrity exp_metrics)
passes=$(mktemp -d)
trap 'rm -rf "$passes"' EXIT
mkdir "$passes/first" "$passes/second"
for binary in "${binaries[@]}"; do
    echo "==> $binary"
    cargo run -q --release -p dla-bench --bin "$binary" >"$passes/first/$binary"
done

echo "==> second pass: stdout is byte-identical run to run, and any argument is refused"
for binary in "${binaries[@]}"; do
    cargo run -q --release -p dla-bench --bin "$binary" >"$passes/second/$binary"
    if cargo run -q --release -p dla-bench --bin "$binary" -- --no-such-flag >/dev/null 2>&1; then
        echo "$binary accepted an argument" >&2
        exit 1
    fi
done
diff -r "$passes/first" "$passes/second"

echo "==> dla-cluster smoke run (4 app + 3 infrastructure node processes; TCP mesh == ChannelNet digest)"
cargo run --release -p dla-deploy --bin dla-cluster -- --nodes 4 --records 8 --seed 7 \
    | grep -q "CLUSTER OK"

echo "==> the seven snapshots and the chrome-trace export validate as JSON"
for json in BENCH_*.json telemetry_trace.json; do
    if command -v jq >/dev/null 2>&1; then
        jq -e . "$json" >/dev/null
    else
        python3 -m json.tool "$json" >/dev/null
    fi
done

echo "==> the runs above reproduced every committed snapshot and left the benchmark alone"
# (telemetry_trace.json is named for the day it is committed: today it
# is git-ignored, because worker threads race for span ids.) The
# benchmark is frozen: a build that rewrites benchmark/Cargo.lock — a
# crate's dependency list moved — fails here instead of slipping through.
git diff --exit-code -- 'BENCH_*.json' telemetry_trace.json benchmark BENCHMARK.json

echo "CI OK"
