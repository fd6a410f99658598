#!/usr/bin/env bash
# Full CI gate: release build, tests, lints, doc links, formatting.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> telemetry tests"
cargo test -q -p dla-telemetry
cargo test -q -p dla-audit --test telemetry_equivalence
cargo test -q -p dla-net --test reliable_telemetry

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

echo "==> exp_fault_recovery --quick"
cargo run --release -p dla-bench --bin exp_fault_recovery -- --quick >/dev/null

echo "==> benchmark/run.sh --test (harness tests incl. the 1/32-size smoke of every workload)"
benchmark/run.sh --test >/dev/null

echo "==> exp_cost_profile (asserts fixed-base audit beats the refold ladder, no reveal decryptions at a ring collector)"
cargo run --release -p dla-bench --bin exp_cost_profile >/dev/null
if command -v jq >/dev/null 2>&1; then
    jq -e '
        .experiment == "cost_profile"
        and (.quick | not)
        and (.protocols | all(has("fixed_base_builds") and has("multi_exp_terms")))
        and (.fixed_base_vs_ladder.table_builds == 1)
        and (.fixed_base_vs_ladder.fixed_base_mont_mul_steps
             < .fixed_base_vs_ladder.ladder_mont_mul_steps)
    ' BENCH_cost_profile.json >/dev/null
else
    python3 - <<'PY'
import json
d = json.load(open("BENCH_cost_profile.json"))
assert d["experiment"] == "cost_profile" and not d["quick"]
for p in d["protocols"]:
    assert "fixed_base_builds" in p and "multi_exp_terms" in p
fb = d["fixed_base_vs_ladder"]
assert fb["table_builds"] == 1
assert fb["fixed_base_mont_mul_steps"] < fb["ladder_mont_mul_steps"], \
    "fixed-base audit must take fewer Montgomery steps than the refold ladder"
PY
fi

echo "==> exp_epoch_scaling --quick (asserts windowed folds beat full-trail)"
cargo run --release -p dla-bench --bin exp_epoch_scaling -- --quick >/dev/null
if command -v jq >/dev/null 2>&1; then
    jq -e '
        .experiment == "epoch_scaling"
        and (.rows | length >= 2)
        and (.rows | all(has("records") and has("windowed_folds")
                         and has("full_folds") and has("answers_identical")))
        and (.rows | all(.answers_identical))
        and ([.rows[] | select(.records >= 4 * .windowed_folds)] | length > 0)
        and ([.rows[] | select(.records >= 4 * .windowed_folds)]
             | all(.windowed_folds < .full_folds))
    ' BENCH_epoch_scaling.json >/dev/null
else
    python3 - <<'PY'
import json
d = json.load(open("BENCH_epoch_scaling.json"))
assert d["experiment"] == "epoch_scaling"
rows = d["rows"]
assert len(rows) >= 2
for r in rows:
    for key in ("records", "windowed_folds", "full_folds", "answers_identical"):
        assert key in r, key
    assert r["answers_identical"], "pruned answers must match unsharded"
gated = [r for r in rows if r["records"] >= 4 * r["windowed_folds"]]
assert gated, "at least one row must hit the 4x trail/window ratio"
for r in gated:
    assert r["windowed_folds"] < r["full_folds"], "windowed must fold fewer"
PY
fi

echo "==> exp_adversary --quick (asserts 100% detection, zero false alarms, zero leaks)"
cargo run --release -p dla-bench --bin exp_adversary -- --quick >/dev/null
if command -v jq >/dev/null 2>&1; then
    jq -e '
        .experiment == "adversary"
        and (.attacks | length == 4)
        and (.attacks | all(has("class") and has("detection_rate")
                            and has("mean_messages_to_detect")
                            and has("mean_virtual_ns_to_detect")
                            and has("detected_by")))
        and (.attacks | all(.detection_rate == 1.0))
        and ([.attacks[].class] | sort
             == ["checkpoint_equivocation", "fragment_tamper",
                 "malformed_ciphertext", "relay_round_lie"])
        and (.honest_baseline.false_alarms == 0)
        and (.collusion | length >= 3)
        and (.collusion | all(.foreign_plaintext_hits == 0))
        and (([.collusion[] | select(.size == 0)][0].c_store - .paper.c_store)
             | fabs < 1e-6)
        and (([.collusion[] | select(.size == 0)][0].c_dla - .paper.c_dla)
             | fabs < 1e-6)
    ' BENCH_adversary.json >/dev/null
else
    python3 - <<'PY'
import json
d = json.load(open("BENCH_adversary.json"))
assert d["experiment"] == "adversary"
attacks = d["attacks"]
assert sorted(a["class"] for a in attacks) == [
    "checkpoint_equivocation", "fragment_tamper",
    "malformed_ciphertext", "relay_round_lie",
]
for a in attacks:
    for key in ("detection_rate", "mean_messages_to_detect",
                "mean_virtual_ns_to_detect", "detected_by"):
        assert key in a, key
    assert a["detection_rate"] == 1.0, f"{a['class']} missed an attack"
assert d["honest_baseline"]["false_alarms"] == 0, "false alarm on honest run"
collusion = d["collusion"]
assert len(collusion) >= 3
for c in collusion:
    assert c["foreign_plaintext_hits"] == 0, f"coalition {c['coalition']} leaked"
base = next(c for c in collusion if c["size"] == 0)
assert abs(base["c_store"] - d["paper"]["c_store"]) < 1e-6
assert abs(base["c_dla"] - d["paper"]["c_dla"]) < 1e-6
PY
fi

echo "==> exp_federation --quick (asserts ring-sweep scaling, identical answers, tamper catch)"
cargo run --release -p dla-bench --bin exp_federation -- --quick >/dev/null
if command -v jq >/dev/null 2>&1; then
    jq -e '
        .experiment == "federation"
        and .digests_identical
        and .tamper_detected
        and (.speedup_4x_vs_1 >= 2.0)
        and (.rows | length >= 3)
        and ([.rows[].rings] | (contains([1]) and contains([4])))
        and (.rows | all(has("rings") and has("makespan_ns")
                         and has("deposits_per_sec") and has("broadcast_digest")
                         and has("routed_digest") and has("published")))
        and (.broadcast_digest | length == 64)
        and (.rows | all(.broadcast_digest == $top.broadcast_digest))
        and (.rows | all(.routed_digest == $top.routed_digest))
        and (.rows | all(.root_ok and .tamper_detected and .published > 0))
    ' --argjson top "$(jq '{broadcast_digest, routed_digest}' BENCH_federation.json)" \
        BENCH_federation.json >/dev/null
else
    python3 - <<'PY'
import json
d = json.load(open("BENCH_federation.json"))
assert d["experiment"] == "federation"
assert d["digests_identical"] and d["tamper_detected"]
assert d["speedup_4x_vs_1"] >= 2.0, "4-ring ingest speedup below 2x"
rows = d["rows"]
assert len(rows) >= 3
rings = [r["rings"] for r in rows]
assert 1 in rings and 4 in rings, "ring sweep must cover 1 and 4 rings"
assert len(d["broadcast_digest"]) == 64
for r in rows:
    for key in ("rings", "makespan_ns", "deposits_per_sec",
                "broadcast_digest", "routed_digest", "published"):
        assert key in r, key
    assert r["broadcast_digest"] == d["broadcast_digest"], "digest diverged"
    assert r["routed_digest"] == d["routed_digest"], "routed digest diverged"
    assert r["root_ok"] and r["tamper_detected"] and r["published"] > 0
PY
fi

echo "==> exp_standing_query --quick (asserts flat cached-window scans, identical answers)"
cargo run --release -p dla-bench --bin exp_standing_query -- --quick >/dev/null
if command -v jq >/dev/null 2>&1; then
    jq -e '
        .experiment == "standing_query"
        and .federated_identical
        and (.federated_published > 0)
        and (.rows | length >= 2)
        and (.rows | all(has("records") and has("cached_fragments")
                         and has("rescan_fragments") and has("epochs_cached")
                         and has("identical") and has("standing_identical")))
        and (.rows | all(.identical and .standing_identical))
        and (.rows | all(.epochs_cached > 0))
        and (.rows | all(.cached_fragments == $top.cached_fragments))
        and (.rows | all(.rescan_fragments == .records))
        and ((.rows | last).rescan_fragments > (.rows | last).cached_fragments)
    ' --argjson top "$(jq '{cached_fragments}' BENCH_standing_query.json)" \
        BENCH_standing_query.json >/dev/null
else
    python3 - <<'PY'
import json
d = json.load(open("BENCH_standing_query.json"))
assert d["experiment"] == "standing_query"
assert d["federated_identical"], "federated standing answers diverged"
assert d["federated_published"] > 0, "seals must push checkpoints unpolled"
rows = d["rows"]
assert len(rows) >= 2
for r in rows:
    for key in ("records", "cached_fragments", "rescan_fragments",
                "epochs_cached", "identical", "standing_identical"):
        assert key in r, key
    assert r["identical"], "cached aggregate diverged from rescan"
    assert r["standing_identical"], "standing deltas diverged from fresh query"
    assert r["epochs_cached"] > 0, "window must hit cached epochs"
    assert r["cached_fragments"] == d["cached_fragments"], \
        "cached-window scan work must stay flat as the trail grows"
    assert r["rescan_fragments"] == r["records"], "rescan touches every fragment"
assert rows[-1]["rescan_fragments"] > rows[-1]["cached_fragments"], \
    "rescan must do strictly more scan work at the longest trail"
PY
fi

echo "==> dla-cluster smoke run (4 app + 3 infrastructure node processes)"
cargo run --release -p dla-deploy --bin dla-cluster -- --nodes 4 --records 8 --seed 7 \
    | grep -q "CLUSTER OK"

echo "==> exp_socket_e2e --quick (asserts socket answers match in-process)"
cargo run --release -p dla-bench --bin exp_socket_e2e -- --quick >/dev/null
if command -v jq >/dev/null 2>&1; then
    jq -e '
        .experiment == "socket_e2e"
        and (.mode == "process" or .mode == "thread")
        and .answers_identical
        and (.digest | length == 64)
        and (.tcp_deposits_per_sec > 0)
        and (.channel_deposits_per_sec > 0)
        and (.rows | length == 5)
        and (.rows | all(has("protocol") and has("tcp_ms") and has("channel_ms")))
        and ([.rows[].protocol] | sort
             == ["equality", "ranking", "ssi", "sum", "union"])
    ' BENCH_socket_e2e.json >/dev/null
else
    python3 - <<'PY'
import json
d = json.load(open("BENCH_socket_e2e.json"))
assert d["experiment"] == "socket_e2e"
assert d["mode"] in ("process", "thread")
assert d["answers_identical"], "socket answers must match in-process"
assert len(d["digest"]) == 64
assert d["tcp_deposits_per_sec"] > 0 and d["channel_deposits_per_sec"] > 0
rows = d["rows"]
assert len(rows) == 5
for r in rows:
    for key in ("protocol", "tcp_ms", "channel_ms"):
        assert key in r, key
assert sorted(r["protocol"] for r in rows) == [
    "equality", "ranking", "ssi", "sum", "union"
]
PY
fi

echo "==> chrome-trace export validates as JSON"
cargo run --release --example telemetry_trace >/dev/null
if command -v jq >/dev/null 2>&1; then
    jq -e . telemetry_trace.json >/dev/null
else
    python3 -m json.tool telemetry_trace.json >/dev/null
fi

echo "CI OK"
