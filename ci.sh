#!/usr/bin/env bash
# Full CI gate: release build, tests, lints, doc links, formatting.
set -euo pipefail
cd "$(dirname "$0")"

# One line count for every change that removes code: the lines of each
# .rs file under crates/*/src up to its first #[cfg(test)], without the
# files of test-only modules. Printed, not gated.
#
# A test-only module is a `mod x;` declared under #[cfg(test)] (on its
# line or the line before): its file, x.rs beside the declaring lib.rs
# or mod.rs or in the declaring file's own directory, is test code whole.
test_only_modules() {
    find crates/*/src -name '*.rs' -exec awk '
        FNR == 1 { prev = "" }
        (prev ~ /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ || /#\[cfg\(test\)\][[:space:]]*(pub[^ ]* )?mod /) &&
            /^[^\/]*mod [a-z0-9_]+;/ {
            name = $0; sub(/.*mod /, "", name); sub(/;.*/, "", name)
            dir = FILENAME; sub(/[^\/]*$/, "", dir)
            file = FILENAME; sub(/.*\//, "", file)
            if (file != "lib.rs" && file != "mod.rs" && file != "main.rs") {
                sub(/\.rs$/, "", file); dir = dir file "/"
            }
            print dir name ".rs"
        }
        { prev = $0 }' {} +
}
test_only=$(test_only_modules)
non_test_lines() {
    find "$@" -name '*.rs' | grep -vxF -e "${test_only:-/}" | xargs awk '
        FNR == 1 { stop = 0 } /#\[cfg\(test\)\]/ { stop = 1 } !stop { n++ } END { print n + 0 }' |
        awk '{ s += $1 } END { print s }'
}
echo "test-only modules, not counted: $(echo $test_only)"
echo "non-test lines under crates/: $(non_test_lines crates/*/src)"
# The runtime crates: every crate but dla-bench, whose figures,
# experiments and paper/ mechanisms no deployment runs.
runtime=()
for src in crates/*/src; do
    [ "$src" = crates/bench/src ] || runtime+=("$src")
done
echo "non-test lines in the runtime crates: $(non_test_lines "${runtime[@]}")"
# The same count per crate, so a change shows where it deleted code.
for src in crates/*/src; do
    echo "    ${src%/src}: $(non_test_lines "$src")"
done

echo "==> every DESIGN §N citation names a section, and a cited *Title* is text in it"
# Citations in code, tests, ci.sh, README.md and ROADMAP.md:
# `DESIGN §N` or `DESIGN.md §N` (also `§8/§13`), optionally followed by
# an italic `*Title*`. A section is its `## N.` heading through the
# line before the next `## ` heading; the title must appear in it,
# whitespace folded, so a renamed or renumbered section fails here.
git ls-files '*.rs' ci.sh README.md ROADMAP.md | xargs perl -e '
    # Section N of DESIGN.md: its heading line through the line before the next "## ".
    open my $fh, "<", "DESIGN.md" or die "DESIGN.md: $!";
    my ($n, %section);
    while (<$fh>) {
        $n = $1 if /^## (\d+)\./;
        $n = undef if /^## / && !/^## \d+\./;
        $section{$n} .= $_ if defined $n;
    }
    s/\s+/ /g for values %section;
    my $bad = 0;
    for my $file (@ARGV) {
        open my $in, "<", $file or die "$file: $!";
        # One line of text per file: comment markers and indentation
        # dropped, so a citation wrapped over two lines reads whole.
        my $text = join " ", map { s{^\s*(?://[/!]?|#)?\s*}{}r } <$in>;
        $text =~ s/\s+/ /g;
        while ($text =~ /DESIGN(?:\.md)? §(\d+)((?:\/§\d+)*)(?: \*([^*]+)\*)?/g) {
            my ($first, $more, $title) = ($1, $2, $3);
            my @cited = ($first, $more =~ /(\d+)/g);
            for my $s (@cited) {
                next if exists $section{$s};
                print STDERR "$file: DESIGN §$s has no heading\n";
                $bad = 1;
            }
            next unless defined $title && exists $section{$cited[-1]};
            next if index($section{$cited[-1]}, $title) >= 0;
            print STDERR "$file: DESIGN §$cited[-1] has no *$title*\n";
            $bad = 1;
        }
    }
    exit $bad;
'

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> bigint, crypto and word-element differential properties in release"
# The lane kernels run only where the CPU has their AVX-512 features;
# elsewhere the lanes = scalar properties compare the scalar kernel with
# itself, so say which this was.
if grep -qw avx512ifma /proc/cpuinfo 2>/dev/null; then
    echo "    walk lane kernel live: avx512ifma present, lanes = scalar is checked"
else
    echo "    walk lane kernel not live: no avx512ifma, only the scalar kernel is checked"
fi
if grep -qw avx512cd /proc/cpuinfo 2>/dev/null && grep -qw avx512_vbmi2 /proc/cpuinfo; then
    echo "    Jacobi lane kernel live: avx512cd and avx512_vbmi2 present, lanes = scalar is checked"
else
    echo "    Jacobi lane kernel not live: only the scalar loop is checked"
fi
# The comb's 70 000-bit cases and the epoch-long fold_batch rows: the
# debug pass above runs them against dev-profile test code, this one
# with the arithmetic the benchmark runs (overflow wraps, no debug
# assertions), and it stays seconds however the debug pass is trimmed.
# The word element's codec and collectors (dla-mpc's word_properties:
# round trip, refusals and total decoding on three domains, the
# collectors against BTreeSets of words) run here too.
cargo test -q --release -p dla-bigint -p dla-crypto --test properties
cargo test -q --release -p dla-mpc --lib word_properties

echo "==> tcp_transport in release, then again pinned to one CPU; the channel's wake tests, warm_cold, concurrent_queries and the history checker pinned too"
cargo test -q --release -p dla-net --test tcp_transport
if command -v taskset >/dev/null 2>&1; then
    # One CPU is the schedule the benchmark measures, and the one where
    # hand-off ordering bugs in the socket transport surface — and where
    # a channel's sender and its parked receiver share the CPU, and
    # concurrent auditors interleave with each other's lookups of what
    # the engine keeps and with each other's per-query traffic counts.
    # The history checker is where every front door meets duplicates
    # and torn node writes at once.
    taskset -c 0 cargo test -q --release -p crossbeam
    taskset -c 0 cargo test -q --release -p dla-net --test tcp_transport
    taskset -c 0 cargo test -q --release --test warm_cold
    taskset -c 0 cargo test -q --release -p dla-audit --test concurrent_queries
    taskset -c 0 cargo test -q --release -p dla-audit --test history
fi

echo "==> mutants: each committed defect fails the test its patch names"
# crates/audit/tests/mutants/: one patch per seam defect, applied to a
# throwaway copy built in release with its own target directory; the
# step's wall time, the copy's workspace build included, is printed.
mutants_start=$SECONDS
crates/audit/tests/mutants/run.sh
echo "    mutants step: $((SECONDS - mutants_start)) s wall"

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
# telemetry_trace.json is the example's trace of Table 1's deposits and
# three paper queries: a query runs on the thread that asks it, so span
# ids and the merge order are the same every run, and a moved span fails
# here. The benchmark is frozen: a build that rewrites
# benchmark/Cargo.lock — a crate's dependency list moved — fails here
# instead of slipping through.
git diff --exit-code -- 'BENCH_*.json' telemetry_trace.json benchmark BENCHMARK.json

echo "==> the eleven binaries with a golden printed their committed stdout"
# Paper tables, figures and metric sweeps: a moved value fails here, not
# only a run that disagrees with itself. A PR that moves one on purpose
# commits the new crates/bench/golden/<binary>.txt and says why.
for binary in tables_1_to_6 fig1_centralized fig2_architecture fig3_query_plan fig4_ssi_trace \
    exp_tradeoff exp_metrics fig6_evidence_chain fig7_rbinding exp_sum_scaling exp_rank_scaling; do
    diff -u "crates/bench/golden/$binary.txt" "$passes/first/$binary"
done

# Five EXPERIMENTS.md sections quote a table a binary printed: the
# markdown block between `<!-- <binary> <marker>: begin -->` and its
# `end` comment must be the `|` rows of that binary's stdout, all of it
# or the section the sed range picks (exp_standing_query prints its
# shared-rule askers last, after a P16b title; exp_adversary prints the
# detection rows first, and the collusion table after them stays ASCII).
# A figure edited by hand, or a table that moved without its quote,
# fails here.
quotes=(
    "P8 exp_fault_recovery sweep 1,\$"
    "P16b exp_standing_query shared_rule /^P16b/,\$"
    "P13 exp_adversary detection /^ADVERSARY DETECTION/,/^honest baseline/"
    "P14 exp_federation scaling 1,\$"
    "P11 exp_epoch_scaling scaling 1,\$"
)
for quote in "${quotes[@]}"; do
    read -r section binary marker range <<<"$quote"
    echo "==> EXPERIMENTS.md $section quotes the $marker table $binary printed"
    diff -u <(sed -n "/<!-- $binary $marker: begin -->/,/<!-- $binary $marker: end -->/p" \
        EXPERIMENTS.md | grep '^|') <(sed -n "${range}p" "$passes/first/$binary" | grep '^|')
done

echo "CI OK"
