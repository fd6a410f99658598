#!/usr/bin/env bash
# Mutation check: each *.patch in this directory puts back one defect the
# test suite is meant to catch, and names the test that must catch it on
# a line `Killed by: <cargo test arguments>`.
#
# For each patch the runner applies it to a throwaway copy of the working
# tree (tracked and untracked files, minus what .gitignore lists), builds
# in release with a target directory of its own, runs the history checker
# (`-p dla-audit --test history`) and the named test, and reverts the
# patch. It fails if a patch no longer applies, if a mutant does not
# build, or if the named test passes on a mutant. Whether the history
# checker caught the mutant too is reported, not required.
#
# Usage: crates/audit/tests/mutants/run.sh [PATCH...]   (default: all)
# MUTANTS_DIR=<dir> keeps the copy and its target directory there between
# runs, with each mutant's build log; by default both live in a temporary
# directory removed on exit.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(git -C "$here" rev-parse --show-toplevel)
if [ -n "${MUTANTS_DIR:-}" ]; then
    work=$MUTANTS_DIR
    mkdir -p "$work"
else
    work=$(mktemp -d)
    trap 'rm -rf "$work"' EXIT
fi
tree=$work/tree
export CARGO_TARGET_DIR=$work/target

if [ $# -gt 0 ]; then
    patches=("$@")
else
    patches=("$here"/*.patch)
fi

# A fresh copy each run, every file stamped now (`tar -m`), so no artifact
# an earlier run built from a mutant is taken for this copy's. Within a
# run, a reverted patch leaves its file newer than the mutant's build, so
# cargo rebuilds what each patch touched.
rm -rf "$tree"
mkdir -p "$tree"
(cd "$root" && git ls-files -z --cached --others --exclude-standard |
    tar --null -T - --ignore-failed-read -cf -) | tar -C "$tree" -xmf -
# A repository of its own, so `git apply` reads the patch's paths from the
# copy's root wherever MUTANTS_DIR is.
git -C "$tree" init -q

start=$(date +%s)
failed=0
for patch in "${patches[@]}"; do
    patch=$(cd "$(dirname "$patch")" && pwd)/$(basename "$patch")
    name=$(basename "$patch" .patch)
    read -r -a named < <(sed -n 's/^Killed by: //p' "$patch")
    if [ ${#named[@]} -eq 0 ]; then
        echo "$name: no 'Killed by:' line" >&2
        failed=1
        continue
    fi
    if ! git -C "$tree" apply "$patch"; then
        echo "$name: the patch no longer applies; re-express it against the code" >&2
        failed=1
        continue
    fi
    log=$work/$name.log
    if ! (cd "$tree" && cargo test -q --release -p dla-audit --test history --no-run &&
        cargo test -q --release --no-run "${named[@]}") >"$log" 2>&1; then
        echo "$name: the mutant does not build (see $log)" >&2
        failed=1
    else
        history=survived
        (cd "$tree" && cargo test -q --release -p dla-audit --test history) >>"$log" 2>&1 ||
            history=killed
        test=survived
        (cd "$tree" && cargo test -q --release "${named[@]}") >>"$log" 2>&1 || test=killed
        printf '%-36s history: %-8s named test: %s\n' "$name" "$history" "$test"
        if [ "$test" = survived ]; then
            echo "$name: the named test passed on the mutant: ${named[*]}" >&2
            failed=1
        fi
    fi
    git -C "$tree" apply -R "$patch"
done
echo "mutants: ${#patches[@]} in $(($(date +%s) - start)) s"
exit "$failed"
