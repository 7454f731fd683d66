#!/usr/bin/env bash
# The frozen-benchmark guard, plus the number a simplicity PR has to beat.
#
# BENCHMARK.json and everything under benchmark/ are a contract PRs
# measure with and may not edit (ROADMAP.md). Building benchmark/ in-tree
# rewrites its tracked, stale Cargo.lock, so restore it first:
#
#   git checkout benchmark/Cargo.lock && scripts/check_frozen.sh <base-ref>
#
# Fails unless both are byte-identical to <base-ref> (committed state
# *and* working tree) and nothing untracked sits under benchmark/. Then
# prints the non-test line count of the working tree and of <base-ref>,
# and the delta, per crate and in total: over crates/*/src/**/*.rs, the
# lines before each file's test module — a column-0 `#[cfg(test)]`
# directly followed by a `mod tests` of any visibility (`pub(crate) mod
# tests` included). (Any other `#[cfg(test)]` item, such as a test-only
# builder, is counted: it is still code in the file.)
#
# Usage: scripts/check_frozen.sh <base-ref>     (e.g. HEAD~1, origin/main)
set -euo pipefail

base=${1:?usage: scripts/check_frozen.sh <base-ref>}
cd "$(git rev-parse --show-toplevel)"

if ! git diff --quiet "$base" -- BENCHMARK.json benchmark/; then
    echo "check_frozen: BENCHMARK.json or benchmark/ differs from $base:" >&2
    git diff --stat "$base" -- BENCHMARK.json benchmark/ >&2
    exit 1
fi
dirty=$(git status --porcelain -- BENCHMARK.json benchmark/)
if [ -n "$dirty" ]; then
    echo "check_frozen: uncommitted or untracked files under the frozen paths:" >&2
    echo "$dirty" >&2
    exit 1
fi
echo "check_frozen: BENCHMARK.json and benchmark/ identical to $base"

# Non-test lines under $1/src/**/*.rs, for a crate directory $1 (0 if
# the crate does not exist there).
non_test_lines() {
    local total=0 n f
    [ -d "$1/src" ] || { echo 0; return; }
    while IFS= read -r -d '' f; do
        n=$(awk '/^(pub(\([a-z]+\))? )?mod tests/ && prev ~ /^#\[cfg\(test\)\]/ {c--; exit}
                 {c++; prev = $0} END {print c + 0}' "$f")
        total=$((total + n))
    done < <(find "$1/src" -name '*.rs' -print0)
    echo "$total"
}

base_tree=$(mktemp -d)
trap 'rm -rf "$base_tree"' EXIT
git archive "$base" crates | tar -x -C "$base_tree"
echo "non-test lines under crates/*/src, per crate: now, $base, delta"
now=0 was=0
for crate in $( (ls crates; ls "$base_tree/crates") | sort -u); do
    a=$(non_test_lines "crates/$crate") b=$(non_test_lines "$base_tree/crates/$crate")
    printf '  %-10s %6d %6d %+6d\n' "$crate" "$a" "$b" $((a - b))
    now=$((now + a)) was=$((was + b))
done
echo "non-test lines under crates/*/src: $now ($base: $was, delta $((now - was)))"
