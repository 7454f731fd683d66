#!/usr/bin/env bash
# Agreement self-test: two sets of RUNS timed runs per workload, every
# run a fresh process with its own seed, then the acceptance rule of
# BENCHMARK.json applied to them (`benchmark --compare`): each set's
# interquartile spread within the metric's bound, and the second set's
# median no worse than the first's by more than the bound.
#
#   benchmark/agree.sh [RUNS [SECONDS]]      # from the repo root
#
# RUNS defaults to 10 and SECONDS to run_seconds of BENCHMARK.json (10);
# the default takes about 25 minutes on 2 CPUs.
set -euo pipefail
cd "$(dirname "$0")/.."

runs=${1:-10}
seconds=${2:-10}
out=benchmark/out
mkdir -p "$out"

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin=${CARGO_TARGET_DIR:-benchmark/target}/release/benchmark

for set in 1 2; do
    : > "$out/agree-$set.jsonl"
    for workload in sync-churn page-sparse page-dense ledger paper-suite; do
        for i in $(seq 1 "$runs"); do
            seed=$((1000 * set + i))
            result=$("$bin" --workload "$workload" --seed "$seed" \
                --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1)
            echo "$workload $seed $result" >> "$out/agree-$set.jsonl"
        done
        echo "set $set: $workload done" >&2
    done
done

"$bin" --compare "$out/agree-1.jsonl" "$out/agree-2.jsonl"
