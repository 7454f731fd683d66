#!/usr/bin/env bash
# Emits the in-repo perf record (schema rfdet-bench-json/3) and the two
# results/*_scaling.txt curves. The table in
# crates/bench/src/bin/bench_json.rs is the list of cells and budgets.
#
# Usage: scripts/bench_json.sh [--quick] [--out PATH] [--enforce]
#   --quick    shrink measurement time for CI smoke runs
#   --out      output path (default: bench.json in the working directory)
#   --enforce  exit non-zero when a budget reads FAIL
set -euo pipefail
cd "$(dirname "$0")/.."
cargo run --release -p rfdet-bench --bin bench_json -- "$@"
