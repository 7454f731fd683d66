#!/usr/bin/env bash
# Regenerates BENCH_10.json — machine-readable micro-bench numbers for
# the memory-pipeline fast path (chunked diff kernel, zero-copy
# propagation, snapshot pooling) plus the turn-arbitration scaling
# curve (successor handoff on sync-heavy: the 2/4/8/16-thread table and
# the 16t/8t regression guard, see DESIGN.md §4.10), the
# flight-recorder A/B (cfg.trace on vs off; budget <5% recording, ~0
# disabled, see DESIGN.md §4.8), the metrics-layer A/B (cfg.metrics on vs off;
# budget <2% collecting, one branch per timed site disabled, see
# DESIGN.md §4.9), and the lazy-vs-eager writes A/B with its
# 2/4/8/16-thread scaling curve (budget: lazy ≤ 1.05× eager on
# propagate-heavy at 4 threads, see DESIGN.md §4.5), and the
# sharded-replay wall-time A/B (serial vs parallel per-window shard
# replay of a checkpointed long-haul run, digest-verified; budget:
# sharded ≤ 1.15× serial, see DESIGN.md §4.11), the replicated-service
# throughput sweep (service.ledger at bench scale, ≥1M requests per
# run, req/s over 2/4/8/16 threads) and the crash-failover recovery
# cell (restore newest checkpoint + replay the tail; budget ≤0.6× the
# full re-run, see DESIGN.md §4.12), and the race-detector A/B
# (cfg.detect_races on vs off on propagate-heavy; budget ≤10%, see
# DESIGN.md §4.13). Also writes the human-readable
# curves to results/thread_scaling.txt and
# results/sync_heavy_scaling.txt.
#
# Usage: scripts/bench_json.sh [--quick] [--out PATH] [--enforce]
#   --quick    shrink measurement time for CI smoke runs
#   --out      output path (default: BENCH_10.json at the repo root)
#   --enforce  exit non-zero on any within-run budget breach (the CI
#              scaling job's regression gate)
set -euo pipefail
cd "$(dirname "$0")/.."
cargo run --release -p rfdet-bench --bin bench_json -- "$@"
