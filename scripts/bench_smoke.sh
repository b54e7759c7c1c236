#!/usr/bin/env bash
# Reduced substrate bench: old-vs-new microbenchmarks plus a small E1/E6
# sweep, written to BENCH_substrate.json at the repo root, the E11
# sweep-scaling row (jobs=1 vs jobs=all), written to BENCH_sweep.json,
# the E12 observability-overhead row (metrics on vs off), written to
# BENCH_obs.json, the E13 max_digis_per_sec scaling row (shared pools
# vs per-digi timers at 10k/100k/1M), written to BENCH_scale.json, and
# the E14 islands_speedup row (one sim space-partitioned across island
# kernels, 1 worker vs one per core), written to BENCH_islands.json.
#
# Usage: scripts/bench_smoke.sh [out.json] [sweep_out.json] [obs_out.json] [scale_out.json] [islands_out.json]
set -euo pipefail
cd "$(dirname "$0")/.."

exec cargo run --release -p digibox-bench --bin bench_smoke -- \
    "${1:-BENCH_substrate.json}" "${2:-BENCH_sweep.json}" "${3:-BENCH_obs.json}" \
    "${4:-BENCH_scale.json}" "${5:-BENCH_islands.json}"
