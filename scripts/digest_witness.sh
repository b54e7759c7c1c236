#!/usr/bin/env bash
# Digest-equality witness: builds `dbox` and prints one `sha256  label`
# line per determinism digest — chaos scorecards, sweep reports, a
# library scene's stats snapshot and trace archive, and the E1/E2 bench
# rows. Run it at two commits and diff the tables: a change that claims
# to keep behaviour must reproduce every line. scripts/digest_witness.txt
# holds the table of the current tree; CI diffs the output against it.
#
# Usage: scripts/digest_witness.sh
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD

cargo build --release -q -p digibox-cli
dbox=$root/target/release/dbox
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Hash a file under a label.
emit() {
    printf '%s  %s\n' "$(sha256sum < "$1" | cut -d' ' -f1)" "$2"
}

# Run a command, hash its stdout plus its exit code under a label.
witness() {
    local label=$1
    shift
    local code=0
    "$@" > "$tmp/out" || code=$?
    echo "exit=$code" >> "$tmp/out"
    emit "$tmp/out" "$label"
}

witness "chaos --seeds 1,2,3" \
    "$dbox" chaos --seeds 1,2,3 --format json
witness "chaos --seeds 1,2,3 --islands 2" \
    "$dbox" chaos --seeds 1,2,3 --islands 2 --format json
witness "sweep --seeds 1..8 --secs 10" \
    "$dbox" sweep --seeds 1..8 --secs 10 --format json
witness "sweep --seeds 1..4 --secs 10 --pool Occupancy:P:100 --islands 2" \
    "$dbox" sweep --seeds 1..4 --secs 10 --pool Occupancy:P:100 --islands 2 --format json
witness "sweep --seeds 1,2 --secs 10 --pool Occupancy:P:5000" \
    "$dbox" sweep --seeds 1,2 --secs 10 --pool Occupancy:P:5000 --format json

# The CI stats-smoke scene, in a throwaway session directory.
(
    cd "$tmp"
    "$dbox" run Occupancy O1 --managed > /dev/null
    "$dbox" run Lamp L1 > /dev/null
    "$dbox" run Room R1 > /dev/null
    "$dbox" attach O1 R1 > /dev/null
    "$dbox" attach L1 R1 > /dev/null
    "$dbox" sim 30 > /dev/null
    "$dbox" stats --format json > stats.json
    "$dbox" export-trace trace.dbxt > /dev/null
)
emit "$tmp/stats.json" "stats-smoke: stats --format json"
emit "$tmp/trace.dbxt" "stats-smoke: export-trace"

# The E1/E2 report rows (simulated latency: mean, p50, p99, n).
for bench in e1_local_latency e2_cluster_latency; do
    cargo bench -q -p digibox-bench --bench "$bench" 2> "$tmp/bench.err" > /dev/null
    grep '^\[E[12] ' "$tmp/bench.err" > "$tmp/row"
    emit "$tmp/row" "bench $bench row"
done
