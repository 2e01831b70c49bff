#!/bin/sh
# Diff two BENCH_simspeed.json result files point by point: kernel
# speedups and absolute cycles-per-host-second. Informational by default;
# pass --strict[=TOL] as the third argument to fail on a speedup drop
# beyond TOL (same-host A/B runs only — cross-host absolute numbers
# are not comparable at gate precision).
#
# Usage: scripts/bench_compare.sh <baseline.json> <candidate.json> [--strict[=TOL]]
set -eu

cd "$(dirname "$0")/.."

if [ ! -x target/release/bench_compare ]; then
    cargo build --release --quiet -p nicsim-bench --bin bench_compare
fi
exec target/release/bench_compare "$@"
