#!/bin/sh
# One checksum per `repro` registry entry over the quick-mode output
# that `NICSIM_QUICK=1 NICSIM_RESULTS_DIR=DIR repro all >DIR/stdout.txt`
# leaves in DIR, one `name crc bytes` line each, sorted by name:
# * an entry's DIR/<name>.json, without the lines that differ between
#   two runs of the same code (wall time, worker count, git stamp and
#   trace file path);
# * `fleet`, which writes no file in quick mode: the result lines it
#   prints (from its `uniform: N NICs` line to its quick-mode notice),
#   which hold its per-shard identity, delivered and dropped counts and
#   digests, and no timing.
# scripts/check.sh compares the lines with scripts/quick_digests.txt.
# A change that moves the model rewrites that file with this script's
# output and says in CHANGES.md which entries moved and why.
#
# Usage: scripts/quick_digests.sh DIR
set -eu

dir=$1
{
    for f in "$dir"/*.json; do
        name=$(basename "$f" .json)
        # BENCH_trace's Chrome trace export, not a results file.
        [ "$name" = trace_events ] && continue
        sum=$(grep -v -e '"wall_s":' -e '"jobs":' -e '"git":' -e '"trace_file":' "$f" | cksum)
        echo "$name $sum"
    done
    echo "fleet $(awk '/^uniform: [0-9]+ NICs/, /^quick mode:/' "$dir/stdout.txt" | cksum)"
} | LC_ALL=C sort
