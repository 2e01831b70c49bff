#!/bin/sh
# Rust line counts per crate and overall: total, and non-test (outside
# tests/ directories and before a file's first #[cfg(test)]). The root
# package (src/, tests/, examples/) is the last row before the total;
# perf/ is a separate workspace and is not counted.
#
# With a revision, each row also carries the same two counts for <rev>
# — taken from `git archive <rev>` unpacked into a temporary directory —
# and the working tree's difference from them.
#
# Usage: scripts/loc.sh [<rev>]
set -eu

cd "$(dirname "$0")/.."

rev=${1:-}
rev_tree=
if [ -n "$rev" ]; then
    rev_tree=$(mktemp -d)
    trap 'rm -rf "$rev_tree"' EXIT
    git archive "$rev" | tar -x -C "$rev_tree"
fi

# count <tree> <dir>...: "total non-test" over the tree's .rs files
# under the directories (a directory the tree lacks counts as empty).
count() {
    (
        cd "$1"
        shift
        find "$@" -name '*.rs' 2>/dev/null | sort | xargs awk '
            FNR == 1 { test = FILENAME ~ /(^|\/)tests\// }
            /#\[cfg\(test\)\]/ { test = 1 }
            { total++; if (!test) code++ }
            END { printf "%d %d\n", total, code }'
    )
}

# row <name> <dir>...: one table row.
row() {
    name=$1
    shift
    here=$(count . "$@")
    if [ -z "$rev" ]; then
        printf '%-18s %8d %9d\n' "$name" $here
    else
        there=$(count "$rev_tree" "$@")
        printf '%-18s %8d %9d %8d %9d %+8d %+9d\n' "$name" $here $there \
            $((${here% *} - ${there% *})) $((${here#* } - ${there#* }))
    fi
}

if [ -z "$rev" ]; then
    printf '%-18s %8s %9s\n' crate total non-test
else
    printf '%-18s %18s %18s %18s\n' '' 'working tree' "$rev" delta
    printf '%-18s %8s %9s %8s %9s %8s %9s\n' crate \
        total non-test total non-test total non-test
fi
for name in $(ls -d crates/*/ ${rev_tree:+"$rev_tree"/crates/*/} | xargs -n 1 basename | sort -u); do
    row "$name" "crates/$name"
done
row "(root package)" src tests examples
row total crates src tests examples
