#!/bin/sh
# Rust line counts per crate and overall: total, and non-test (outside
# tests/ directories and before a file's first #[cfg(test)]). The root
# package (src/, tests/, examples/) is the last row before the total;
# perf/ is a separate workspace and is not counted.
#
# Usage: scripts/loc.sh
set -eu

cd "$(dirname "$0")/.."

count() {
    find "$@" -name '*.rs' | sort | xargs awk '
        FNR == 1 { test = FILENAME ~ /(^|\/)tests\// }
        /#\[cfg\(test\)\]/ { test = 1 }
        { total++; if (!test) code++ }
        END { printf "%d %d\n", total, code }'
}

printf '%-18s %8s %9s\n' crate total non-test
for dir in crates/*/; do
    printf '%-18s %8d %9d\n' "$(basename "$dir")" $(count "$dir")
done
printf '%-18s %8d %9d\n' "(root package)" $(count src tests examples)
printf '%-18s %8d %9d\n' total $(count crates src tests examples)
