#!/bin/sh
# The unsafe sites of record: per file under crates/*/src, the non-test lines
# that use the `unsafe` keyword (blocks, `unsafe fn`, `unsafe impl`), by
# loc.sh's rule — the lines before a file's first line starting with
# `#[cfg(test)]`, comment lines skipped. Each file's non-test `Relaxed` count
# is printed beside it, for information only: the orderings a sanitizer or
# schedule search must vouch for. ROADMAP item 16 and CHANGES.md quote these
# numbers.
#
# usage: scripts/unsafe.sh [--max N] [repo-root]
#
# The table is always printed (files with neither word are left out); with
# `--max N` a total of unsafe sites above N is named on stderr and the exit
# status is non-zero (CI's ceiling).
max=-1
if [ "$1" = --max ]; then
    max=$2
    shift 2
fi
cd "${1:-$(dirname "$0")/..}" || exit 1
find crates/*/src -name '*.rs' | sort | xargs awk -v max="$max" '
    FNR == 1 { in_tests = 0 }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    !in_tests && !/^[ \t]*\/\// {
        if (/(^|[^A-Za-z0-9_])unsafe([^A-Za-z0-9_]|$)/) { sites[FILENAME]++; seen[FILENAME] = 1 }
        if (/(^|[^A-Za-z0-9_])Relaxed([^A-Za-z0-9_]|$)/) { relaxed[FILENAME]++; seen[FILENAME] = 1 }
    }
    END {
        printf "%6s  %7s  %s\n", "unsafe", "Relaxed", "file"
        for (f in seen) printf "%6d  %7d  %s\n", sites[f], relaxed[f], f | "sort -k3"
        close("sort -k3")
        for (f in sites) total += sites[f]
        printf "%6d  %7s  (total)\n", total, ""
        if (max >= 0 && total > max) {
            printf "%d unsafe sites, over the ceiling of %d\n", total, max | "cat >&2"
            exit 1
        }
    }'
