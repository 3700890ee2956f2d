#!/bin/sh
# Non-test code lines per file and per crate under crates/*/src: the lines
# before a file's first line starting with `#[cfg(test)]` (its test module)
# that are neither blank nor, indentation aside, start with `//` (so doc
# comments do not count). ROADMAP's house rule and the per-file
# tables in CHANGES.md quote these numbers.
#
# usage: scripts/loc.sh [--max N PREFIX] [repo-root]
#
# With `--max N PREFIX` the whole table is still printed; then every file
# whose path starts with PREFIX and has more than N such lines is named on
# stderr and the exit status is non-zero (CI's ceiling on crates/lsm/src).
max=0 prefix=
if [ "$1" = --max ]; then
    max=$2 prefix=$3
    shift 3
fi
cd "${1:-$(dirname "$0")/..}" || exit 1
find crates/*/src -name '*.rs' | sort | xargs awk -v max="$max" -v prefix="$prefix" '
    FNR == 1 { in_tests = 0 }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    !in_tests && !/^[ \t]*$/ && !/^[ \t]*\/\// {
        file[FILENAME]++
        split(FILENAME, part, "/")
        crate[part[1] "/" part[2] "/" part[3]]++
    }
    END {
        for (f in file) printf "%6d  %s\n", file[f], f | "sort -k2"
        close("sort -k2")
        for (c in crate) { printf "%6d  %s (total)\n", crate[c], c | "sort -k2"; all += crate[c] }
        close("sort -k2")
        printf "%6d  crates/*/src (total)\n", all
        for (f in file) if (max > 0 && index(f, prefix) == 1 && file[f] > max) {
            printf "%s: %d non-test lines, over the ceiling of %d\n", f, file[f], max | "sort >&2"
            over = 1
        }
        exit over
    }'
