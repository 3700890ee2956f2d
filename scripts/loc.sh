#!/bin/sh
# Non-test code lines per file and per crate under crates/*/src: the lines
# before a file's first line starting with `#[cfg(test)]` (its test module)
# that are neither blank nor, indentation aside, start with `//` (so doc
# comments do not count). ROADMAP's house rule and the per-file
# tables in CHANGES.md quote these numbers.
#
# usage: scripts/loc.sh [repo-root]
cd "${1:-$(dirname "$0")/..}" || exit 1
find crates/*/src -name '*.rs' | sort | xargs awk '
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
    }'
