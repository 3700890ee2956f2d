#!/bin/sh
# Every file the prose points at exists: each backticked `crates/…`,
# `tests/…`, `examples/…` or `scripts/…` path and each `*.md` file name
# mentioned by ARCHITECTURE.md, README.md or a crate's `//!` module docs.
# A path is taken up to its first space or `::` (so `scripts/loc.sh --max
# 520` and `tests/x.rs::a_test` check the file); an example may be named
# without its `.rs`; a pattern (`{a,b}.rs`, `*`, `<n>`) is not a path and
# is skipped. Names every dangling reference on stderr and exits non-zero.
#
# usage: scripts/check-doc-paths.sh [repo-root]
cd "${1:-$(dirname "$0")/..}" || exit 1
docs=$(
    cat ARCHITECTURE.md README.md
    find src crates/*/src -name '*.rs' | sort | xargs grep -h '^[[:space:]]*//!'
)
paths=$(
    printf '%s\n' "$docs" | grep -o '`[^`]*`' | tr -d '`' |
        grep -E '^(crates|tests|examples|scripts)/' | grep -v '[{*<]' |
        sed -e 's/ .*//' -e 's/::.*//'
    printf '%s\n' "$docs" | grep -oE '[A-Za-z0-9_./-]*[A-Za-z0-9_-]\.md\b'
)
missing=0
for p in $(printf '%s\n' "$paths" | sort -u); do
    if [ ! -e "$p" ] && [ ! -e "$p.rs" ]; then
        echo "dangling doc reference: $p" >&2
        missing=1
    fi
done
exit $missing
