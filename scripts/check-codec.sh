#!/bin/sh
# One byte codec: every binary format decodes through
# `learned_index::codec::Reader` (re-exported as `lsm_tree::codec`). This
# lists every non-test `from_le_bytes` under crates/*/src — the lines before
# a file's first line starting with `#[cfg(test)]`, as scripts/loc.sh counts
# them, comment lines aside — with the function it sits in, and fails on any
# outside the three places the codec's module doc keeps out of it:
#
#   crates/learned/src/codec.rs             the codec itself
#   crates/lsm/src/wal.rs, crc32_tables     the CRC kernel's word loads
#   crates/lsm/src/sstable/format.rs,       the fixed-width entry slot the
#     decode_header                         in-segment search reads per probe
#
# usage: scripts/check-codec.sh [repo-root]
cd "${1:-$(dirname "$0")/..}" || exit 1
find crates/*/src -name '*.rs' | sort | xargs awk '
    FNR == 1 { in_tests = 0; fn_name = "-" }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests || /^[ \t]*\/\// { next }
    match($0, /fn [A-Za-z_0-9]+/) { fn_name = substr($0, RSTART + 3, RLENGTH - 3) }
    /from_le_bytes/ {
        allowed = FILENAME == "crates/learned/src/codec.rs" \
            || (FILENAME == "crates/lsm/src/wal.rs" && fn_name == "crc32_tables") \
            || (FILENAME == "crates/lsm/src/sstable/format.rs" && fn_name == "decode_header")
        line = $0
        sub(/^[ \t]+/, "", line)
        printf "%s  %s:%d (%s): %s\n", allowed ? "ok " : "BAD", FILENAME, FNR, fn_name, line
        if (!allowed) bad++
    }
    END {
        if (bad) {
            printf "%d from_le_bytes outside the codec: decode through codec::Reader\n", bad > "/dev/stderr"
            exit 1
        }
    }' || exit 1
