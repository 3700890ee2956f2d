#!/bin/sh
# The unit tests of the engine's unsafe and byte-level code under a compiler
# sanitizer (ROADMAP item 16). AddressSanitizer instruments every load and
# store of the code it builds, so an access outside an allocation, a read of
# freed memory or a double free aborts the test with a report, where a plain
# run may read stale bytes and pass.
#
# usage: scripts/sanitize.sh address [filter ...]
#
# The tests: the lsm-tree library's skiplist::, memtable::, wal::, cache::,
# iter:: and sstable::reader:: unit tests (the arena and its raw-pointer
# towers, the log's CRC kernel over unaligned tails, the cache's slots, the
# sweep buffers), the cache_governance integration tests and every lsm-io
# test. cache_governance is the race: lookups read block bytes in place
# under a table's slot lock while inserts evict and tables retire. Filters,
# when given, replace the library's six and filter lsm-io's tests too;
# cache_governance then does not run.
#
# It needs a nightly toolchain with the sanitizer runtimes and builds into
# target/sanitize-address, so the stable build is left alone. The standard
# library is not rebuilt instrumented (no `-Zbuild-std` here): accesses in
# std's own code go unchecked, the engine's are checked.
#
# What it catches, tried on a copy: `Arena::grow` in skiplist.rs freeing
# the full chunk it retires, while nodes in it are still linked. With
# `skiplist:: --test-threads=1` the report is a heap-use-after-free in
# `skiplist::slot`, reached from
# `skiplist::tests::a_value_larger_than_any_chunk_gets_its_own`, the first
# of them to run. A plain run of the same tests dies of SIGSEGV without
# naming the access. CI's `sanitize-address` job runs the default set.
#
# Only `address` for now; the thread sanitizer is the other half of item 16.
cd "$(dirname "$0")/.." || exit 1

sanitizer=$1
case $sanitizer in
    address) shift ;;
    *)
        echo "usage: scripts/sanitize.sh address [filter ...]" >&2
        exit 2
        ;;
esac

# `--target` keeps the sanitizer flags off build scripts and proc macros.
test_under() {
    RUSTFLAGS="-Zsanitizer=$sanitizer" \
        cargo +nightly test --offline -q --target x86_64-unknown-linux-gnu \
        --target-dir "target/sanitize-$sanitizer" "$@" || exit 1
}

if [ $# -eq 0 ]; then
    test_under -p lsm-tree --lib -- skiplist:: memtable:: wal:: cache:: iter:: sstable::reader::
    test_under -p lsm-tree --test cache_governance
    test_under -p lsm-io
else
    test_under -p lsm-tree --lib -- "$@"
    test_under -p lsm-io -- "$@"
fi
