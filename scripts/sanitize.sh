#!/bin/sh
# The unit tests of the engine's unsafe, atomic and byte-level code under a
# compiler sanitizer (ROADMAP item 16).
#
# usage: scripts/sanitize.sh address|thread [filter ...]
#
# address: AddressSanitizer instruments every load and store of the code it
# builds, so an access outside an allocation, a read of freed memory or a
# double free aborts the test with a report, where a plain run may read
# stale bytes and pass. The tests: the lsm-tree library's skiplist::,
# memtable::, wal::, cache::, iter:: and sstable::reader:: unit tests (the
# arenas and their raw-pointer towers and values, the log's CRC kernel over
# unaligned tails, the cache's slots, the sweep buffers), the
# cache_governance integration tests and every lsm-io test.
# cache_governance is the race: lookups read block bytes in place under a
# table's slot lock while inserts evict and tables retire. Filters, when
# given, replace the library's six and filter lsm-io's tests too;
# cache_governance then does not run.
#
# thread: ThreadSanitizer records which accesses each atomic orders, so a
# plain access two threads make with no happens-before edge between them is
# reported even when the run happened to read the right bytes. The tests:
# the lsm-tree library's skiplist:: and memtable:: unit tests (the write
# buffer: eight inserters race to link towers and to replace either arena's
# full chunk while readers walk the list and read values), or the given
# filters. The rest of item 16 (the cache, stress.sh's groups, the
# server's close tests) is not run here yet. The standard library is not
# rebuilt instrumented (see below), so TSan misses the ordering inside it:
# the tests join their threads by hand (`pthread_join` is seen, a scope's
# own wait is not), and `scripts/tsan.supp` silences the test harness's two
# hand-offs, by std frames only, each with its reason.
#
# Both need a nightly toolchain with the sanitizer runtimes (`+nightly`, or
# the one `NIGHTLY` names: CI pins it) and build into
# target/sanitize-<name>, so the stable build is left alone. The standard
# library is not rebuilt instrumented (no `-Zbuild-std` here): accesses in
# std's own code go unchecked, the engine's are checked. TSan's flags
# differ from std's, so the build also passes
# `-Cunsafe-allow-abi-mismatch=sanitizer`.
#
# What each catches, tried on a copy:
# - address: `Arena::grow` in skiplist.rs freeing the full chunk it retires,
#   while nodes or values in it are still reachable. With
#   `skiplist:: --test-threads=1` the report is a heap-use-after-free in
#   `skiplist::slot`, reached from
#   `skiplist::tests::a_node_is_its_header_and_tower_and_its_value_lives_apart`,
#   the first of them to run; with the filter `a_value_larger` it is one
#   reading the 5 bytes of a value whose value chunk a larger value retired,
#   from `skiplist::tests::a_value_larger_than_any_chunk_gets_its_own`. A
#   plain run of the same tests dies of SIGSEGV without naming the access.
# - thread: the link `compare_exchange` in `SkipList::insert_quiet` made
#   Relaxed on success at level 0 only. Data races between `new_node`'s
#   writes (the header, the value's bytes) and a reader's loads of them (the
#   key in `skiplist::walk`, `Node::value`, the value compared), reported
#   from `skiplist::tests::readers_see_whole_values_while_value_chunks_turn_over`
#   (alone too, filter `readers_see`), from the two `concurrent_inserts_*`
#   tests and from `memtable::tests::parallel_appliers_land_every_record`.
# - thread: `Arena::grow`'s `current.store(chunk, Release)` made Relaxed.
#   Data races between `Chunk::alloc`'s writes of the new chunk (its header,
#   its zeroed bytes) and `Arena::alloc`'s `used` bump, `size` read and the
#   node or value written there, reported from
#   `skiplist::tests::concurrent_inserts_across_chunk_edges` (alone too) and
#   from the other three tests above.
# CI's `sanitize-address` and `sanitize-thread` jobs run the default sets.
cd "$(dirname "$0")/.." || exit 1

usage() {
    echo "usage: scripts/sanitize.sh address|thread [filter ...]" >&2
    exit 2
}
[ $# -ge 1 ] || usage
sanitizer=$1
shift
case $sanitizer in
    address) flags= ;;
    thread)
        flags=-Cunsafe-allow-abi-mismatch=sanitizer
        TSAN_OPTIONS="suppressions=$(pwd)/scripts/tsan.supp ${TSAN_OPTIONS:-}"
        export TSAN_OPTIONS
        ;;
    *) usage ;;
esac

# `--target` keeps the sanitizer flags off build scripts and proc macros.
test_under() {
    RUSTFLAGS="-Zsanitizer=$sanitizer $flags" \
        cargo "+${NIGHTLY:-nightly}" test --offline -q --target x86_64-unknown-linux-gnu \
        --target-dir "target/sanitize-$sanitizer" "$@" || exit 1
}

if [ $# -gt 0 ]; then
    test_under -p lsm-tree --lib -- "$@"
    if [ "$sanitizer" = address ]; then
        test_under -p lsm-io -- "$@"
    fi
elif [ "$sanitizer" = thread ]; then
    test_under -p lsm-tree --lib -- skiplist:: memtable::
else
    test_under -p lsm-tree --lib -- skiplist:: memtable:: wal:: cache:: iter:: sstable::reader::
    test_under -p lsm-tree --test cache_governance
    test_under -p lsm-io
fi
