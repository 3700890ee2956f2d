#!/bin/sh
# The race detectors, repeated in release mode. One run cannot show a race
# that loses one time in four on two cores; fifty can. Until schedules are
# steered (ROADMAP item 1(a)) repetition is the search, and this file is the
# one place that says how much of it: CI's `stress` step runs every group,
# the verify skill names the group a change touches.
#
# usage: scripts/stress.sh [group ...]        (no group = all of them)
#
#   reads    x50  cache_governance (the ledger storm; lookups hitting a
#                 table's slots while inserts evict them and the table
#                 retires: every value right, bytes released once),
#                 read_path (view before ceiling, no read behind a parked
#                 sync, and four cold readers beside a scan on a tiny cache:
#                 a miss fills the buffer an eviction just left, never one a
#                 reader still holds), and
#                 the server's close_right_after_connect_never_hangs
#   buffer   x20  write_concurrency (four synchronous writers hand the flush
#                 claim to each other), backpressure, durability: a sealed
#                 write buffer is read by its flusher, live readers and
#                 pinned snapshots at once, with no copy between them; and
#                 the library's skiplist:: and memtable:: unit tests —
#                 inserters hand the arena's full chunk on to each other
#   sharding x10  the sharding binary: splits under load, the dual-write
#                 window, the crash matrices
#
# Stops at the first failing run, with a non-zero exit status.
cd "$(dirname "$0")/.." || exit 1

# One release-mode run of an integration-test binary (and a filter, if any).
run() { cargo test --release --offline -q -p "$1" --test "$2" $3 || exit 1; }
lsm() { run lsm-tree "$1"; }

reads() {
    for i in $(seq 50); do
        lsm cache_governance
        lsm read_path
        run lsm-server server close_right_after_connect_never_hangs
    done
}

buffer() {
    for i in $(seq 20); do
        lsm write_concurrency
        lsm backpressure
        lsm durability
        cargo test --release --offline -q -p lsm-tree --lib -- skiplist:: memtable:: || exit 1
    done
}

sharding() {
    for i in $(seq 10); do
        lsm sharding
    done
}

[ $# -eq 0 ] && set -- reads buffer sharding
for group in "$@"; do
    case $group in
        reads | buffer | sharding) $group ;;
        *)
            echo "stress.sh: no group '$group' (reads, buffer, sharding)" >&2
            exit 2
            ;;
    esac
done
