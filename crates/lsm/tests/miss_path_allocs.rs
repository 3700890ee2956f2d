//! What a cache miss asks of the allocator: nothing for block storage.
//!
//! A counting global allocator (this binary's own; the engine is untouched)
//! around uniform gets on a tree 17x its cache — the benchmark's `get-cold`
//! at a quarter of its size. A missed block is read into a buffer the
//! cache's last eviction left behind and that same `Arc` is inserted, so
//! what remains per get is the span's block list, the device call's slice
//! list and the value handed back.
//!
//! Recorded at PR 24 (seed 7 of this set-up), parent → change: allocator
//! calls per get 12.39 → 3.13, bytes per get 25 671 → 184, with 100 134
//! device calls and 308 713 blocks for the 100 000 gets on both sides
//! (asserted below, to the call): fewer copies, not fewer or other reads.
//! The parent read each run into a zeroed buffer, copied it out block by
//! block, and allocated a placeholder for every evicted slot.
//!
//! Re-recorded at PR 25: 100 162 device calls and 308 702 blocks. Which
//! blocks a 1 MiB cache still holds when a get asks depends on what it
//! evicted, and the stripes' strict LRU became a clock (a hit sets a bit,
//! the hand spares a referenced block once), so the misses moved: 28 more
//! calls and 11 fewer blocks in 100 000 gets. The allocator counts did not
//! (3.13 calls, 184 B per get).
//!
//! Re-recorded once more when a compaction whose one input a rewrite would
//! only copy began to move the table instead: 99 942 device calls and
//! 308 676 blocks. The tree is the same table bytes at the same levels, but
//! a moved table keeps its reader, and with it the blocks the cache holds
//! for it, where a rewritten one started cold; so the misses moved again.
//! The allocator counts did not (3.13 calls, 184 B per get).
//!
//! Re-recorded when a cached block became one allocation (`Arc<[u8]>`)
//! and a lookup whose cover is wholly resident began to search it in
//! place: 3.11 calls and 209 B per get, the device calls and blocks
//! unchanged. The calls fell because a get whose blocks all happen to be
//! resident builds no block list; the bytes rose because a list's entries
//! are now fat pointers (16 B, not 8) for the three or so blocks of a get.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use learned_index::IndexKind;
use lsm_io::{CostModel, SimStorage, Storage};
use lsm_tree::{Db, IndexChoice, Maintenance, Options, WriteBatch, WriteOptions};
use lsm_workloads::value_for_key;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct Counting;

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: both calls are handed to `System` unchanged; the counters are
// statics that allocate nothing. `alloc_zeroed` and `realloc` are the
// trait's defaults, which come through `alloc`: one counted call each.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's contract, passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, passed on.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const KEYS: u64 = 128 * 1024;
const VALUE_LEN: usize = 100;
const WARM_UP: usize = 20_000;
const GETS: usize = 100_000;

#[test]
fn a_cold_get_allocates_no_block_storage() {
    let storage = Arc::new(SimStorage::new(CostModel::default()));
    let options = Options {
        write_buffer_bytes: 1 << 20,
        sstable_target_bytes: 512 << 10,
        value_width: VALUE_LEN,
        index: IndexChoice::with_boundary(IndexKind::Pgm, 64),
        block_cache_bytes: 1 << 20,
        maintenance: Maintenance::Synchronous,
        ..Options::default()
    };
    let db = Db::open(Arc::clone(&storage) as Arc<dyn Storage>, options).unwrap();
    // Keys scattered over the key space, loaded in index order.
    let key = |i: u64| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 20;
    for chunk in (0..KEYS).collect::<Vec<_>>().chunks(32) {
        let mut batch = WriteBatch::with_capacity(chunk.len());
        for &i in chunk {
            batch.put(key(i), &value_for_key(key(i), VALUE_LEN));
        }
        db.write(batch, &WriteOptions::default()).unwrap();
    }
    db.flush().unwrap();

    // Every value, end to end: checking a get must not allocate.
    let values: Vec<u8> = (0..KEYS)
        .flat_map(|i| value_for_key(key(i), VALUE_LEN))
        .collect();
    let mut rng = StdRng::seed_from_u64(7);
    let mut get = |db: &Db| {
        let i = rng.gen_range(0..KEYS);
        let v = db.get(key(i)).unwrap().expect("every key was loaded");
        let at = i as usize * VALUE_LEN;
        assert!(v == values[at..at + VALUE_LEN], "key {i}");
    };
    for _ in 0..WARM_UP {
        get(&db);
    }
    let io = storage.stats().snapshot();
    let (calls, bytes) = (CALLS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    for _ in 0..GETS {
        get(&db);
    }
    let calls = (CALLS.load(Ordering::Relaxed) - calls) as f64 / GETS as f64;
    let bytes = (BYTES.load(Ordering::Relaxed) - bytes) as f64 / GETS as f64;
    let io = storage.stats().snapshot().since(&io);
    println!(
        "per get: {calls:.2} allocator calls, {bytes:.0} B; {} device calls, {} blocks in all",
        io.read_calls, io.read_blocks
    );
    assert!(calls <= 4.0, "{calls:.2} allocator calls per cold get");
    assert!(bytes <= 512.0, "{bytes:.0} B allocated per cold get");
    // The reads, to the call: a change here means the misses moved.
    assert_eq!((io.read_calls, io.read_blocks), (99_942, 308_676));
}
