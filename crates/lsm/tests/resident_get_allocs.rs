//! What a cache hit asks of the allocator: the value it hands back, and
//! nothing for the blocks it searched.
//!
//! A counting global allocator (this binary's own; the engine is untouched)
//! around zipfian gets on a tree its cache holds whole — the benchmark's
//! `get-hot` at a sixteenth of its size. Every block of every boundary a get
//! fetches is resident, so a lookup searches the blocks where they lie,
//! under the one read-mode hold of the table's slots: no `Arc` clone, no
//! block list. What it allocates is the value it returns, and, rarely, the
//! stitch of an entry that straddles a block edge (4096 = 30 × 136 + 16).
//!
//! Recorded when resident covers began to be searched in place (seed 7 of
//! this set-up), before → after: 2.07 → 1.07 allocator calls per get, with
//! 155 579 block hits, no miss and no device read in the 50 000 gets on
//! both sides. Before, each covering block was an `Arc<Vec<u8>>` cloned out
//! of its slot into a block list the get allocated, searched and dropped.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use learned_index::IndexKind;
use lsm_io::{CostModel, SimStorage, Storage};
use lsm_tree::{Db, IndexChoice, Maintenance, Options, WriteBatch, WriteOptions};
use lsm_workloads::dist::ZipfianGen;
use lsm_workloads::value_for_key;
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Counting;

static CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: both calls are handed to `System` unchanged; the counter is a
// static that allocates nothing. `alloc_zeroed` and `realloc` are the
// trait's defaults, which come through `alloc`: one counted call each.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
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

const KEYS: u64 = 64 * 1024;
const VALUE_LEN: usize = 100;
const GETS: usize = 50_000;

#[test]
fn a_resident_get_allocates_only_its_value() {
    let storage = Arc::new(SimStorage::new(CostModel::default()));
    let options = Options {
        write_buffer_bytes: 1 << 20,
        sstable_target_bytes: 512 << 10,
        value_width: VALUE_LEN,
        index: IndexChoice::with_boundary(IndexKind::Pgm, 64),
        block_cache_bytes: 64 << 20,
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
    let get = |db: &Db, i: u64| {
        let v = db.get(key(i)).unwrap().expect("every key was loaded");
        let at = i as usize * VALUE_LEN;
        assert!(v == values[at..at + VALUE_LEN], "key {i}");
    };
    // Every key once: every block of every boundary is resident after.
    for i in 0..KEYS {
        get(&db, i);
    }
    let zipf = ZipfianGen::new(KEYS as usize, 0.99);
    let mut rng = StdRng::seed_from_u64(7);
    let order: Vec<u64> = (0..GETS).map(|_| zipf.sample(&mut rng) as u64).collect();
    let cache = db.block_cache().expect("a cache is attached");
    let before = cache.stats();
    let io = storage.stats().snapshot();
    let calls = CALLS.load(Ordering::Relaxed);
    for &i in &order {
        get(&db, i);
    }
    let calls = (CALLS.load(Ordering::Relaxed) - calls) as f64 / GETS as f64;
    let io = storage.stats().snapshot().since(&io);
    let after = cache.stats();
    let hits = after.block_hits - before.block_hits;
    println!("per resident get: {calls:.2} allocator calls; {hits} block hits in all");
    assert_eq!(io.read_calls, 0, "the tree is resident");
    assert_eq!(after.block_misses, before.block_misses, "nothing missed");
    assert!(hits >= GETS as u64);
    assert!(calls <= 1.25, "{calls:.2} allocator calls per resident get");
}
