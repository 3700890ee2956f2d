//! Memory-governance integration tests: the engine-wide cache budget under
//! concurrency, scan/compaction pollution regressions, and the budget every
//! shard of a `ShardedDb` shares.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use learned_index::IndexKind;
use lsm_io::{CostModel, MemStorage, SimStorage, Storage};
use lsm_tree::sstable::{TableBuilder, TableReader};
use lsm_tree::{
    BlockCache, BlockKey, Db, DbStats, Entry, IndexChoice, Options, ReadOptions, ShardedDb,
    ShardedOptions,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const BLOCK: usize = 4096;

fn key(table_id: u64, block_no: u64) -> BlockKey {
    BlockKey { table_id, block_no }
}

fn block(bytes: usize) -> Arc<Vec<u8>> {
    Arc::new(vec![0u8; bytes])
}

/// Concurrent get/insert/evict_table storm across every stripe: the byte
/// budget must hold at every instant, and when the dust settles every
/// charged byte must still be accounted for (no lost slots, no leaked
/// reservations from insert/evict races).
#[test]
fn cache_storm_holds_budget_and_loses_nothing() {
    let cache = Arc::new(BlockCache::new(64 * BLOCK));
    let stop = Arc::new(AtomicBool::new(false));
    let mut threads = Vec::new();
    for t in 0..8u64 {
        let cache = Arc::clone(&cache);
        let stop = Arc::clone(&stop);
        threads.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(t);
            for i in 0..3_000u64 {
                if stop.load(Ordering::Relaxed) {
                    return;
                }
                let table = rng.gen_range(0..6u64);
                match i % 4 {
                    0 | 1 => cache.insert(key(table, rng.gen_range(0..64)), block(BLOCK)),
                    2 => {
                        let _ = cache.get(key(table, rng.gen_range(0..64)));
                    }
                    _ => {
                        if i % 61 == 0 {
                            cache.evict_tables(&[table]);
                        } else {
                            cache.insert(key(table, rng.gen_range(0..64)), block(BLOCK / 2));
                        }
                    }
                }
                assert!(
                    cache.used_bytes() <= cache.capacity_bytes(),
                    "budget overshot mid-storm: {} > {}",
                    cache.used_bytes(),
                    cache.capacity_bytes()
                );
            }
        }));
    }
    for th in threads {
        if let Err(e) = th.join() {
            stop.store(true, Ordering::Relaxed);
            std::panic::resume_unwind(e);
        }
    }
    assert!(cache.used_bytes() <= cache.capacity_bytes());
    // Dropping every table must return the budget to exactly zero: any
    // residue would be a slot lost by a racing insert/evict pair.
    for table in 0..6u64 {
        cache.evict_tables(&[table]);
    }
    assert_eq!(cache.used_bytes(), 0, "bytes leaked by the storm");
}

/// Hits, evictions and retirement at once, on one table's blocks: readers
/// look up through the table's slots (`fetch_blocks`) while a second
/// thread's inserts evict those blocks and a third retires the table — by
/// `evict_tables` while the readers still hit it, then by dropping the
/// reader for the next one. A reader must never see a torn or freed block:
/// every value is right, the budget holds at every sample, and once every
/// table is retired the block bytes are back to zero, each block's bytes
/// released exactly once.
#[test]
fn hits_race_eviction_and_retirement() {
    const KEYS: u64 = 2_000;
    const TABLES: usize = 12;
    let value = |k: u64| vec![(k % 251) as u8; 100];
    let storage = MemStorage::new();
    let mut builder = TableBuilder::new(
        storage.create("t.sst").unwrap(),
        "t.sst".into(),
        IndexChoice::new(IndexKind::Pgm, 8),
        100,
        10,
    );
    for k in 0..KEYS {
        builder.add(&Entry::put(k * 3, k + 1, value(k))).unwrap();
    }
    builder.finish().unwrap();
    // Every handle is open, and charged, before the storm: pinned bytes only
    // fall from here, so the whole ledger stays under the ceiling.
    let cache = Arc::new(BlockCache::new(256 << 10));
    let tables: Vec<Mutex<Option<Arc<TableReader>>>> = (0..TABLES)
        .map(|_| {
            let reader = TableReader::open_with(&storage, "t.sst", Some(Arc::clone(&cache)));
            Mutex::new(Some(Arc::new(reader.unwrap())))
        })
        .collect();
    let ids: Vec<u64> = tables
        .iter()
        .map(|t| t.lock().unwrap().as_ref().unwrap().table_id())
        .collect();
    let current = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let under_budget = || {
        let (used, capacity) = (cache.used_bytes(), cache.capacity_bytes());
        assert!(used <= capacity, "budget overshot: {used} > {capacity}");
    };
    std::thread::scope(|s| {
        for seed in 0..2u64 {
            let (tables, current, stop) = (&tables, &current, &stop);
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed);
                let stats = DbStats::new();
                while !stop.load(Ordering::Relaxed) {
                    let at = current.load(Ordering::Relaxed).min(TABLES - 1);
                    let Some(reader) = tables[at].lock().unwrap().clone() else {
                        continue;
                    };
                    for _ in 0..64 {
                        let k = rng.gen_range(0..KEYS);
                        let got = reader.get(k * 3, u64::MAX >> 8, &stats).unwrap();
                        assert_eq!(got, Some(Some(value(k))), "table {at} key {k}");
                        under_budget();
                    }
                }
            });
        }
        s.spawn(|| {
            for b in (0..).take_while(|_| !stop.load(Ordering::Relaxed)) {
                cache.insert(key(u64::MAX - b % 4, b % 64), block(BLOCK));
                under_budget();
            }
        });
        for (at, table) in tables.iter().enumerate() {
            std::thread::sleep(std::time::Duration::from_millis(3));
            cache.evict_tables(&[ids[at]]);
            std::thread::sleep(std::time::Duration::from_millis(1));
            current.store(at + 1, Ordering::Relaxed);
            table.lock().unwrap().take();
        }
        stop.store(true, Ordering::Relaxed);
    });
    let stats = cache.stats();
    assert!(
        stats.block_hits > 0 && stats.block_evictions > 0,
        "{stats:?}"
    );
    assert_eq!(cache.table_bytes(), 0, "every reader dropped");
    cache.evict_tables(&[u64::MAX, u64::MAX - 1, u64::MAX - 2, u64::MAX - 3]);
    assert_eq!(
        cache.block_bytes(),
        0,
        "bytes released more or less than once"
    );
}

fn cached_db(cache_bytes: usize, keys: u64) -> Db {
    let mut o = Options::small_for_tests();
    o.index.kind = IndexKind::Pgm;
    o.block_cache_bytes = cache_bytes;
    let storage: Arc<dyn Storage> = Arc::new(SimStorage::new(CostModel::default()));
    let db = Db::open(storage, o).unwrap();
    for k in 0..keys {
        db.put(k, format!("value-{k}").as_bytes()).unwrap();
    }
    db.flush().unwrap();
    db
}

/// Hit rate of `rounds` passes over the hot key set.
fn hot_hit_rate(db: &Db, hot: &[u64], rounds: usize) -> f64 {
    let cache = db.block_cache().unwrap();
    let (h0, m0) = cache.hit_miss();
    for _ in 0..rounds {
        for &k in hot {
            assert!(db.get(k).unwrap().is_some());
        }
    }
    let (h1, m1) = cache.hit_miss();
    let (h, m) = (h1 - h0, m1 - m0);
    h as f64 / (h + m).max(1) as f64
}

/// The scan-pollution regression of this PR: a hot point-read working set
/// must keep its hit rate (±5%) across (a) a full-table no-fill scan and
/// (b) compactions — both used to flush the working set out of the cache
/// (scans filled unconditionally; compaction read its inputs through the
/// cache and then discarded what it inserted).
#[test]
fn hot_hit_rate_survives_scan_and_compaction() {
    let db = cached_db(256 << 10, 50_000);
    let hot: Vec<u64> = (0..64u64).collect();
    // Warm, then baseline.
    hot_hit_rate(&db, &hot, 3);
    let baseline = hot_hit_rate(&db, &hot, 5);
    assert!(baseline > 0.9, "hot set must be cache-resident: {baseline}");

    // (a) Full-table analytical scan, fill_cache = false.
    let ropts = ReadOptions {
        fill_cache: false,
        ..ReadOptions::new()
    };
    let mut it = db.iter_with(&ropts).unwrap();
    it.seek_to_first();
    let mut n = 0u64;
    while it.next().unwrap().is_some() {
        n += 1;
    }
    assert_eq!(n, 50_000);
    let after_scan = hot_hit_rate(&db, &hot, 5);
    assert!(
        after_scan >= baseline - 0.05,
        "scan polluted the cache: {baseline} -> {after_scan}"
    );

    // (b) Churn a cold key range until compactions run.
    let compactions_before = db.stats().snapshot().compactions;
    for k in 30_000..38_000u64 {
        db.put(k, b"rewritten").unwrap();
    }
    db.flush().unwrap();
    let compacted = db.stats().snapshot().compactions - compactions_before;
    assert!(compacted > 0, "churn must trigger compactions");
    let after_compact = hot_hit_rate(&db, &hot, 5);
    assert!(
        after_compact >= baseline - 0.05,
        "compaction polluted the cache: {baseline} -> {after_compact}"
    );
}

/// Two shards, one budget: hammering one shard's working set must be able
/// to take cache space previously held by the other (cold) shard — the
/// whole point of the shared budget.
#[test]
fn hot_shard_displaces_cold_shards_blocks() {
    let mut base = Options::small_for_tests();
    base.index.kind = IndexKind::Pgm;
    let sample: Vec<u64> = (0..20_000u64).collect();
    let opts = ShardedOptions::learned(2, sample, base).with_cache_bytes(256 << 10);
    let storage: Arc<dyn Storage> = Arc::new(SimStorage::new(CostModel::default()));
    let db = ShardedDb::open(storage, opts).unwrap();
    for k in 0..20_000u64 {
        db.put(k, format!("value-{k}").as_bytes()).unwrap();
    }
    db.flush().unwrap();

    let cache = db.cache().expect("shared cache must exist");
    // The budget must be larger than the pinned index/filter charges
    // (those win unconditionally) so blocks have room to compete over.
    let pinned = cache.stats().table_used_bytes;
    assert!(
        (pinned as usize) < cache.capacity_bytes() / 2,
        "test needs block headroom: {pinned} pinned of {}",
        cache.capacity_bytes()
    );
    // Warm the cold shard (upper key range) until its blocks occupy the
    // budget, counting how many distinct blocks that set touches.
    let ins_before_warm = cache.stats().block_insertions;
    for k in (10_000..20_000u64).step_by(20) {
        db.get(k).unwrap();
    }
    let cold_blocks = cache.stats().block_insertions - ins_before_warm;
    let cold_resident = cache.stats().block_used_bytes;
    assert!(cold_resident > 0, "cold warm-up must cache something");
    // Hammer a working set on the hot shard until the cold blocks have
    // been repurposed.
    for _ in 0..50 {
        for k in (0..5_000u64).step_by(20) {
            db.get(k).unwrap();
        }
    }
    assert!(
        cache.used_bytes() as u64 <= cache.capacity_bytes() as u64,
        "shared budget overshot"
    );
    // Re-reading the cold range must now re-fetch (miss) most of its
    // distinct blocks — they were displaced to fund the hot shard. If the
    // budget were still private per shard, the cold set would have stayed
    // resident untouched.
    let (_, m0) = cache.hit_miss();
    for k in (10_000..20_000u64).step_by(20) {
        db.get(k).unwrap();
    }
    let (_, m1) = cache.hit_miss();
    let refetched = m1 - m0;
    assert!(
        refetched >= cold_blocks / 2,
        "cold shard's blocks should have been displaced: \
         {refetched} of {cold_blocks} distinct blocks re-fetched"
    );
}
