//! The read path's concurrency properties: no read holds an engine lock
//! across a writer's `sync`, on one `Db` or across shards (whose commit
//! lock is held across it too); a read loads its view before its sequence
//! ceiling, so what a reader sees of a key never goes backwards; and the
//! buffer a miss fills is never one another reader still holds.

use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::channel;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use lsm_io::{Hook, Interposed, MemStorage, Op, Storage};
use lsm_tree::{
    Db, IndexGranularity, Maintenance, Options, ReadOptions, ShardedDb, ShardedOptions, WriteBatch,
    WriteOptions, WritePressure,
};
use lsm_workloads::value_for_key;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A storage hook that, once armed, parks the next WAL `sync` until
/// released.
#[derive(Default)]
struct Gate {
    /// `(armed, parked, released)`.
    state: Mutex<(bool, bool, bool)>,
    cv: Condvar,
}

impl Gate {
    fn arm(&self) {
        self.state.lock().unwrap().0 = true;
    }

    fn pass(&self) {
        let mut st = self.state.lock().unwrap();
        if !st.0 || st.2 {
            return;
        }
        st.1 = true;
        self.cv.notify_all();
        while !st.2 {
            st = self.cv.wait(st).unwrap();
        }
    }

    /// Whether a sync parked within `timeout`.
    fn wait_parked(&self, timeout: Duration) -> bool {
        let st = self.state.lock().unwrap();
        let (st, _) = self.cv.wait_timeout_while(st, timeout, |s| !s.1).unwrap();
        st.1
    }

    fn release(&self) {
        self.state.lock().unwrap().2 = true;
        self.cv.notify_all();
    }
}

impl Hook for Gate {
    fn before(&self, op: Op<'_>) -> io::Result<()> {
        if matches!(op, Op::Sync(name) if name.ends_with(".wal")) {
            self.pass();
        }
        Ok(())
    }
}

/// A fresh store whose WAL syncs pass `gate`.
fn gated(gate: &Arc<Gate>) -> Arc<dyn Storage> {
    Arc::new(Interposed::hooked(
        Arc::new(MemStorage::new()),
        Arc::clone(gate),
    ))
}

/// A group-commit leader syncs the WAL while it holds the tree write lock.
/// Every kind of read must complete while it is parked there — through a
/// channel with a timeout, so an engine whose reads take that lock fails
/// this test rather than hanging it.
#[test]
fn no_read_waits_for_a_sync() {
    let gate = Arc::new(Gate::default());
    let storage = gated(&gate);
    // Background maintenance, so that `write_pressure` has triggers to read.
    let mut opts = Options::small_for_tests();
    opts.maintenance = Maintenance::background();
    let db = Db::open(storage, opts).unwrap();
    // Tables on several levels, and a tail still in the memtable.
    for k in 0..2_000u64 {
        db.put(k, &k.to_le_bytes()).unwrap();
    }
    db.wait_for_maintenance();
    assert!(db.stats().snapshot().flushes > 0 && db.memtable_len() > 0);

    gate.arm();
    let (done, reads_done) = channel();
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut batch = WriteBatch::new();
            batch.put(5_000, b"durable");
            db.write(batch, &WriteOptions::durable()).unwrap();
        });
        assert!(
            gate.wait_parked(Duration::from_secs(30)),
            "the durable write never reached its sync"
        );
        s.spawn(|| {
            let value = |k: u64| Some(k.to_le_bytes().to_vec());
            assert_eq!(db.get(3).unwrap(), value(3), "from a table");
            assert_eq!(db.get(1_999).unwrap(), value(1_999), "from the memtable");
            assert_eq!(db.get(7).unwrap(), value(7));
            let snap = db.snapshot();
            assert_eq!(db.get_with(11, &ReadOptions::at(&snap)).unwrap(), value(11));
            let mut it = db.iter().unwrap();
            it.seek(100).unwrap();
            assert_eq!(it.next().unwrap().map(|(k, _)| k), Some(100));
            assert_eq!(
                db.get(5_000).unwrap(),
                None,
                "the parked write is not visible"
            );
            // What a front end's admission control asks on every write.
            assert!(db.memtable_len() > 0 && db.resident_bytes() > 0);
            assert_eq!(db.immutable_memtables(), 0);
            assert_eq!(db.write_pressure(), WritePressure::Clear);
            done.send(()).unwrap();
        });
        let finished = reads_done.recv_timeout(Duration::from_secs(10));
        // Released either way, so a failure is reported instead of hanging
        // the scope on the blocked threads.
        gate.release();
        assert!(finished.is_ok(), "a read waited for the writer's sync");
    });
    assert_eq!(db.get(5_000).unwrap(), Some(b"durable".to_vec()));
}

/// The sharded twin: a sharded write holds the commit lock across its
/// shard's WAL sync, and no sharded read takes that lock — not a point
/// read, a pinned read, a snapshot, an iterator or a scan across the cut.
#[test]
fn no_sharded_read_waits_for_a_sync() {
    let gate = Arc::new(Gate::default());
    let storage = gated(&gate);
    let mut base = Options::small_for_tests();
    base.maintenance = Maintenance::background();
    let db = ShardedDb::open(
        storage,
        ShardedOptions::learned(2, (0..2_000).collect(), base),
    )
    .unwrap();
    assert_eq!(db.routing().router().boundaries(), [1_000]);
    for k in 0..2_000u64 {
        db.put(k, &k.to_le_bytes()).unwrap();
    }
    db.wait_for_maintenance();

    gate.arm();
    let (done, reads_done) = channel();
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut batch = WriteBatch::new();
            batch.put(5_000, b"durable");
            db.write(batch, &WriteOptions::durable()).unwrap();
        });
        assert!(
            gate.wait_parked(Duration::from_secs(30)),
            "the durable write never reached its sync"
        );
        s.spawn(|| {
            let value = |k: u64| Some(k.to_le_bytes().to_vec());
            let pair = |k: u64| (k, k.to_le_bytes().to_vec());
            assert_eq!(db.get(3).unwrap(), value(3));
            let snap = db.snapshot();
            assert_eq!(db.get_at(1_500, &snap).unwrap(), value(1_500));
            assert_eq!(
                db.get_at(5_000, &snap).unwrap(),
                None,
                "parked, not visible"
            );
            let mut it = db.iter().unwrap();
            it.seek(999).unwrap();
            assert_eq!(it.collect_up_to(2).unwrap(), [pair(999), pair(1_000)]);
            assert_eq!(db.scan(1_998, 10).unwrap(), [pair(1_998), pair(1_999)]);
            done.send(()).unwrap();
        });
        let finished = reads_done.recv_timeout(Duration::from_secs(10));
        // Released either way, so a failure is reported instead of hanging
        // the scope on the blocked threads.
        gate.release();
        assert!(
            finished.is_ok(),
            "a sharded read waited for the writer's sync"
        );
    });
    assert_eq!(db.get(5_000).unwrap(), Some(b"durable".to_vec()));
}

/// A writer stamps an ever-growing counter into a small set of keys while
/// background flushes and compactions keep replacing the buffer and the
/// tables under the readers. A reader that loaded the ceiling before the
/// view could lose the version it was entitled to — a flush keeps only the
/// newest one — and fall back to an older one from a deeper level: the
/// stamp it reads for a key would go backwards.
#[test]
fn a_keys_stamp_never_goes_backwards() {
    stamps_never_go_backwards(IndexGranularity::Table);
}

/// The same race with one model per sorted level: every compaction install
/// swaps the models of the levels it changed under the readers, who must
/// only ever pair a model with the table list it was trained over.
#[test]
fn a_keys_stamp_never_goes_backwards_at_level_granularity() {
    stamps_never_go_backwards(IndexGranularity::Level);
}

fn stamps_never_go_backwards(granularity: IndexGranularity) {
    const KEYS: u64 = 64;
    const WRITES: u64 = 40_000;
    let mut opts = Options::small_for_tests();
    opts.write_buffer_bytes = 4 << 10;
    opts.index.granularity = granularity;
    opts.maintenance = Maintenance::Background;
    let db = Db::open_memory(opts).unwrap();
    let stop = AtomicBool::new(false);
    let reads = AtomicU64::new(0);
    std::thread::scope(|s| {
        for r in 0..2u64 {
            let (db, stop, reads) = (&db, &stop, &reads);
            s.spawn(move || {
                let mut seen = [0u64; KEYS as usize];
                let mut key = r;
                while !stop.load(Ordering::Acquire) {
                    key = (key * 5 + 3) % KEYS;
                    // Alternate the two entry points; both resolve through
                    // the same view-then-ceiling load.
                    let got = if key % 2 == 0 {
                        db.get(key).unwrap()
                    } else {
                        let snap = db.snapshot();
                        db.get_with(key, &ReadOptions::at(&snap)).unwrap()
                    };
                    let stamp = got.map_or(0, |v| u64::from_le_bytes(v[..8].try_into().unwrap()));
                    assert!(
                        stamp >= seen[key as usize],
                        "key {key}: stamp {stamp} after {}",
                        seen[key as usize]
                    );
                    seen[key as usize] = stamp;
                    reads.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        for stamp in 1..=WRITES {
            db.put(stamp % KEYS, &stamp.to_le_bytes()).unwrap();
        }
        stop.store(true, Ordering::Release);
    });
    let stats = db.stats().snapshot();
    assert!(
        stats.flushes > 10 && stats.compactions > 0 && reads.load(Ordering::Relaxed) > 0,
        "the readers must have raced maintenance: {} flushes, {} compactions, {} reads",
        stats.flushes,
        stats.compactions,
        reads.load(Ordering::Relaxed)
    );
    for key in 0..KEYS {
        let last = (WRITES - KEYS + 1..=WRITES)
            .find(|s| s % KEYS == key)
            .unwrap();
        assert_eq!(db.get(key).unwrap(), Some(last.to_le_bytes().to_vec()));
    }
    db.wait_for_maintenance();
    let version = db.version();
    for (level, tables) in version.levels.iter().enumerate().skip(1) {
        let wants_model = granularity == IndexGranularity::Level && !tables.is_empty();
        assert_eq!(
            version.level_index(level).is_some(),
            wants_model,
            "L{level}"
        );
    }
}

/// The miss path, shared: four readers issue uniform gets and a fifth thread
/// scans (filling) over a cache of a few dozen blocks, so nearly every
/// buffer the device fills was another block a moment ago, and evictions
/// race the lookups and the cursor that still hold what is evicted. Every
/// value is checked against its key; the ledger is sampled throughout.
#[test]
fn cold_readers_and_a_scan_share_a_tiny_cache() {
    const KEYS: u64 = 20_000;
    const VALUE_LEN: usize = 100;
    const GETS: usize = 10_000;
    let key = |i: u64| i * 7 + 3;
    let mut opts = Options::small_for_tests();
    (opts.write_buffer_bytes, opts.sstable_target_bytes) = (64 << 10, 64 << 10);
    opts.value_width = VALUE_LEN;
    opts.block_cache_bytes = 192 << 10;
    let db = Db::open_memory(opts).unwrap();
    for i in 0..KEYS {
        db.put(key(i), &value_for_key(key(i), VALUE_LEN)).unwrap();
    }
    db.flush().unwrap();
    let cache = db.block_cache().unwrap();
    let room = cache.capacity_bytes().saturating_sub(cache.table_bytes());
    assert!(
        (8 * 4096..=40 * 4096).contains(&room),
        "a tiny cache: {room}"
    );

    let readers_left = AtomicU64::new(4);
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let (db, cache, readers_left) = (&db, &cache, &readers_left);
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(t);
                for n in 0..GETS {
                    let k = key(rng.gen_range(0..KEYS));
                    assert_eq!(db.get(k).unwrap(), Some(value_for_key(k, VALUE_LEN)));
                    if n % 64 == 0 {
                        assert!(cache.used_bytes() <= cache.capacity_bytes());
                    }
                }
                readers_left.fetch_sub(1, Ordering::Release);
            });
        }
        let mut start = 0;
        while readers_left.load(Ordering::Acquire) > 0 {
            let out = db.scan(key(start), 300).unwrap();
            assert_eq!(out.len(), 300);
            for (i, (k, v)) in (start..).zip(&out) {
                assert_eq!(*k, key(i));
                assert_eq!(*v, value_for_key(*k, VALUE_LEN));
            }
            assert!(cache.used_bytes() <= cache.capacity_bytes());
            start = (start + 300) % (KEYS - 300);
        }
    });
    let stats = cache.stats();
    assert!(
        stats.block_evictions > GETS as u64,
        "the readers must have missed: {stats:?}"
    );
    assert!(stats.block_used_bytes > 0 && stats.used_bytes <= stats.capacity_bytes);
}
