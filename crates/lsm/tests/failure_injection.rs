//! Failure-injection tests: the engine must fail *cleanly* when storage
//! errors strike mid-flush or mid-compaction — reads keep working against
//! the last installed version, and work succeeds after the fault heals.
//!
//! Failure points are **op-indexed** (`lsm_io::CrashStorage`): the fault
//! lands after an exact count of mutating storage operations, so the runs
//! are deterministic although every write is logged.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use learned_index::IndexKind;
use lsm_io::{CrashStorage, FaultStorage, MemStorage, Storage};
use lsm_tree::wal::replay_records;
use lsm_tree::{
    Db, EventKind, IndexGranularity, Maintenance, Options, ShardedDb, ShardedOptions, WriteBatch,
    WriteOptions,
};

fn opts() -> Options {
    let mut o = Options::small_for_tests();
    o.index.kind = IndexKind::Pgm;
    o
}

#[test]
fn flush_failure_is_clean_and_retryable() {
    let (storage, ctl) = CrashStorage::new();
    let db = Db::open(storage as Arc<dyn Storage>, opts()).unwrap();

    // A durable baseline.
    for k in 0..1_000u64 {
        db.put(k, b"base").unwrap();
    }
    db.flush().unwrap();

    // Fill the buffer, then halt storage at exactly the current operation
    // index: the very first flush operation (the new SSTable's create)
    // fails.
    for k in 1_000..1_200u64 {
        db.put(k, b"pending").unwrap();
    }
    ctl.crash_after(0);
    assert!(db.flush().is_err(), "flush must report the injected fault");

    // Reads against the installed state still work.
    assert_eq!(db.get(500).unwrap(), Some(b"base".to_vec()));
    // Unflushed data is still served from the memtable.
    assert_eq!(db.get(1_100).unwrap(), Some(b"pending".to_vec()));

    // After healing, the retry drains the buffer.
    ctl.disarm();
    db.flush().unwrap();
    assert_eq!(db.get(1_100).unwrap(), Some(b"pending".to_vec()));
    assert_eq!(db.get(500).unwrap(), Some(b"base".to_vec()));
}

#[test]
fn write_failure_mid_stream_surfaces_error() {
    let (storage, ctl) = CrashStorage::new();
    let db = Db::open(storage as Arc<dyn Storage>, opts()).unwrap();
    ctl.crash_after(50);
    let mut failed = false;
    for k in 0..100_000u64 {
        if db.put(k, &[0u8; 24]).is_err() {
            failed = true;
            break;
        }
    }
    assert!(failed, "the write stream must eventually hit the fault");
    ctl.disarm();
    // Engine remains usable.
    db.put(424_242, b"recovered").unwrap();
    assert_eq!(db.get(424_242).unwrap(), Some(b"recovered".to_vec()));
}

#[test]
fn poisoned_table_read_errors_do_not_panic() {
    let (storage, ctl) = FaultStorage::wrap(Arc::new(MemStorage::new()) as Arc<dyn Storage>);
    let db = Db::open(storage as Arc<dyn Storage>, opts()).unwrap();
    for k in 0..2_000u64 {
        db.put(k, b"x").unwrap();
    }
    db.flush().unwrap();
    // Poison all SSTables: point reads that reach the device must error.
    ctl.poison(".sst");
    let err = db.get(1_500);
    assert!(err.is_err(), "read through poisoned table must error");
    ctl.heal();
    assert_eq!(db.get(1_500).unwrap(), Some(b"x".to_vec()));
}

/// A failed flush or compaction removes the outputs it does not install
/// before it returns its error: once the fault heals, and before any reopen
/// (whose sweep would hide a leak), the store's tables are the version's.
/// The fault walks every write of one flush — its table, its manifest seal
/// and the compaction it runs — until a run succeeds. A failed seal owes
/// the removals it did not make (a retired log, merged inputs) to the next
/// successful one: after one more write and flush, the store holds exactly
/// the version's tables and one log.
#[test]
fn a_failed_job_leaves_no_output_behind() {
    let value = [7u8; 24];
    let tables = |db: &Db| -> HashSet<String> {
        let version = db.version();
        let live = version.levels.iter().flatten();
        live.map(|t| t.meta.name.clone()).collect()
    };
    let files = |storage: &dyn Storage, suffix: &str| -> HashSet<String> {
        let files = storage.list().unwrap().into_iter();
        files.filter(|f| f.ends_with(suffix)).collect()
    };
    let (mut n, mut compaction_faults) = (0, 0);
    loop {
        let (storage, ctl) = FaultStorage::wrap(Arc::new(MemStorage::new()) as Arc<dyn Storage>);
        let db = Db::open(Arc::clone(&storage) as Arc<dyn Storage>, opts()).unwrap();
        for k in 0..3_300u64 {
            db.put(k, &value).unwrap();
        }
        // One table parked in L0: the walked flush crosses the trigger and
        // compacts.
        while db.version().levels[0].len() != 1 {
            for k in 5_000..5_050u64 {
                db.put(k, &value).unwrap();
            }
            db.flush().unwrap();
        }
        for k in 1_000..1_200u64 {
            db.put(k, b"pending").unwrap();
        }
        let compactions = db.stats().snapshot().compactions;
        ctl.fail_writes_after(n);
        let failed = db.flush().is_err();
        ctl.heal();
        if db.stats().snapshot().compactions == compactions {
            assert_eq!(
                files(storage.as_ref(), ".sst"),
                tables(&db),
                "fault after {n} writes"
            );
            compaction_faults += usize::from(db.version().levels[0].len() == 2);
        }
        db.put(9_000, &value).unwrap();
        db.flush().unwrap();
        assert_eq!(db.get(1_100).unwrap(), Some(b"pending".to_vec()));
        let healed = format!("fault after {n} writes, then a write and a flush");
        assert_eq!(files(storage.as_ref(), ".sst"), tables(&db), "{healed}");
        assert_eq!(files(storage.as_ref(), ".wal").len(), 1, "{healed}");
        if !failed {
            break;
        }
        n += 1;
    }
    assert!(
        compaction_faults > 3,
        "the walk crosses the compaction's writes"
    );
}

/// A lone `Db`'s log lifecycle, crashed at every storage op: a rotation
/// syncs the buffer's log file and starts a fresh one, acknowledged writes
/// land in the fresh file while the rotated buffer waits, then its flush
/// seals the manifest and the log retires the flushed buffer's file. Every
/// image reopens with every acknowledged write, and after one more write
/// and flush exactly one `.wal` remains. (No manifest names a log: a crash
/// between a rotation and a seal strands nothing the reopen does not
/// replay.)
#[test]
fn a_crash_anywhere_in_the_log_lifecycle_keeps_every_acknowledged_write() {
    let o = Options {
        maintenance: Maintenance::background(),
        ..opts()
    };
    let logs = |s: &dyn Storage| {
        let names = s.list().unwrap().into_iter();
        names.filter(|f| f.ends_with(".wal")).count()
    };
    // Writes 0..150 sit in a buffer; a crash `after` ops into the rest of
    // the lifecycle leaves the returned image and the keys acknowledged.
    let run = |after: Option<u64>| -> (MemStorage, Vec<u64>, u64) {
        let (storage, cut) = CrashStorage::new();
        let db = Db::open(Arc::clone(&storage) as Arc<dyn Storage>, o.clone()).unwrap();
        let mut acked: Vec<u64> = (0..150).collect();
        for &k in &acked {
            db.put(k, b"acked").unwrap();
        }
        db.pause_flushes();
        let start = cut.ops();
        if let Some(n) = after {
            cut.crash_after(n);
        }
        // Paused: the flush only rotates the buffer and its log.
        let rotated = db.flush();
        assert_eq!(rotated.is_ok(), db.immutable_memtables() == 1);
        acked.extend((150..200).filter(|&k| db.put(k, b"acked").is_ok()));
        db.resume_flushes();
        db.wait_for_maintenance();
        drop(db);
        (storage.image(), acked, cut.ops() - start)
    };
    let (whole, acked, total) = run(None);
    assert_eq!((acked.len(), logs(&whole)), (200, 1));
    assert!(total > 10, "the lifecycle spans many ops: {total}");
    for n in 0..=total {
        let (image, acked, _) = run(Some(n));
        let image = Arc::new(image);
        let db = Db::open(Arc::clone(&image) as Arc<dyn Storage>, opts())
            .unwrap_or_else(|e| panic!("crash after {n} ops: {e}"));
        for &k in &acked {
            assert_eq!(
                db.get(k).unwrap(),
                Some(b"acked".to_vec()),
                "crash after {n} ops: key {k}"
            );
        }
        db.put(9_000, b"after").unwrap();
        db.flush().unwrap();
        assert_eq!(logs(image.as_ref()), 1, "crash after {n} ops");
    }
}

/// A lone `Db` or a 2-shard `ShardedDb`, as the open crash walk drives it.
trait Engine {
    /// Put `key` and `key + 1 000` in one batch.
    fn put_pair(&self, key: u64);
    fn value(&self, key: u64) -> Option<Vec<u8>>;
}

fn pair(key: u64) -> WriteBatch {
    let mut batch = WriteBatch::new();
    batch.put(key, b"acked");
    batch.put(key + 1_000, b"acked");
    batch
}

impl Engine for Db {
    fn put_pair(&self, key: u64) {
        self.write(pair(key), &WriteOptions::default()).unwrap();
    }
    fn value(&self, key: u64) -> Option<Vec<u8>> {
        self.get(key).unwrap()
    }
}

impl Engine for ShardedDb {
    fn put_pair(&self, key: u64) {
        self.write(pair(key), &WriteOptions::default()).unwrap();
    }
    fn value(&self, key: u64) -> Option<Vec<u8>> {
        self.get(key).unwrap()
    }
}

fn open_engine<S: Storage + 'static>(
    storage: &Arc<S>,
    two_shards: bool,
) -> lsm_tree::Result<Box<dyn Engine>> {
    let storage = Arc::clone(storage) as Arc<dyn Storage>;
    Ok(if two_shards {
        let sharded = ShardedOptions::learned(2, (0..300).collect(), opts());
        Box::new(ShardedDb::open(storage, sharded)?)
    } else {
        Box::new(Db::open(storage, opts())?)
    })
}

/// An open crashed at every storage op, then reopened, for a lone `Db` and
/// a 2-shard `ShardedDb`. Two lives without a flush leave records in two log
/// files — the first life's, which the second open adopted, and the second
/// life's, whose last batch is torn. An open syncs the files it adopts,
/// removes those it does not need, creates a fresh one and seals manifests;
/// wherever a crash stops it, the next open serves every acknowledged write
/// and none of the torn batch, and the log files hold each record once.
#[test]
fn a_crash_anywhere_in_an_open_keeps_every_acknowledged_write() {
    let logs = |storage: &dyn Storage| {
        let mut names = storage.list().unwrap();
        names.retain(|n| n.ends_with(".wal"));
        names.sort_unstable();
        names
    };
    for two_shards in [false, true] {
        let storage = Arc::new(MemStorage::new());
        for keys in [0..40, 40..81] {
            let engine = open_engine(&storage, two_shards).unwrap();
            keys.for_each(|k| engine.put_pair(k));
        }
        let files = logs(storage.as_ref());
        assert_eq!(files.len(), 2, "{files:?}");
        // Tear the last batch, keys 80 and 1 080.
        let newest = lsm_io::read_all(storage.as_ref(), &files[1]).unwrap();
        let torn = &newest[..newest.len() - 7];
        storage.create(&files[1]).unwrap().append(torn).unwrap();
        let (crashing, control) = CrashStorage::over(storage.deep_clone());
        drop(open_engine(&crashing, two_shards).unwrap());
        let total = control.ops();
        assert!(total >= 7, "an open spans many ops: {total}");
        for n in 0..=total {
            let (crashing, control) = CrashStorage::over(storage.deep_clone());
            control.crash_after(n);
            let _ = open_engine(&crashing, two_shards);
            let after = Arc::new(crashing.image());
            let at = format!("two shards {two_shards}, crash after {n}/{total} ops");
            let engine = open_engine(&after, two_shards).unwrap_or_else(|e| panic!("{at}: {e}"));
            for k in 0..80 {
                for key in [k, k + 1_000] {
                    assert_eq!(
                        engine.value(key),
                        Some(b"acked".to_vec()),
                        "{at}: key {key}"
                    );
                }
            }
            let torn = (engine.value(80), engine.value(1_080));
            assert_eq!(torn, (None, None), "{at}: torn");
            let mut ranges = Vec::new();
            for name in logs(after.as_ref()) {
                let records = replay_records(after.as_ref(), &name).unwrap();
                ranges.extend(records.iter().map(|r| (r.first_seq, r.ops.len())));
            }
            let read = ranges.len();
            ranges.sort_unstable();
            ranges.dedup();
            assert_eq!((ranges.len(), read), (80, 80), "{at}: each record once");
        }
    }
}

/// The failure point is a *count*, so the walk can land the fault on each
/// successive operation of one flush — SSTable create, data appends, sync,
/// WAL rotation, manifest seal — and every landing must leave the engine
/// readable with all acknowledged data intact, in-process and across a
/// reopen. (The epoch'd manifest guarantees an older sealed manifest
/// survives whichever operation the fault refuses.)
#[test]
fn flush_fault_walk_is_clean_at_every_op() {
    let (storage, ctl) = CrashStorage::new();
    let db = Db::open(Arc::clone(&storage) as Arc<dyn Storage>, opts()).unwrap();
    for k in 0..1_000u64 {
        db.put(k, b"base").unwrap();
    }
    db.flush().unwrap();
    // Park exactly one table in L0 so the walked flush below crosses the
    // L0 trigger and must also run a compaction — the walk then covers
    // the compaction's own fault points (input removal vs manifest seal),
    // not just the flush's.
    while db.version().levels[0].is_empty() {
        for k in 5_000..5_050u64 {
            db.put(k, b"filler").unwrap();
        }
        db.flush().unwrap();
    }
    assert_eq!(db.version().levels[0].len(), 1);
    for k in 1_000..1_200u64 {
        db.put(k, b"pending").unwrap();
    }
    let compactions_before = db.stats().snapshot().compactions;
    // Walk the fault through every operation of the flush until one run
    // succeeds: each failing index must leave the engine readable, still
    // *logging* (a failed WAL rotation must never silently drop the
    // writer), and the retry (after healing) must succeed.
    let mut n = 0;
    loop {
        ctl.crash_after(n);
        match db.flush() {
            Ok(()) => break,
            Err(_) => {
                // The raw fault-point image must always reopen with all
                // acknowledged data: at every storage-operation boundary
                // an intact sealed manifest exists whose files all exist
                // (merged inputs and retired WALs are unlinked only after
                // the next manifest seals).
                let img = Db::open(Arc::new(storage.image()), opts())
                    .unwrap_or_else(|e| panic!("fault-point {n} image unopenable: {e}"));
                assert_eq!(
                    img.get(500).unwrap(),
                    Some(b"base".to_vec()),
                    "fault at {n}"
                );
                assert_eq!(
                    img.get(1_100).unwrap(),
                    Some(b"pending".to_vec()),
                    "fault at {n}"
                );
                drop(img);
                assert_eq!(db.get(500).unwrap(), Some(b"base".to_vec()), "fault at {n}");
                assert_eq!(
                    db.get(1_100).unwrap(),
                    Some(b"pending".to_vec()),
                    "fault at {n}"
                );
                ctl.disarm();
                // Acknowledged writes after the failed flush must be
                // durable *immediately*: the engine must still be logging
                // (a failed rotation must not drop the WAL writer) into a
                // log the on-disk manifest names (a stale manifest must be
                // repaired before the ack). Prove it against a crash image
                // taken right after the acknowledgement.
                db.put(2_000 + n, b"post-fault").unwrap();
                let img = Db::open(Arc::new(storage.image()), opts()).unwrap();
                assert_eq!(
                    img.get(2_000 + n).unwrap(),
                    Some(b"post-fault".to_vec()),
                    "write acknowledged after fault {n} is not crash-durable"
                );
            }
        }
        n += 1;
        assert!(n < 10_000, "flush never succeeded");
    }
    assert!(
        n > 3,
        "the walk should cross several distinct failure points"
    );
    assert!(
        db.stats().snapshot().compactions > compactions_before,
        "the walked flush must have compacted (or the walk missed the \
         input-removal fault points)"
    );
    // And a reopen from the (healed) storage agrees — including every
    // write acknowledged after a failed flush attempt.
    ctl.disarm();
    drop(db);
    let db = Db::open(storage as Arc<dyn Storage>, opts()).unwrap();
    assert_eq!(db.get(500).unwrap(), Some(b"base".to_vec()));
    assert_eq!(db.get(1_100).unwrap(), Some(b"pending".to_vec()));
    for i in 0..n {
        assert_eq!(
            db.get(2_000 + i).unwrap(),
            Some(b"post-fault".to_vec()),
            "write acknowledged after fault {i} was lost on reopen"
        );
    }
}

/// Deterministic durable state whose next `flush` must also run a
/// compaction (one table parked in L0, trigger at 2).
fn compacting_state() -> (Arc<lsm_io::CrashStorage>, Arc<lsm_io::CrashControl>, Db) {
    compacting_state_with(opts(), BASE_KEYS)
}

/// Keys `0..BASE_KEYS` are flushed as `base`; the next `BASE_KEYS..+200`
/// wait in the buffer as `pending`.
const BASE_KEYS: u64 = 1_000;

/// [`compacting_state`] under `o`, with `base` flushed keys.
fn compacting_state_with(
    o: Options,
    base: u64,
) -> (Arc<lsm_io::CrashStorage>, Arc<lsm_io::CrashControl>, Db) {
    let (storage, ctl) = CrashStorage::new();
    let db = Db::open(Arc::clone(&storage) as Arc<dyn Storage>, o).unwrap();
    for k in 0..base {
        db.put(k, b"base").unwrap();
    }
    db.flush().unwrap();
    while db.version().levels[0].is_empty() {
        for k in base + 4_000..base + 4_050 {
            db.put(k, b"filler").unwrap();
        }
        db.flush().unwrap();
    }
    for k in base..base + 200 {
        db.put(k, b"pending").unwrap();
    }
    (storage, ctl, db)
}

/// Require the crash image in `storage` to reopen under `o` with every
/// acknowledged key of a [`compacting_state_with`] of `base` keys, and with
/// no `.sst` the recovered version does not name.
fn assert_image_whole(storage: &lsm_io::CrashStorage, o: Options, base: u64, at: &str) {
    let img_storage = Arc::new(storage.image());
    let img = Db::open(Arc::clone(&img_storage) as Arc<dyn Storage>, o)
        .unwrap_or_else(|e| panic!("image at op {at} unopenable: {e}"));
    for k in (0..base).step_by(97) {
        assert_eq!(
            img.get(k).unwrap(),
            Some(b"base".to_vec()),
            "crash at {at}: lost flushed key {k}"
        );
    }
    for k in (base..base + 200).step_by(13) {
        assert_eq!(
            img.get(k).unwrap(),
            Some(b"pending".to_vec()),
            "crash at {at}: lost WAL-covered key {k}"
        );
    }
    // No orphans survive the reopen: every `.sst` in storage is named
    // by the recovered version (stranded compaction outputs swept).
    let live: HashSet<String> = table_names(&img).into_iter().collect();
    for name in img_storage.list().unwrap() {
        if name.ends_with(".sst") {
            assert!(
                live.contains(&name),
                "crash at {at}: orphan table {name} survived the reopen sweep"
            );
        }
    }
}

/// Fresh-state crash matrix over a flush-plus-compaction: for **every**
/// storage-operation index of the pipeline (SSTable build, WAL rotation,
/// compaction outputs, input removal, manifest seal), rebuild the same
/// state, crash there, and require the raw image to reopen with all
/// acknowledged data. This is the test that pins the removal/seal
/// ordering: merged inputs (and retired WALs) may be unlinked only after
/// the manifest that stops naming them is sealed, or the crash image's
/// only manifest points at deleted files and the database is gone. (The
/// incremental walk above cannot see this — a failed attempt's removes
/// are skipped and the compaction rotates to fresh inputs — so this
/// matrix rebuilds from scratch per index, like the sharded one.) The
/// open also sweeps what the crash stranded: every `.sst` left in the
/// image is a table of the recovered version.
#[test]
fn flush_compaction_crash_matrix_image_always_opens() {
    let (ctl_total, db) = {
        let (_s, ctl, db) = compacting_state();
        let before = db.stats().snapshot().compactions;
        let start = ctl.ops();
        db.flush().unwrap();
        assert!(
            db.stats().snapshot().compactions > before,
            "the measured flush must compact"
        );
        (ctl.ops() - start, db)
    };
    drop(db);
    let total = ctl_total;
    assert!(total > 10, "pipeline should span many ops: {total}");

    for n in 0..=total {
        let (storage, ctl, db) = compacting_state();
        ctl.crash_after(n);
        let outcome = db.flush();
        // A flush may report success a few ops early: everything after
        // the manifest seal is best-effort cleanup (`let _ = remove`).
        if n >= total {
            assert!(outcome.is_ok(), "full budget must flush: {n}/{total}");
        }
        drop(db);
        assert_image_whole(&storage, opts(), BASE_KEYS, &format!("{n}/{total}"));
    }
}

/// The same matrix over a compaction that runs in parallel with its own
/// seals: its output tables are large enough that each but the last trains
/// its index and filter on a helper thread while the merge fills the next
/// one. A crash at any op — a pending seal's tail, the next table's create,
/// the manifest seal — leaves an image that reopens whole and holds no
/// stranded output.
#[test]
fn parallel_compaction_crash_matrix_opens_and_sweeps_orphans() {
    const BASE: u64 = 6_000;
    fn popts() -> Options {
        Options {
            write_buffer_bytes: 512 << 10,
            sstable_target_bytes: 160 << 10,
            ..opts()
        }
    }
    let total = {
        let (_s, ctl, db) = compacting_state_with(popts(), BASE);
        let before = db.stats().snapshot();
        let start = ctl.ops();
        db.flush().unwrap();
        let after = db.stats().snapshot();
        assert!(
            after.compactions > before.compactions,
            "the measured flush must compact"
        );
        assert!(
            after.seals_off_thread > before.seals_off_thread,
            "the measured compaction must seal beside its merge"
        );
        ctl.ops() - start
    };
    assert!(total > 10, "pipeline should span many ops: {total}");

    for n in 0..=total {
        let (storage, ctl, db) = compacting_state_with(popts(), BASE);
        ctl.crash_after(n);
        let outcome = db.flush();
        if n >= total {
            assert!(outcome.is_ok(), "full budget must flush: {n}/{total}");
        }
        drop(db);
        assert_image_whole(&storage, popts(), BASE, &format!("{n}/{total}"));
    }
}

/// Options under which a buffer flushed above every key in the tree moves
/// to L1 unchanged: L0 compacts at one table, and a buffer's worth of
/// entries fits one table.
fn moving_opts(maintenance: Maintenance) -> Options {
    Options {
        l0_compaction_trigger: 1,
        sstable_target_bytes: 64 << 10,
        maintenance,
        ..opts()
    }
}

/// Every `.sst` name the version holds, each once: a table in two levels
/// would be listed twice.
fn table_names(db: &Db) -> Vec<String> {
    let version = db.version();
    let mut names: Vec<String> = version
        .levels
        .iter()
        .flatten()
        .map(|t| t.meta.name.clone())
        .collect();
    let count = names.len();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), count, "a table at two levels: {names:?}");
    names
}

/// A move whose edit is not sealed — the manifest seal fails, or, at level
/// granularity, reading the moved table to train its new level's model
/// fails — unlinks nothing: the moved file is the job's only output and a
/// live table, so it stays on storage, and a reopen reads every key.
#[test]
fn a_failed_move_leaves_its_table_on_storage() {
    for granularity in [IndexGranularity::Table, IndexGranularity::Level] {
        let inner = Arc::new(MemStorage::new());
        let (storage, faults) = FaultStorage::wrap(Arc::clone(&inner) as Arc<dyn Storage>);
        let mut o = moving_opts(Maintenance::background());
        o.index.granularity = granularity;
        let db = Db::open(storage as Arc<dyn Storage>, o.clone()).unwrap();
        db.pause_compactions();
        for k in 0..300u64 {
            db.put(k, b"moved").unwrap();
        }
        db.flush().unwrap();
        let name = db.version().levels[0][0].meta.name.clone();
        match granularity {
            IndexGranularity::Table => faults.poison("MANIFEST"),
            IndexGranularity::Level => faults.poison(&name),
        }
        db.resume_compactions();
        let deadline = Instant::now() + Duration::from_secs(30);
        while db.background_error().is_none() {
            assert!(
                Instant::now() < deadline,
                "{granularity:?}: the move never failed"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        // A failed job is retried, so it may have been counted again.
        assert!(
            db.stats().snapshot().compaction_moves >= 1,
            "{granularity:?}"
        );
        assert!(
            inner.exists(&name),
            "{granularity:?}: the moved table was unlinked"
        );
        faults.heal();
        for k in (0..300u64).step_by(7) {
            assert_eq!(
                db.get(k).unwrap(),
                Some(b"moved".to_vec()),
                "{granularity:?}"
            );
        }
        drop(db);
        // Reopened with no maintenance running: nothing rewrites the table
        // before it is looked at.
        o.maintenance = Maintenance::Synchronous;
        let db = Db::open(Arc::clone(&inner) as Arc<dyn Storage>, o).unwrap();
        assert_eq!(table_names(&db), [name], "{granularity:?}");
        for k in 0..300u64 {
            assert_eq!(
                db.get(k).unwrap(),
                Some(b"moved".to_vec()),
                "{granularity:?}"
            );
        }
    }
}

/// A failing compaction's error stands while flushes keep succeeding, and
/// goes once a compaction succeeds: one worker's success never clears the
/// other worker's error. The L0→L1 merge fails reading its poisoned L1
/// input; with compactions then paused, three flushes succeed and return
/// `Ok`, and the error is there after each of them (it was cleared by the
/// first, once).
#[test]
fn a_flush_never_clears_a_failing_compactions_error() {
    let (storage, faults) = FaultStorage::wrap(Arc::new(MemStorage::new()));
    let o = Options {
        sstable_target_bytes: 1 << 20,
        maintenance: Maintenance::background(),
        ..opts()
    };
    let db = Db::open(storage as Arc<dyn Storage>, o).unwrap();
    let load = |round: u64| {
        for k in 0..300u64 {
            db.put(k, &round.to_le_bytes()).unwrap();
        }
    };
    let wait = |what: &str, done: &dyn Fn() -> bool| {
        let deadline = Instant::now() + Duration::from_secs(30);
        while !done() {
            assert!(Instant::now() < deadline, "{what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    };
    for round in 0..2 {
        load(round);
        db.flush().unwrap();
    }
    db.wait_for_maintenance();
    let version = db.version();
    assert!(version.levels[0].is_empty(), "L0 merged into L1");
    let [l1] = version.levels[1].as_slice() else {
        panic!("one L1 table: {:?}", version.levels[1].len());
    };
    let poisoned = l1.meta.name.clone();

    db.pause_compactions();
    faults.poison(&poisoned);
    for round in 2..4 {
        load(round);
        db.flush().unwrap();
    }
    db.resume_compactions();
    wait("the compaction never failed", &|| {
        db.background_error().is_some()
    });
    db.pause_compactions();
    let failed = db.background_error().unwrap();
    assert!(failed.contains("injected fault"), "{failed}");

    for round in 4..7 {
        let flushes = db.stats().snapshot().flushes;
        load(round);
        let flushed = db.flush();
        let polls = Instant::now();
        while polls.elapsed() < Duration::from_millis(50) {
            assert_eq!(db.background_error(), Some(failed.clone()), "round {round}");
        }
        // The flush drained and says so: the compaction's error is not its.
        assert!(db.stats().snapshot().flushes > flushes, "round {round}");
        assert!(flushed.is_ok(), "round {round}: {flushed:?}");
    }

    faults.heal();
    db.resume_compactions();
    wait("no compaction succeeded", &|| {
        db.background_error().is_none()
    });
    db.wait_for_maintenance();
    assert!(db.version().levels[0].is_empty());
    assert_eq!(db.get(17).unwrap(), Some(6u64.to_le_bytes().to_vec()));
    db.close().unwrap();
}

/// A sequential load, on which jobs move tables at every level, crashed at
/// every storage-operation boundary: the image reopens with every
/// acknowledged write, and no table is named at two levels.
#[test]
fn sequential_load_crash_matrix_keeps_every_acknowledged_write() {
    const BATCHES: u64 = 60;
    const PER_BATCH: u64 = 40;
    let load = |db: &Db| -> u64 {
        for b in 0..BATCHES {
            let mut batch = WriteBatch::new();
            for k in b * PER_BATCH..(b + 1) * PER_BATCH {
                batch.put(k, &k.to_le_bytes());
            }
            if db.write(batch, &WriteOptions::default()).is_err() {
                return b;
            }
        }
        BATCHES
    };
    let o = Options {
        write_buffer_bytes: 4 << 10,
        sstable_target_bytes: 8 << 10,
        size_ratio: 2,
        ..moving_opts(Maintenance::Synchronous)
    };
    let total = {
        let (storage, ctl) = CrashStorage::new();
        let traced = Options {
            observability: true,
            ..o.clone()
        };
        let db = Db::open(storage as Arc<dyn Storage>, traced).unwrap();
        let start = ctl.ops();
        assert_eq!(load(&db), BATCHES);
        let events = db.observability().unwrap().observer().drain();
        let begins = events
            .iter()
            .filter(|e| e.kind == EventKind::CompactionBegin);
        let moved_from: std::collections::BTreeSet<u64> = begins
            .filter(|b| {
                let end = events
                    .iter()
                    .find(|e| e.kind == EventKind::CompactionEnd && e.span == b.span);
                end.is_some_and(|e| (e.a, e.b) == (0, 0))
            })
            .map(|b| b.a)
            .collect();
        assert_eq!(moved_from, (0..4).collect(), "moves at L0 to L3");
        assert!(db.stats().snapshot().compaction_moves >= 4);
        ctl.ops() - start
    };
    for n in 0..=total {
        let (storage, ctl) = CrashStorage::new();
        let db = Db::open(Arc::clone(&storage) as Arc<dyn Storage>, o.clone()).unwrap();
        ctl.crash_after(n);
        let acked = load(&db);
        if n == total {
            assert_eq!(acked, BATCHES, "the whole load fits the budget");
        }
        drop(db);
        let img = Db::open(Arc::new(storage.image()), o.clone())
            .unwrap_or_else(|e| panic!("image at op {n}/{total} unopenable: {e}"));
        table_names(&img);
        for k in 0..acked * PER_BATCH {
            assert_eq!(
                img.get(k).unwrap(),
                Some(k.to_le_bytes().to_vec()),
                "crash at {n}/{total}: key {k}"
            );
        }
    }
}
