//! Durability integration tests: WAL replay on reopen, including writes
//! that never reached a flush, on both in-memory and real-filesystem
//! storage — and batch atomicity: a torn tail drops a whole `WriteBatch`,
//! never a prefix of it.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use learned_index::IndexKind;
use lsm_io::{FileStorage, Hook, Interposed, MemStorage, Op, Storage};
use lsm_tree::wal::{encode_ops, replay_records, WalWriter};
use lsm_tree::{
    BatchOp, Db, EntryKind, Options, ShardedDb, ShardedOptions, WriteBatch, WriteOptions,
};
use proptest::prelude::*;

fn opts() -> Options {
    let mut o = Options::small_for_tests();
    o.index.kind = IndexKind::Pgm;
    o
}

#[test]
fn unflushed_writes_survive_reopen() {
    let storage: Arc<dyn Storage> = Arc::new(MemStorage::new());
    {
        let db = Db::open(Arc::clone(&storage), opts()).unwrap();
        // Small enough to stay in the memtable (no flush).
        for k in 0..50u64 {
            db.put(k, format!("wal-{k}").as_bytes()).unwrap();
        }
        db.delete(7).unwrap();
        assert_eq!(db.stats().snapshot().flushes, 0, "must not have flushed");
        // Dropped without flush: simulates a crash.
    }
    let db = Db::open(storage, opts()).unwrap();
    assert_eq!(db.get(3).unwrap(), Some(b"wal-3".to_vec()));
    assert_eq!(db.get(7).unwrap(), None, "tombstone replayed");
    assert_eq!(db.get(49).unwrap(), Some(b"wal-49".to_vec()));
}

#[test]
fn replay_preserves_sequence_ordering() {
    let storage: Arc<dyn Storage> = Arc::new(MemStorage::new());
    {
        let db = Db::open(Arc::clone(&storage), opts()).unwrap();
        db.put(1, b"first").unwrap();
        db.put(1, b"second").unwrap();
        db.put(1, b"third").unwrap();
    }
    let db = Db::open(Arc::clone(&storage), opts()).unwrap();
    assert_eq!(db.get(1).unwrap(), Some(b"third".to_vec()));
    // New writes continue after the replayed sequence numbers.
    db.put(1, b"fourth").unwrap();
    assert_eq!(db.get(1).unwrap(), Some(b"fourth".to_vec()));
}

#[test]
fn mixed_flushed_and_unflushed_state_recovers() {
    let storage: Arc<dyn Storage> = Arc::new(MemStorage::new());
    {
        let db = Db::open(Arc::clone(&storage), opts()).unwrap();
        for k in 0..2_000u64 {
            db.put(k, b"flushed").unwrap(); // crosses several flushes
        }
        for k in 2_000..2_020u64 {
            db.put(k, b"pending").unwrap(); // stays in the memtable
        }
    }
    let db = Db::open(storage, opts()).unwrap();
    assert_eq!(db.get(500).unwrap(), Some(b"flushed".to_vec()));
    assert_eq!(db.get(2_010).unwrap(), Some(b"pending".to_vec()));
}

#[test]
fn old_wals_are_retired_after_flush() {
    let storage: Arc<dyn Storage> = Arc::new(MemStorage::new());
    let db = Db::open(Arc::clone(&storage), opts()).unwrap();
    for k in 0..5_000u64 {
        db.put(k, &[1u8; 16]).unwrap();
    }
    db.flush().unwrap();
    let wals: Vec<String> = storage
        .list()
        .unwrap()
        .into_iter()
        .filter(|n| n.ends_with(".wal"))
        .collect();
    assert_eq!(wals.len(), 1, "exactly one live log: {wals:?}");
}

/// A storage hook that records every log file's create, append and sync,
/// in order.
#[derive(Default)]
struct LogOps(Mutex<Vec<String>>);

impl Hook for LogOps {
    fn before(&self, op: Op<'_>) -> io::Result<()> {
        let (verb, name) = match op {
            Op::Create(name) => ("create", name),
            Op::Append(name, _) => ("append", name),
            Op::Sync(name) => ("sync", name),
            _ => return Ok(()),
        };
        if name.ends_with(".wal") {
            self.0.lock().unwrap().push(format!("{verb} {name}"));
        }
        Ok(())
    }
}

/// A durable write in a newer log file never outlives an acknowledged
/// write in an older one: a rotation syncs the file it retires, before the
/// fresh file exists, when that file holds records appended since its last
/// sync — and adds no sync when its last record was synced already. A
/// durable batch is one append and one sync.
#[test]
fn a_rotation_syncs_the_log_it_retires_first() {
    let ops = Arc::new(LogOps::default());
    let memory: Arc<dyn Storage> = Arc::new(MemStorage::new());
    let storage = Arc::new(Interposed::hooked(memory, Arc::clone(&ops)));
    let db = Db::open(storage, opts()).unwrap();
    let mark = || ops.0.lock().unwrap().len();
    let since = |from: usize| ops.0.lock().unwrap()[from..].to_vec();
    assert_eq!(since(0), ["create 000001.wal"]);

    for k in 0..50u64 {
        db.put(k, b"unsynced").unwrap();
    }
    let rotation = mark();
    db.flush().unwrap();
    assert_eq!(since(rotation), ["sync 000001.wal", "create 000002.wal"]);

    let mut batch = WriteBatch::new();
    batch.put(1_000, b"durable");
    batch.put(1_001, b"durable");
    let durable = mark();
    db.write(batch, &WriteOptions::durable()).unwrap();
    assert_eq!(since(durable), ["append 000002.wal", "sync 000002.wal"]);
    let rotation = mark();
    db.flush().unwrap();
    // 000003 is the first flush's table.
    assert_eq!(
        since(rotation),
        ["create 000004.wal"],
        "a synced file is not synced again"
    );
}

/// A storage hook that records every mutating op, with an append's length.
#[derive(Default)]
struct AllOps(Mutex<Vec<String>>);

impl Hook for AllOps {
    fn before(&self, op: Op<'_>) -> io::Result<()> {
        let line = match op {
            Op::Create(name) => format!("create {name}"),
            Op::Append(name, data) => format!("append {name} {}", data.len()),
            Op::Sync(name) => format!("sync {name}"),
            Op::Remove(name) => format!("remove {name}"),
            Op::Open(_) | Op::Read(_) => return Ok(()),
        };
        self.0.lock().unwrap().push(line);
        Ok(())
    }
}

/// A reopen writes no log byte. 600 unsynced batches of 32 100-byte puts
/// (2 182 200 B of log, one file under a 4 MiB buffer) are closed without
/// a flush and reopened three times, by a lone `Db` and by a 2-shard
/// `ShardedDb`. Each open syncs the file it adopts, removes the empty file
/// the open before it started, and creates one at the next number; every
/// other op is a manifest seal's. (When recovery copied the log, each of
/// these opens appended all 2 182 200 B again, in 600 appends.)
#[test]
fn a_reopen_writes_no_log_byte() {
    let opts = Options {
        write_buffer_bytes: 4 << 20,
        ..Options::small_for_tests()
    };
    let sharded_opts = ShardedOptions::learned(2, (0..19_200).collect(), opts.clone());
    let open = |storage: &Arc<dyn Storage>, sharded: bool| -> Box<dyn Fn(WriteBatch)> {
        let storage = Arc::clone(storage);
        if sharded {
            let db = ShardedDb::open(storage, sharded_opts.clone()).unwrap();
            Box::new(move |b| {
                db.write(b, &WriteOptions::default()).unwrap();
            })
        } else {
            let db = Db::open(storage, opts.clone()).unwrap();
            Box::new(move |b| {
                db.write(b, &WriteOptions::default()).unwrap();
            })
        }
    };
    for sharded in [false, true] {
        let ops = Arc::new(AllOps::default());
        let memory: Arc<dyn Storage> = Arc::new(MemStorage::new());
        let storage: Arc<dyn Storage> = Arc::new(Interposed::hooked(memory, Arc::clone(&ops)));
        let write = open(&storage, sharded);
        for b in 0..600u64 {
            let mut batch = WriteBatch::new();
            for k in b * 32..(b + 1) * 32 {
                batch.put(k, &[7; 100]);
            }
            write(batch);
        }
        drop(write);
        let log = lsm_io::read_all(storage.as_ref(), "000001.wal").unwrap();
        assert_eq!(log.len(), 2_182_200);
        for round in 2..5 {
            let from = ops.0.lock().unwrap().len();
            drop(open(&storage, sharded));
            let opened = ops.0.lock().unwrap()[from..].to_vec();
            let (wal, other): (Vec<_>, Vec<_>) =
                opened.into_iter().partition(|op| op.contains(".wal"));
            let mut expected = vec!["sync 000001.wal".to_string()];
            if round > 2 {
                expected.push(format!("remove {:06}.wal", round - 1));
            }
            expected.push(format!("create {round:06}.wal"));
            assert_eq!(wal, expected, "sharded {sharded}, open {round}");
            let manifest = |op: &String| op.contains("MANIFEST-");
            assert!(other.iter().all(manifest), "sharded {sharded}: {other:?}");
            assert_eq!(
                lsm_io::read_all(storage.as_ref(), "000001.wal").unwrap(),
                log
            );
        }
    }
}

/// A storage hook that fails the next log sync once armed.
#[derive(Default)]
struct FailNextLogSync(AtomicBool);

impl Hook for FailNextLogSync {
    fn before(&self, op: Op<'_>) -> io::Result<()> {
        match op {
            Op::Sync(name) if name.ends_with(".wal") && self.0.swap(false, Ordering::SeqCst) => {
                Err(io::Error::other("injected log sync failure"))
            }
            _ => Ok(()),
        }
    }
}

/// A durable write whose log sync fails is not acknowledged, and its
/// sequence range is never reissued: recovery reads each range once, so a
/// later batch at the failed one's range would be skipped as its copy. The
/// write acknowledged after the failure survives a reopen, and a flush
/// after a failure settles (the failed range publishes as an empty group).
#[test]
fn a_write_after_a_failed_log_sync_survives_reopen() {
    let fail = Arc::new(FailNextLogSync::default());
    let memory: Arc<dyn Storage> = Arc::new(MemStorage::new());
    let open = || {
        let storage = Interposed::hooked(Arc::clone(&memory), Arc::clone(&fail));
        Db::open(Arc::new(storage), opts()).unwrap()
    };
    let put = |db: &Db, key: u64, value: &[u8]| {
        let mut batch = WriteBatch::new();
        batch.put(key, value);
        db.write(batch, &WriteOptions::durable())
    };
    let db = open();
    put(&db, 1, b"before").unwrap();
    fail.0.store(true, Ordering::SeqCst);
    assert!(put(&db, 2, b"unacknowledged").is_err());
    put(&db, 3, b"acknowledged").unwrap();
    drop(db);

    let db = open();
    assert_eq!(db.get(1).unwrap(), Some(b"before".to_vec()));
    assert_eq!(db.get(3).unwrap(), Some(b"acknowledged".to_vec()));
    fail.0.store(true, Ordering::SeqCst);
    assert!(put(&db, 4, b"unacknowledged").is_err());
    db.flush().unwrap();
    put(&db, 5, b"acknowledged").unwrap();
    drop(db);
    let db = open();
    assert_eq!(db.get(3).unwrap(), Some(b"acknowledged".to_vec()));
    assert_eq!(db.get(5).unwrap(), Some(b"acknowledged".to_vec()));
}

/// Clip the live WAL to its first `keep` bytes, simulating a crash that
/// tore the tail of the log mid-append.
fn truncate_wal(storage: &Arc<dyn Storage>, keep: usize) {
    let wal_name = storage
        .list()
        .unwrap()
        .into_iter()
        .find(|n| n.ends_with(".wal"))
        .expect("live wal");
    let full = lsm_io::read_all(storage.as_ref(), &wal_name).unwrap();
    assert!(keep <= full.len(), "cannot keep {keep} of {}", full.len());
    let mut f = storage.create(&wal_name).unwrap();
    f.append(&full[..keep]).unwrap();
}

/// Bytes currently in the live WAL.
fn wal_len(storage: &Arc<dyn Storage>) -> usize {
    let wal_name = storage
        .list()
        .unwrap()
        .into_iter()
        .find(|n| n.ends_with(".wal"))
        .expect("live wal");
    storage.size_of(&wal_name).unwrap() as usize
}

#[test]
fn intact_batch_replays_all_of_it() {
    let storage: Arc<dyn Storage> = Arc::new(MemStorage::new());
    {
        let db = Db::open(Arc::clone(&storage), opts()).unwrap();
        let mut batch = WriteBatch::new();
        for k in 0..40u64 {
            batch.put(k, format!("b{k}").as_bytes());
        }
        batch.delete(3);
        db.write(batch, &WriteOptions::default()).unwrap();
        // Crash: dropped without flush.
    }
    let db = Db::open(storage, opts()).unwrap();
    for k in (0..40u64).filter(|&k| k != 3) {
        assert_eq!(db.get(k).unwrap(), Some(format!("b{k}").into_bytes()));
    }
    assert_eq!(db.get(3).unwrap(), None, "in-batch delete replayed");
}

/// Write one intact single-op batch, then a 40-op batch, then tear the log
/// down to `keep_of_total(total_len, first_frame_end)` bytes and reopen.
fn torn_batch_scenario(keep_of_total: impl Fn(usize, usize) -> usize) {
    let storage: Arc<dyn Storage> = Arc::new(MemStorage::new());
    let first_batch_end;
    {
        let db = Db::open(Arc::clone(&storage), opts()).unwrap();
        let mut intact = WriteBatch::new();
        intact.put(1, b"intact");
        db.write(intact, &WriteOptions::durable()).unwrap();
        first_batch_end = wal_len(&storage);
        let mut torn = WriteBatch::new();
        for k in 100..140u64 {
            torn.put(k, &[0xab; 24]);
        }
        db.write(torn, &WriteOptions::default()).unwrap();
    }
    let total = wal_len(&storage);
    truncate_wal(&storage, keep_of_total(total, first_batch_end));

    let db = Db::open(storage, opts()).unwrap();
    assert_eq!(db.get(1).unwrap(), Some(b"intact".to_vec()));
    for k in 100..140u64 {
        assert_eq!(db.get(k).unwrap(), None, "no prefix of the torn batch");
    }
}

#[test]
fn torn_tail_mid_batch_replays_none_of_that_batch() {
    // Cut only a handful of trailing bytes: most of the 40 operations are
    // still physically present in the log, yet none may replay.
    torn_batch_scenario(|total, _first_end| total - 7);
    // Cut one byte past the first frame: the second batch's header alone
    // survives, and still nothing of it may replay.
    torn_batch_scenario(|_total, first_end| first_end + 1);
}

/// Unflushed writes survive two crashes: a reopen keeps the log files it
/// replays as they lie, so the second crash finds them again, beside the
/// file the second life wrote.
#[test]
fn unflushed_writes_survive_two_crashes() {
    let storage: Arc<dyn Storage> = Arc::new(MemStorage::new());
    let wals = |storage: &Arc<dyn Storage>| -> Vec<String> {
        let mut names = storage.list().unwrap();
        names.retain(|n| n.ends_with(".wal"));
        names.sort_unstable();
        names
    };
    {
        let db = Db::open(Arc::clone(&storage), opts()).unwrap();
        let mut batch = WriteBatch::new();
        batch.put(1, b"first-life");
        batch.delete(2);
        db.write(batch, &WriteOptions::default()).unwrap();
    }
    {
        let db = Db::open(Arc::clone(&storage), opts()).unwrap();
        assert_eq!(db.stats().snapshot().flushes, 0);
        db.put(3, b"second-life").unwrap();
        // Crash again, still without a flush.
    }
    let db = Db::open(Arc::clone(&storage), opts()).unwrap();
    assert_eq!(db.get(1).unwrap(), Some(b"first-life".to_vec()));
    assert_eq!(db.get(2).unwrap(), None, "tombstone survives two crashes");
    assert_eq!(db.get(3).unwrap(), Some(b"second-life".to_vec()));
    // Each life's file, and the third life's empty one.
    assert_eq!(wals(&storage), ["000001.wal", "000002.wal", "000003.wal"]);
    db.flush().unwrap();
    assert_eq!(wals(&storage).len(), 1, "a flush retires the adopted files");
    drop(db);

    // The same through both record kinds: a crash leaves a single batch
    // and a fused group of three unflushed. (A third kind, the cross-shard
    // prepare, is gone: a sharded database logs each batch as one record of
    // these in its one log.)
    let op = |kind, key, value: &[u8]| BatchOp {
        kind,
        key,
        value: value.to_vec(),
    };
    let (put, delete) = (EntryKind::Put, EntryKind::Delete);
    let single = vec![op(put, 1, b"one"), op(delete, 2, b""), op(put, 3, b"")];
    let members = [
        vec![op(put, 10, b"a1"), op(delete, 1, b"")],
        vec![op(put, 12, &[0xab; 24])],
        vec![op(delete, 13, b""), op(put, 10, b"a2")],
    ];
    let storage: Arc<dyn Storage> = Arc::new(MemStorage::new());
    drop(Db::open(Arc::clone(&storage), opts()).unwrap());
    let [written] = &wals(&storage)[..] else {
        panic!("one empty log: {:?}", wals(&storage))
    };
    {
        let mut log = WalWriter::create(storage.as_ref(), written).unwrap();
        log.append_batch(1, &single).unwrap();
        let encoded: Vec<Vec<u8>> = members.iter().map(|m| encode_ops(m)).collect();
        let parts: Vec<&[u8]> = encoded.iter().map(Vec::as_slice).collect();
        log.append_encoded(4, 5, &parts).unwrap();
    }
    let check = |db: &Db| {
        assert_eq!(db.latest_seq(), 8);
        assert_eq!(db.get(1).unwrap(), None, "deleted by the group");
        assert_eq!(db.get(3).unwrap(), Some(vec![]), "empty value");
        assert_eq!(db.get(10).unwrap(), Some(b"a2".to_vec()));
        assert_eq!(db.get(12).unwrap(), Some(vec![0xab; 24]));
    };
    let bytes = lsm_io::read_all(storage.as_ref(), written).unwrap();
    let records = replay_records(storage.as_ref(), written).unwrap();
    let got: Vec<_> = records.iter().map(|r| (r.first_seq, &r.ops[..])).collect();
    let group = members.concat();
    assert_eq!(got, [(1, &single[..]), (4, &group[..])]);
    // Each reopen adopts the file and leaves its bytes as they were.
    for _ in 0..2 {
        check(&Db::open(Arc::clone(&storage), opts()).unwrap());
        assert_eq!(lsm_io::read_all(storage.as_ref(), written).unwrap(), bytes);
        assert_eq!(wals(&storage).len(), 2, "the adopted file and an empty one");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Reopen-after-crash: write a prefix of batches, tear the log at an
    /// arbitrary byte, reopen. Every batch whose frame survived must replay
    /// in full; every later batch must vanish in full — all-or-nothing per
    /// batch, regardless of where the tear lands.
    #[test]
    fn crash_replay_is_batch_atomic(
        batch_sizes in prop::collection::vec(1usize..20, 1..8),
        cut_fraction in 0.0f64..1.0,
    ) {
        let storage: Arc<dyn Storage> = Arc::new(MemStorage::new());
        // Frame boundaries: frame_ends[i] = wal length after batch i.
        let mut frame_ends = Vec::new();
        {
            let db = Db::open(Arc::clone(&storage), opts()).unwrap();
            for (i, &size) in batch_sizes.iter().enumerate() {
                let mut batch = WriteBatch::new();
                for j in 0..size {
                    let k = (i * 1_000 + j) as u64;
                    batch.put(k, format!("v{i}-{j}").as_bytes());
                }
                db.write(batch, &WriteOptions::default()).unwrap();
                frame_ends.push(wal_len(&storage));
            }
        }
        let total = *frame_ends.last().unwrap();
        let cut = (total as f64 * cut_fraction) as usize;
        truncate_wal(&storage, cut.min(total));
        // Batches whose full frame fits within the cut survive.
        let surviving = frame_ends.iter().filter(|&&end| end <= cut).count();

        let db = Db::open(storage, opts()).unwrap();
        for (i, &size) in batch_sizes.iter().enumerate() {
            for j in 0..size {
                let k = (i * 1_000 + j) as u64;
                let got = db.get(k).unwrap();
                if i < surviving {
                    prop_assert_eq!(
                        got,
                        Some(format!("v{i}-{j}").into_bytes()),
                        "batch {} op {} must survive (cut {}/{})", i, j, cut, total
                    );
                } else {
                    prop_assert_eq!(
                        got,
                        None,
                        "batch {} op {} must vanish (cut {}/{})", i, j, cut, total
                    );
                }
            }
        }
    }
}

#[test]
fn file_storage_roundtrip_with_wal() {
    let dir = std::env::temp_dir().join(format!("learned-lsm-dur-{}", std::process::id()));
    let storage: Arc<dyn Storage> = Arc::new(FileStorage::new(&dir).unwrap());
    {
        let db = Db::open(Arc::clone(&storage), opts()).unwrap();
        for k in 0..3_000u64 {
            db.put(k * 2, format!("disk-{k}").as_bytes()).unwrap();
        }
        db.put(99_999, b"tail").unwrap();
    }
    {
        let db = Db::open(Arc::clone(&storage), opts()).unwrap();
        assert_eq!(db.get(4_000).unwrap(), Some(b"disk-2000".to_vec()));
        assert_eq!(db.get(99_999).unwrap(), Some(b"tail".to_vec()));
        assert_eq!(db.get(1).unwrap(), None);
    }
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Background maintenance: shutdown and crash recovery. Acknowledged writes
// must survive (a) a point-in-time "crash image" taken while the immutable
// queue is non-empty, and (b) a clean drop that drains workers mid-flight.
// ---------------------------------------------------------------------------

use lsm_tree::Maintenance;

fn background_opts() -> Options {
    let mut o = opts();
    o.maintenance = Maintenance::background();
    o
}

/// Copy every file of `storage` into a fresh `MemStorage` — a point-in-time
/// disk image, i.e. what a crash would leave behind.
fn disk_image(storage: &Arc<dyn Storage>) -> Arc<dyn Storage> {
    let image = MemStorage::new();
    for name in storage.list().unwrap() {
        let data = lsm_io::read_all(storage.as_ref(), &name).unwrap();
        let mut f = image.create(&name).unwrap();
        f.append(&data).unwrap();
        f.sync().unwrap();
    }
    Arc::new(image)
}

#[test]
fn background_crash_with_queued_memtables_loses_no_acknowledged_write() {
    let storage: Arc<dyn Storage> = Arc::new(MemStorage::new());
    let o = background_opts();
    let db = Db::open(Arc::clone(&storage), o.clone()).unwrap();
    // Freeze both worker pools so the on-disk state stays put while we
    // image it: rotations still happen (they are the writer's job), but
    // nothing flushes and nothing compacts.
    db.pause_flushes();
    db.pause_compactions();
    let mut key = 0u64;
    while db.immutable_memtables() < 2 {
        db.put(key, format!("imm-{key}").as_bytes()).unwrap();
        key += 1;
    }
    // Plus writes that only live in the active memtable + active WAL.
    for extra in 0..20u64 {
        db.put(1_000_000 + extra, b"active").unwrap();
    }
    db.delete(0).unwrap();
    assert!(db.immutable_memtables() >= 2, "queue is non-empty");
    assert_eq!(db.stats().snapshot().flushes, 0, "nothing flushed yet");

    // (a) Crash: a point-in-time disk image, taken while every worker is
    // idle (manifest must already name one WAL per queued memtable plus
    // the active one).
    let crashed = Db::open(disk_image(&storage), o.clone()).unwrap();
    for probe in (1..key).step_by(13) {
        assert_eq!(
            crashed.get(probe).unwrap(),
            Some(format!("imm-{probe}").into_bytes()),
            "queued write {probe} after crash"
        );
    }
    assert_eq!(crashed.get(1_000_005).unwrap(), Some(b"active".to_vec()));
    assert_eq!(crashed.get(0).unwrap(), None, "tombstone replayed");

    // (b) Clean drop: workers drain the queue (flushes override the pause
    // on shutdown), then a reopen finds everything — now in SSTables.
    drop(db);
    let reopened = Db::open(storage, o).unwrap();
    assert!(
        reopened.stats().snapshot().flushes == 0,
        "drained at shutdown: reopen replays at most the active WAL"
    );
    for probe in (1..key).step_by(7) {
        assert_eq!(
            reopened.get(probe).unwrap(),
            Some(format!("imm-{probe}").into_bytes()),
            "queued write {probe} after drop + reopen"
        );
    }
    assert_eq!(reopened.get(1_000_019).unwrap(), Some(b"active".to_vec()));
    assert_eq!(reopened.get(0).unwrap(), None);
}

#[test]
fn background_drop_during_inflight_compaction_loses_nothing() {
    let storage: Arc<dyn Storage> = Arc::new(MemStorage::new());
    let o = background_opts();
    {
        let db = Db::open(Arc::clone(&storage), o.clone()).unwrap();
        // Enough churn that flushes and compactions are genuinely racing
        // the drop below (no quiescing: Drop must drain cleanly).
        for k in 0..3_000u64 {
            db.put(k, format!("c{k}").as_bytes()).unwrap();
        }
        assert_eq!(db.background_error(), None);
        // Dropped with whatever flush/compaction happens to be in flight.
    }
    let db = Db::open(storage, o).unwrap();
    for k in (0..3_000u64).step_by(59) {
        assert_eq!(
            db.get(k).unwrap(),
            Some(format!("c{k}").into_bytes()),
            "key {k} after mid-maintenance drop"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Background-mode extension of the reopen-after-crash property: any
    /// sequence of acknowledged batches survives (a) a point-in-time disk
    /// image while flushes are withheld and (b) a draining drop + reopen —
    /// regardless of how the batches land relative to rotations.
    #[test]
    fn background_acknowledged_batches_survive_crash_and_drop(
        batch_sizes in prop::collection::vec(1usize..24, 1..10),
        withhold_flushes in any::<bool>(),
    ) {
        let storage: Arc<dyn Storage> = Arc::new(MemStorage::new());
        let o = background_opts();
        let db = Db::open(Arc::clone(&storage), o.clone()).unwrap();
        if withhold_flushes {
            db.pause_flushes();
            db.pause_compactions();
        }
        for (i, &size) in batch_sizes.iter().enumerate() {
            let mut batch = WriteBatch::new();
            for j in 0..size {
                let k = (i * 1_000 + j) as u64;
                batch.put(k, format!("v{i}-{j}").as_bytes());
            }
            db.write(batch, &WriteOptions::default()).unwrap();
        }
        if withhold_flushes {
            // Workers are frozen: the disk image is a valid crash state.
            let crashed = Db::open(disk_image(&storage), o.clone()).unwrap();
            for (i, &size) in batch_sizes.iter().enumerate() {
                for j in 0..size {
                    let k = (i * 1_000 + j) as u64;
                    prop_assert_eq!(
                        crashed.get(k).unwrap(),
                        Some(format!("v{i}-{j}").into_bytes()),
                        "crash image lost batch {} op {}", i, j
                    );
                }
            }
        }
        drop(db);
        let reopened = Db::open(storage, o).unwrap();
        for (i, &size) in batch_sizes.iter().enumerate() {
            for j in 0..size {
                let k = (i * 1_000 + j) as u64;
                prop_assert_eq!(
                    reopened.get(k).unwrap(),
                    Some(format!("v{i}-{j}").into_bytes()),
                    "drop + reopen lost batch {} op {}", i, j
                );
            }
        }
    }
}
