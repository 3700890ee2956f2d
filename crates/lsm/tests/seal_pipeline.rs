//! The seal pipeline: a finished table trains its index and builds its
//! filter on a helper thread while the merge fills the next table, and
//! still reaches storage exactly as an inline seal does.
//!
//! * `loads_make_the_inline_storage_ops`: synchronous loads in three
//!   buffer / table shapes and one bulk load make the same sequence of
//!   mutating storage operations — every create, append (length and
//!   content digest), sync and remove, in order — with the helper and with
//!   the thread budget leased empty. The digests were recorded from these
//!   loads when every table sealed inline.
//! * a failure while a seal is pending — the pending table's index append,
//!   or the next table's create — fails the compaction with `Error::Io`,
//!   installs none of its outputs, returns the helper's permit, and leaves
//!   only orphans the next open sweeps.
//!
//! The tests lease from the one process-wide thread budget, so they take
//! `BUDGET` in turn.

use std::io;
use std::sync::{Arc, Mutex, MutexGuard};

use learned_index::IndexKind;
use lsm_io::{FaultControl, FaultStorage, Hook, Interposed, MemStorage, Op, Storage};
use lsm_tree::compaction::{LevelWriter, TableContext};
use lsm_tree::scheduler::borrow_subcompaction_threads;
use lsm_tree::stats::DbStats;
use lsm_tree::{Db, Error, IndexChoice, Maintenance, Options, WriteBatch, WriteOptions};

static BUDGET: Mutex<()> = Mutex::new(());

fn budget() -> MutexGuard<'static, ()> {
    BUDGET.lock().unwrap_or_else(|e| e.into_inner())
}

/// FNV-1a, 64-bit.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

type Log = Arc<Mutex<Vec<String>>>;

/// A storage hook that logs every mutating operation in the order it
/// arrives.
struct Recording(Log);

impl Recording {
    fn over(inner: Arc<dyn Storage>) -> (Arc<dyn Storage>, Log) {
        let log = Log::default();
        let hook = Arc::new(Recording(Arc::clone(&log)));
        (Arc::new(Interposed::hooked(inner, hook)), log)
    }
}

impl Hook for Recording {
    fn before(&self, op: Op<'_>) -> io::Result<()> {
        let line = match op {
            Op::Create(name) => format!("create {name}"),
            Op::Append(name, data) => format!("append {name} {} {:016x}", data.len(), fnv(data)),
            Op::Sync(name) => format!("sync {name}"),
            Op::Remove(name) => format!("remove {name}"),
            Op::Open(_) | Op::Read(_) => return Ok(()),
        };
        self.0.lock().unwrap().push(line);
        Ok(())
    }
}

const VALUE_WIDTH: usize = 100;

/// A synchronous engine with `buffer` / `table` bytes, PGM tables of
/// 100-byte values and two L0 tables to a compaction.
fn opts(buffer: usize, table: u64) -> Options {
    Options {
        write_buffer_bytes: buffer,
        sstable_target_bytes: table,
        value_width: VALUE_WIDTH,
        bloom_bits_per_key: 10,
        index: IndexChoice::with_boundary(IndexKind::Pgm, 64),
        block_cache_bytes: 256 << 10,
        l0_compaction_trigger: 2,
        maintenance: Maintenance::Synchronous,
        ..Options::default()
    }
}

/// The `i`-th key of a fixed scattered order.
fn key(i: u64) -> u64 {
    i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 8
}

fn value(k: u64) -> Vec<u8> {
    (0..VALUE_WIDTH)
        .map(|j| (k >> (j % 8)) as u8 ^ j as u8)
        .collect()
}

/// Write keys `from..to` in batches of 32.
fn write(db: &Db, keys: std::ops::Range<u64>) {
    let keys: Vec<u64> = keys.collect();
    for chunk in keys.chunks(32) {
        let mut batch = WriteBatch::with_capacity(chunk.len());
        for &i in chunk {
            batch.put(key(i), &value(key(i)));
        }
        db.write(batch, &WriteOptions::default()).unwrap();
    }
}

/// What one load did to storage: the digest and length of its op log, and
/// how many tables sealed off-thread.
#[derive(Debug, PartialEq)]
struct Load {
    digest: u64,
    ops: usize,
    seals_off_thread: u64,
}

fn record(log: &Log, stats: &DbStats) -> Load {
    let log = log.lock().unwrap();
    Load {
        digest: fnv(log.join("\n").as_bytes()),
        ops: log.len(),
        seals_off_thread: stats.snapshot().seals_off_thread,
    }
}

/// `keys` written through the writer queue into a `buffer` / `table` engine.
fn load(buffer: usize, table: u64, keys: u64) -> Load {
    let (storage, log) = Recording::over(Arc::new(MemStorage::new()));
    let db = Db::open(storage, opts(buffer, table)).unwrap();
    write(&db, 0..keys);
    db.flush().unwrap();
    assert!(db.stats().snapshot().compactions > 0, "the load compacts");
    for i in (0..keys).step_by(997) {
        assert_eq!(db.get(key(i)).unwrap(), Some(value(key(i))), "key #{i}");
    }
    record(&log, db.stats())
}

/// `keys` bulk-loaded into 512 KiB tables.
fn bulk_load(keys: u64) -> Load {
    let (storage, log) = Recording::over(Arc::new(MemStorage::new()));
    let db = Db::open(storage, opts(1 << 20, 512 << 10)).unwrap();
    db.bulk_load((0..keys).map(|i| (key(i), value(key(i)))))
        .unwrap();
    for i in (0..keys).step_by(997) {
        assert_eq!(db.get(key(i)).unwrap(), Some(value(key(i))), "key #{i}");
    }
    record(&log, db.stats())
}

/// A load and what it did to storage before seals left the merge thread,
/// when every table sealed inline.
struct Shape {
    name: &'static str,
    run: fn() -> Load,
    digest: u64,
    ops: usize,
}

/// 512 KiB tables hold 3 855 keys and 2 MiB tables 15 420 (past the
/// builder's 1 MiB write chunk); 8 KiB tables hold 60, below the
/// off-thread floor.
fn shapes() -> [Shape; 4] {
    [
        Shape {
            name: "1 MiB / 512 KiB",
            run: || load(1 << 20, 512 << 10, 20_000),
            digest: 1_660_272_436_570_935_882,
            ops: 709,
        },
        Shape {
            name: "4 MiB / 2 MiB",
            run: || load(4 << 20, 2 << 20, 70_000),
            digest: 18_244_884_745_237_187_800,
            ops: 2_289,
        },
        Shape {
            name: "64 KiB / 8 KiB",
            run: || load(64 << 10, 8 << 10, 4_000),
            digest: 1_034_914_041_079_286_542,
            ops: 1_391,
        },
        Shape {
            name: "bulk load",
            run: || bulk_load(20_000),
            digest: 16_487_196_886_847_600_594,
            ops: 44,
        },
    ]
}

#[test]
fn loads_make_the_inline_storage_ops() {
    let _turn = budget();
    for shape in shapes() {
        let (name, pinned) = (shape.name, (shape.digest, shape.ops));
        let helped = (shape.run)();
        assert_eq!((helped.digest, helped.ops), pinned, "{name}: {helped:?}");
        let small = name.starts_with("64 KiB");
        assert_eq!(helped.seals_off_thread == 0, small, "{name}: {helped:?}");

        let all = borrow_subcompaction_threads(usize::MAX);
        let alone = (shape.run)();
        drop(all);
        assert_eq!((alone.digest, alone.ops), pinned, "{name}, no helper");
        assert_eq!(alone.seals_off_thread, 0, "{name}: no permit, no helper");
    }
}

/// Every permit of the budget is free: no helper holds one.
fn budget_is_whole() -> bool {
    let cores = std::thread::available_parallelism().map_or(4, |n| n.get());
    borrow_subcompaction_threads(usize::MAX).extra() == cores
}

/// The names of each level's tables.
fn tables(db: &Db) -> Vec<Vec<String>> {
    let version = db.version();
    let names = version.levels.iter();
    names
        .map(|level| level.iter().map(|t| t.meta.name.clone()).collect())
        .collect()
}

/// An engine over `FaultStorage` whose next flush runs a compaction of two
/// 1 MiB L0 tables into four 512 KiB outputs, the first three sealed off
/// the merge thread; the log records what reaches storage from the flush on.
struct Compacting {
    mem: Arc<MemStorage>,
    faults: Arc<FaultControl>,
    log: Log,
    db: Db,
}

fn compacting() -> Compacting {
    let mem = Arc::new(MemStorage::new());
    let (faulty, faults) = FaultStorage::wrap(Arc::clone(&mem) as Arc<dyn Storage>);
    let (storage, log) = Recording::over(faulty);
    let db = Db::open(storage, opts(1 << 20, 512 << 10)).unwrap();
    write(&db, 0..7_000);
    db.flush().unwrap();
    write(&db, 7_000..14_000);
    log.lock().unwrap().clear();
    Compacting {
        mem,
        faults,
        log,
        db,
    }
}

/// The compaction's output files, in creation order, and the number of
/// appends that reach storage before the first output's index append.
fn dry_run() -> (Vec<String>, usize) {
    let c = compacting();
    let before = c.db.stats().snapshot();
    c.db.flush().unwrap();
    let after = c.db.stats().snapshot();
    assert_eq!(after.compactions - before.compactions, 1);
    assert!(
        after.seals_off_thread > before.seals_off_thread,
        "{after:?}"
    );
    let log = c.log.lock().unwrap();
    let mut outputs: Vec<String> = log
        .iter()
        .filter_map(|op| op.strip_prefix("create "))
        .filter(|name| name.ends_with(".sst"))
        .map(String::from)
        .collect();
    outputs.remove(0); // the flush's L0 table
    assert!(outputs.len() >= 3, "{outputs:?}");
    let mut appends = log.iter().filter(|op| op.starts_with("append "));
    let first = format!("append {} ", outputs[0]);
    let data = appends.position(|op| op.starts_with(&first)).unwrap();
    (outputs, data + 1)
}

/// Fail the compaction the next flush runs by `arm`; it must fail with an
/// I/O error, install nothing, hold no helper, and leave orphans that the
/// next open sweeps.
fn fails_cleanly(arm: impl FnOnce(&FaultControl)) {
    let c = compacting();
    let before = tables(&c.db);
    let seals = c.db.stats().snapshot().seals_off_thread;
    arm(&c.faults);
    let failed = c.db.flush();
    assert!(matches!(failed, Err(Error::Io(_))), "{failed:?}");
    let pending = c.db.stats().snapshot().seals_off_thread - seals;
    assert_eq!(
        pending, 1,
        "the fault lands while the first output's seal is pending"
    );
    assert!(budget_is_whole(), "a helper outlived its writer");
    let after = tables(&c.db);
    assert_eq!(after[1..], before[1..], "no output installed");
    assert_eq!(
        after[0][1..],
        before[0][..],
        "only the flush's L0 table is new"
    );
    for i in (0..14_000).step_by(331) {
        assert_eq!(c.db.get(key(i)).unwrap(), Some(value(key(i))), "key #{i}");
    }

    c.faults.heal();
    drop(c.db);
    let db = Db::open(
        Arc::clone(&c.mem) as Arc<dyn Storage>,
        opts(1 << 20, 512 << 10),
    )
    .unwrap();
    let live: Vec<String> = tables(&db).concat();
    let mut files = c.mem.list().unwrap();
    files.retain(|name| name.ends_with(".sst"));
    files.sort();
    let mut want = live.clone();
    want.sort();
    assert_eq!(files, want, "the open sweeps every orphan");
    db.flush().unwrap();
    for i in (0..14_000).step_by(331) {
        assert_eq!(db.get(key(i)).unwrap(), Some(value(key(i))), "key #{i}");
    }
}

#[test]
fn a_failed_index_append_of_a_pending_seal_fails_the_compaction_cleanly() {
    let _turn = budget();
    let (_, data_appends) = dry_run();
    fails_cleanly(|faults| faults.fail_writes_after(data_appends as u64));
}

#[test]
fn a_failed_create_after_a_pending_seal_fails_the_compaction_cleanly() {
    let _turn = budget();
    let (outputs, _) = dry_run();
    fails_cleanly(|faults| faults.poison(&outputs[1]));
}

/// A writer dropped with a seal pending joins its helper: the permit is
/// back once the drop returns, and the table's file holds only its data.
#[test]
fn a_dropped_writer_joins_its_helper() {
    let _turn = budget();
    let storage = MemStorage::new();
    let opts = opts(1 << 20, 512 << 10);
    let next_file_no = std::sync::atomic::AtomicU64::new(1);
    let stats = DbStats::new();
    let ctx = TableContext {
        storage: &storage,
        opts: &opts,
        next_file_no: &next_file_no,
        cache: None,
        stats: &stats,
    };
    let mut writer = LevelWriter::new(&ctx, 1);
    let entry = |i: u64| lsm_tree::Entry::put(i, 1, value(i));
    for i in 0..3_000 {
        writer.add(&entry(i).key, &entry(i).value).unwrap();
    }
    writer.cut().unwrap();
    assert_eq!(stats.snapshot().seals_off_thread, 1);
    drop(writer);
    assert!(budget_is_whole(), "the helper outlived its writer");
    let width = lsm_tree::sstable::format::entry_width(VALUE_WIDTH) as u64;
    assert_eq!(storage.size_of("000001.sst").unwrap(), 3_000 * width);
}
