//! The three single-thread, in-process workloads: `get-hot`, `get-cold`
//! and `ingest-scan`. One caller drives one `Db` on the simulated device
//! under `Maintenance::Synchronous`, so device counts repeat exactly.
//!
//! All three have the same shape — load rounds through the write path, then
//! GET windows, then SCAN windows on the last round's tree — and differ in
//! sizes, cache budget, request distribution and where the time goes.

use std::sync::Arc;
use std::time::{Duration, Instant};

use learned_index::IndexKind;
use lsm_io::{CostModel, IoStatsSnapshot, MemStorage, SimStorage, Storage};
use lsm_tree::memtable::MemTable;
use lsm_tree::version::{TableHandle, Version};
use lsm_tree::wal::WalWriter;
use lsm_tree::{Db, DbStats, IndexChoice, Options, StatsSnapshot, WriteBatch, WriteOptions};
use lsm_workloads::{value_for_key, RequestDistribution};

use crate::calib::{Calibrator, Cost};
use crate::closed_loop::{closed_loop, Phase};
use crate::gen::{self, Data, VALUE_LEN};
use crate::stats::Window;
use crate::trace::Tracer;

/// Entries returned by every scan.
pub const SCAN_LEN: usize = 100;
/// Length of the pre-generated op streams (cycled).
pub const STREAM_LEN: usize = 1 << 20;
/// Position boundary of every table index (ε = 32).
pub const POSITION_BOUNDARY: usize = 64;
/// Length of one GET or SCAN window. Short, so that a run has many of them
/// and the quiet decile finds the undisturbed ones; long enough that every
/// window holds over 1000 operations.
pub const WINDOW: Duration = Duration::from_millis(50);
/// GET and SCAN windows alternate in this many blocks each, so that both
/// see the whole run: a disturbance of a few seconds cannot cover one phase
/// and spare the other.
pub const CYCLES: usize = 5;
/// A load round runs a calibration burst every this many batches.
pub const BURST_EVERY: usize = 512;
/// Every `REOPEN_SAMPLE`-th key is verified after the reopen.
pub const REOPEN_SAMPLE: usize = 64;

/// Sizes and time shares of one in-process workload.
#[derive(Debug, Clone)]
pub struct InProc {
    pub keys: usize,
    pub write_buffer_bytes: usize,
    pub sstable_bytes: u64,
    pub cache_bytes: usize,
    pub get_dist: RequestDistribution,
    /// `true`: the load is set-up (repeated for the `setup_s` median, ended
    /// by a flush and a cache warm-up; its rounds double as the PUT
    /// windows). `false`: load rounds are the measured PUT phase and run
    /// for `put_share` of the run.
    pub load_is_setup: bool,
    pub put_share: f64,
    pub get_share: f64,
    pub scan_share: f64,
}

/// Engine options common to every workload.
pub fn engine_options(
    write_buffer_bytes: usize,
    sstable_bytes: u64,
    cache_bytes: usize,
) -> Options {
    Options {
        write_buffer_bytes,
        sstable_target_bytes: sstable_bytes,
        value_width: VALUE_LEN,
        bloom_bits_per_key: 10,
        index: IndexChoice::with_boundary(IndexKind::Pgm, POSITION_BOUNDARY),
        block_cache_bytes: cache_bytes,
        observability: false,
        ..Options::default()
    }
}

/// Engine and device counters at one instant, or their difference.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub db: StatsSnapshot,
    pub io: IoStatsSnapshot,
}

impl Counters {
    pub fn of(db: &Db) -> Counters {
        let mut stats = db.stats().snapshot();
        if let Some(cache) = db.block_cache() {
            stats.absorb_cache(&cache.stats());
        }
        Counters {
            db: stats,
            io: db.storage().stats().snapshot(),
        }
    }

    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            db: self.db.since(&earlier.db),
            io: self.io.since(&earlier.io),
        }
    }

    /// The sum of two differences (gauges add too: their ratios hold).
    pub fn plus(&self, other: &Counters) -> Counters {
        let (a, b) = (&self.io, &other.io);
        Counters {
            db: self.db + other.db,
            io: IoStatsSnapshot {
                read_calls: a.read_calls + b.read_calls,
                read_bytes: a.read_bytes + b.read_bytes,
                read_blocks: a.read_blocks + b.read_blocks,
                write_calls: a.write_calls + b.write_calls,
                write_bytes: a.write_bytes + b.write_bytes,
                write_blocks: a.write_blocks + b.write_blocks,
                sim_read_ns: a.sim_read_ns + b.sim_read_ns,
                sim_write_ns: a.sim_write_ns + b.sim_write_ns,
            },
        }
    }
}

/// One load of the whole dataset into a fresh `Db`.
pub struct Round {
    pub db: Db,
    pub storage: Arc<SimStorage>,
    pub summary: RoundSummary,
}

/// What is kept of a load round once its tree is dropped.
#[derive(Debug, Clone, Copy)]
pub struct RoundSummary {
    /// Per-batch latencies of the round, as one window.
    pub window: Window,
    pub failed: u64,
    /// Counters of the round (fresh device and engine: absolute = delta).
    pub counters: Counters,
    /// Σ file sizes on the device after the round.
    pub stored_bytes: u64,
    pub traced: bool,
}

fn open(cfg: &InProc, storage: &Arc<SimStorage>) -> Db {
    Db::open(
        Arc::clone(storage) as Arc<dyn Storage>,
        engine_options(cfg.write_buffer_bytes, cfg.sstable_bytes, cfg.cache_bytes),
    )
    .expect("open")
}

/// Write `data` into a fresh `Db` in insertion order, `BATCH` entries per
/// unsynced batch, WAL on. `write(db, batch, i)` issues the i-th batch.
/// The round is one window; its `host` is the median of the calibration
/// bursts run every `BURST_EVERY` batches (outside the batch latencies).
fn load_round(
    cfg: &InProc,
    data: &Data,
    calib: &mut Calibrator,
    traced: bool,
    mut write: impl FnMut(&Db, WriteBatch, u64) -> bool,
) -> Round {
    let batches = data.batches();
    let storage = Arc::new(SimStorage::new(CostModel::default()));
    let db = open(cfg, &storage);
    let mut lat = Vec::with_capacity(batches.len());
    let mut failed = 0;
    let mut hosts = vec![calib.burst()];
    let mut busy = Duration::ZERO;
    let mut prev = Instant::now();
    for (i, batch) in batches.into_iter().enumerate() {
        failed += u64::from(!write(&db, batch, i as u64));
        let now = Instant::now();
        lat.push((now - prev).as_nanos().min(u32::MAX as u128) as u32);
        busy += now - prev;
        prev = now;
        if (i + 1) % BURST_EVERY == 0 {
            hosts.push(calib.burst());
            prev = Instant::now();
        }
    }
    hosts.push(calib.burst());
    let summary = RoundSummary {
        window: Window {
            host: Cost::median(&hosts),
            ..Window::from_latencies(&mut lat, busy.as_secs_f64(), 0)
        },
        failed,
        counters: Counters::of(&db),
        stored_bytes: stored_bytes(storage.as_ref()),
        traced,
    };
    Round {
        db,
        storage,
        summary,
    }
}

fn write_plain(db: &Db, batch: WriteBatch, _i: u64) -> bool {
    db.write(batch, &WriteOptions::default()).is_ok()
}

pub fn stored_bytes(storage: &dyn Storage) -> u64 {
    let names = storage.list().expect("list");
    names
        .iter()
        .map(|n| storage.size_of(n).expect("size_of a listed file"))
        .sum()
}

/// One verified GET: the value must be the one the key was loaded with.
pub fn get_checked(db: &Db, key: u64) -> bool {
    matches!(db.get(key), Ok(Some(v)) if v == value_for_key(key, VALUE_LEN))
}

/// Whether `out` is exactly the `SCAN_LEN` entries from key position `pos`:
/// strictly ascending, of the expected length, every value valid.
pub fn scan_is_correct(data: &Data, pos: usize, out: &[(u64, Vec<u8>)]) -> bool {
    let expected = &data.keys[pos..(pos + SCAN_LEN).min(data.keys.len())];
    out.len() == expected.len()
        && out
            .iter()
            .zip(expected)
            .all(|((k, v), want)| k == want && *v == value_for_key(*k, VALUE_LEN))
}

fn scan_checked(db: &Db, data: &Data, pos: usize) -> bool {
    matches!(db.scan(data.keys[pos], SCAN_LEN), Ok(out) if scan_is_correct(data, pos, &out))
}

/// Read two keys per 4 KiB block of every table, then a stretch of the GET
/// stream, so the measured windows start from a settled cache (with the
/// cache larger than the data, from one that holds every block).
fn warm_up(db: &Db, data: &Data, gets: &[u32]) -> u64 {
    let per_block = 4096 / lsm_tree::sstable::format::entry_width(VALUE_LEN);
    let mut failed = 0;
    for pos in (0..data.keys.len()).step_by(per_block / 2) {
        failed += u64::from(!get_checked(db, data.keys[pos]));
    }
    for &pos in &gets[..gets.len().min(data.keys.len() / 8)] {
        failed += u64::from(!get_checked(db, data.keys[pos as usize]));
    }
    failed
}

// ------------------------------------------------------------- shadow calls

/// Re-issue a point lookup layer by layer: `Version::locate` per sorted
/// level, `TableReader::get_opts` on each candidate, and for the table that
/// held the key `index().predict` and `get_in_positions`.
fn shadow_get(t: &mut Tracer, db: &Db, key: u64, scratch: &DbStats) {
    let version = db.version();
    let seq = db.latest_seq();
    let probe = |t: &mut Tracer, table: &TableHandle| {
        let found = t.call_then_shadow(
            "sstable.get",
            || table.reader.get_opts(key, seq, scratch, true),
            |t, found| {
                if matches!(found, Ok(Some(_))) {
                    let bound = t.span("learned.predict", || table.reader.index().predict(key));
                    t.span("sstable.fetch_search", || {
                        table
                            .reader
                            .get_in_positions(key, bound.lo, bound.hi, seq, scratch)
                    })
                    .ok();
                }
            },
        );
        matches!(found, Ok(Some(_)))
    };
    for table in &version.levels[0] {
        if probe(t, table) {
            return;
        }
    }
    for tables in version.levels.iter().skip(1) {
        let candidate = t.span("version.locate", || Version::locate(tables, key));
        if candidate.is_some_and(|table| probe(t, table)) {
            return;
        }
    }
}

/// Re-issue a scan through the iterator it is made of.
fn shadow_scan(t: &mut Tracer, db: &Db, start: u64) {
    let Ok(mut it) = t.span("iter.open", || db.iter()) else {
        return;
    };
    t.span("iter.seek", || it.seek(start)).ok();
    t.span("iter.next", || {
        for _ in 0..SCAN_LEN {
            if !matches!(it.next(), Ok(Some(_))) {
                break;
            }
        }
    });
}

/// Scratch log and memtable the write path's pieces are re-issued on.
struct WriteShadow {
    wal: WalWriter,
    mem: MemTable,
    seq: u64,
}

impl WriteShadow {
    /// Entries after which the scratch log and table are started afresh.
    const RESET_EVERY: u64 = 16 * 1024;

    fn new() -> WriteShadow {
        // The writer keeps the scratch file's bytes alive by itself.
        let wal = WalWriter::create(&MemStorage::new(), "shadow.wal").expect("scratch wal");
        WriteShadow {
            wal,
            mem: MemTable::new(),
            seq: 1,
        }
    }

    fn write(&mut self, t: &mut Tracer, batch: &WriteBatch) {
        if self.seq > Self::RESET_EVERY {
            *self = WriteShadow::new();
        }
        let (ops, seq) = (batch.ops(), self.seq);
        t.span("wal.append", || self.wal.append_batch(seq, ops))
            .ok();
        t.span("memtable.apply", || self.mem.apply_batch(ops, seq));
        self.seq += ops.len() as u64;
    }
}

// ------------------------------------------------------------------ the run

struct Inputs {
    data: Data,
    gets: Vec<u32>,
    scans: Vec<u32>,
}

fn generate_inputs(cfg: &InProc, seed: u64) -> Inputs {
    let data = Data::generate(cfg.keys, seed);
    let gets = gen::stream(&data, cfg.get_dist, STREAM_LEN, seed ^ 0x67);
    let scans = gen::stream(&data, RequestDistribution::Uniform, STREAM_LEN, seed ^ 0x73);
    Inputs { data, gets, scans }
}

/// A measured read phase: its windows and the counters around it.
#[derive(Debug, Clone, Default)]
pub struct ReadPhase {
    pub phase: Phase,
    pub counters: Counters,
}

impl ReadPhase {
    /// Append one more block of the phase.
    fn absorb(&mut self, block: Phase, counters: Counters) {
        let first = self.phase.windows.len();
        let renumbered = block.windows.into_iter().enumerate().map(|(i, w)| Window {
            index: first + i,
            ..w
        });
        self.phase.windows.extend(renumbered);
        self.phase.attempted += block.attempted;
        self.phase.failed += block.failed;
        self.counters = self.counters.plus(&counters);
    }
}

/// Everything one run of an in-process workload measured.
pub struct InProcRun {
    pub keys: usize,
    pub user_bytes: u64,
    pub inputs_hash: u64,
    pub setup_secs: Vec<f64>,
    pub rounds: Vec<RoundSummary>,
    pub get: ReadPhase,
    pub scan: ReadPhase,
    /// The traced halves (a traced run only).
    pub traced_get: Option<Phase>,
    pub traced_scan: Option<Phase>,
    pub index_bytes: usize,
    /// Merge sources a scan opens: memtable + L0 tables + non-empty levels.
    pub iter_sources: usize,
    pub setup_failed: u64,
    /// Rounds whose flush, compaction or device-byte counts differ from the
    /// first round's: identical work must count identically.
    pub round_mismatches: u64,
    pub reopen_checked: u64,
    pub reopen_failed: u64,
}

fn windows_in(seconds: f64, window: Duration) -> usize {
    ((seconds / window.as_secs_f64()) as usize).max(1)
}

/// Set up `setup_repeats` times (the last one is measured on), then run the
/// PUT rounds, GET windows and SCAN windows, and check a reopen.
///
/// GET and SCAN windows alternate in `CYCLES` blocks each. With a tracer
/// every phase is split: its first half runs as in an untraced run (the
/// counters and the baseline throughput come from it), its second half
/// records spans for one operation in `trace::SAMPLE`.
pub fn run(
    cfg: &InProc,
    seed: u64,
    seconds: f64,
    setup_repeats: usize,
    calib: &mut Calibrator,
    mut tracer: Option<&mut Tracer>,
) -> InProcRun {
    let scratch = DbStats::new();
    let mut shadow = WriteShadow::new();
    let mut write_traced = |t: &mut Tracer, db: &Db, batch: WriteBatch, i: u64| {
        if !Tracer::samples(i) {
            return write_plain(db, batch, i);
        }
        t.begin_op();
        let copy = batch.clone();
        t.call_then_shadow(
            "db.write",
            || write_plain(db, batch, i),
            |t, _| shadow.write(t, &copy),
        )
    };

    let mut setup_secs = Vec::new();
    let mut rounds = Vec::new();
    let mut setup_failed = 0;
    let mut state = None;
    for _ in 0..setup_repeats {
        drop(state.take());
        let mut hosts = vec![calib.burst()];
        let t0 = Instant::now();
        let inputs = generate_inputs(cfg, seed);
        let loaded = cfg.load_is_setup.then(|| {
            let round = match tracer.as_deref_mut() {
                None => load_round(cfg, &inputs.data, calib, false, write_plain),
                Some(t) => load_round(cfg, &inputs.data, calib, true, |db, b, i| {
                    write_traced(t, db, b, i)
                }),
            };
            round.db.flush().expect("flush");
            setup_failed += warm_up(&round.db, &inputs.data, &inputs.gets);
            rounds.push(round.summary);
            hosts.push(round.summary.window.host);
            round
        });
        let secs = t0.elapsed().as_secs_f64();
        hosts.push(calib.burst());
        // Like every wall-clock total, at the reference host speed.
        setup_secs.push(secs / Cost::median(&hosts).mean);
        state = Some((inputs, loaded));
    }
    let (inputs, loaded) = state.expect("at least one set-up");
    let Inputs { data, gets, scans } = inputs;

    let last = loaded.unwrap_or_else(|| {
        // Measured PUT phase: identical rounds until its share is spent.
        let budget = seconds * cfg.put_share;
        let t0 = Instant::now();
        let mut last: Option<Round> = None;
        while last.is_none() || t0.elapsed().as_secs_f64() < budget {
            drop(last.take());
            let traced_half = t0.elapsed().as_secs_f64() >= budget / 2.0;
            let round = match tracer.as_deref_mut() {
                Some(t) if traced_half => load_round(cfg, &data, calib, true, |db, b, i| {
                    write_traced(t, db, b, i)
                }),
                _ => load_round(cfg, &data, calib, false, write_plain),
            };
            rounds.push(round.summary);
            last = Some(round);
        }
        last.expect("at least one round")
    });

    let db = &last.db;
    let io = db.storage().stats();
    let halves = if tracer.is_some() { 2.0 } else { 1.0 };
    let block = |share: f64| windows_in(seconds * share / halves / CYCLES as f64, WINDOW);
    let key_of = |stream: &[u32], i: u64| stream[i as usize % stream.len()] as usize;
    // Both streams continue across blocks and halves.
    let (mut gets_done, mut scans_done) = (0, 0);
    let mut reads = |calib: &mut Calibrator, mut tracer: Option<&mut Tracer>| {
        let (mut get, mut scan) = (ReadPhase::default(), ReadPhase::default());
        for _ in 0..CYCLES {
            let before = Counters::of(db);
            let start = Instant::now();
            let [phase]: [Phase; 1] =
                closed_loop(io, Some(calib), start, block(cfg.get_share), WINDOW, |i| {
                    let key = data.keys[key_of(&gets, gets_done + i)];
                    let ok = match tracer.as_deref_mut() {
                        Some(t) if Tracer::samples(i) => {
                            t.begin_op();
                            t.call_then_shadow(
                                "db.get",
                                || get_checked(db, key),
                                |t, _| shadow_get(t, db, key, &scratch),
                            )
                        }
                        _ => get_checked(db, key),
                    };
                    (0, ok)
                });
            gets_done += phase.attempted;
            get.absorb(phase, Counters::of(db).since(&before));

            let before = Counters::of(db);
            let start = Instant::now();
            let [phase]: [Phase; 1] =
                closed_loop(io, Some(calib), start, block(cfg.scan_share), WINDOW, |i| {
                    let pos = key_of(&scans, scans_done + i);
                    let ok = match tracer.as_deref_mut() {
                        Some(t) if Tracer::samples(i) => {
                            t.begin_op();
                            t.call_then_shadow(
                                "db.scan",
                                || scan_checked(db, &data, pos),
                                |t, _| shadow_scan(t, db, data.keys[pos]),
                            )
                        }
                        _ => scan_checked(db, &data, pos),
                    };
                    (0, ok)
                });
            scans_done += phase.attempted;
            scan.absorb(phase, Counters::of(db).since(&before));
        }
        (get, scan)
    };
    let (get, scan) = reads(calib, None);
    let (traced_get, traced_scan) = match tracer {
        Some(t) => {
            let (get, scan) = reads(calib, Some(t));
            (Some(get.phase), Some(scan.phase))
        }
        None => (None, None),
    };

    let version = db.version();
    let iter_sources =
        1 + version.levels[0].len() + version.levels[1..].iter().filter(|l| !l.is_empty()).count();
    let index_bytes = db.index_memory_bytes();

    // Close, reopen on the same device, verify a sample of what was written.
    let Round { db, storage, .. } = last;
    let mut reopen_failed = u64::from(db.close().is_err());
    let db = open(cfg, &storage);
    let mut reopen_checked = 0;
    for &key in data.keys.iter().step_by(REOPEN_SAMPLE) {
        reopen_checked += 1;
        reopen_failed += u64::from(!get_checked(&db, key));
    }

    let work = |r: &RoundSummary| {
        let c = &r.counters;
        (
            c.db.flushes,
            c.db.compactions,
            c.io.write_bytes,
            r.stored_bytes,
        )
    };
    let round_mismatches = rounds
        .iter()
        .filter(|r| work(r) != work(&rounds[0]))
        .count() as u64;

    InProcRun {
        keys: cfg.keys,
        user_bytes: data.user_bytes(),
        inputs_hash: gen::inputs_hash(&[&data.order, &gets, &scans]),
        setup_secs,
        rounds,
        get,
        scan,
        traced_get,
        traced_scan,
        index_bytes,
        iter_sources,
        setup_failed,
        round_mismatches,
        reopen_checked,
        reopen_failed,
    }
}
