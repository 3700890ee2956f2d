//! Background-maintenance integration tests: write admission — one rule
//! over LevelDB's fixed limits (`L0_SLOWDOWN_TRIGGER`, `L0_STOP_TRIGGER`,
//! `MAX_IMMUTABLE_MEMTABLES`) — and the foreground/maintenance overlap the
//! scheduler exists to provide.
//!
//! The trigger tests are deterministic: compactions are paused so L0
//! pressure builds exactly one table per explicit flush, and every
//! assertion is about *whether* a stall was recorded (counters), never
//! about how long anything took. At each step, what `Db::write_pressure`
//! reports is what the next write does.

use std::sync::Arc;
use std::thread::JoinHandle;

use learned_index::IndexKind;
use lsm_io::{CostModel, MemStorage};
use lsm_tree::{
    Db, Error, Maintenance, Options, WritePressure, L0_SLOWDOWN_TRIGGER, L0_STOP_TRIGGER,
    MAX_IMMUTABLE_MEMTABLES,
};

/// Small buffers under background maintenance: a handful of 24-byte-value
/// flushes walk L0 through the slowdown and stop triggers.
fn bp_opts() -> Options {
    let mut o = Options::small_for_tests();
    o.index.kind = IndexKind::Pgm;
    o.maintenance = Maintenance::background();
    o
}

/// Write `n` small records starting at `*key` and force them into one L0
/// table (`flush` rotates + blocks until the queue drains).
fn flush_one_table(db: &Db, key: &mut u64, n: u64) {
    for _ in 0..n {
        db.put(*key, &[7u8; 24]).unwrap();
        *key += 1;
    }
    db.flush().unwrap();
}

fn l0_len(db: &Db) -> usize {
    db.version().levels[0].len()
}

/// Wait until `writer` is stopped — and fail, rather than spin forever, if
/// it finishes without ever being stopped.
fn wait_until_stopped(db: &Db, writer: &JoinHandle<()>) {
    while db.stats().stalled_writers() == 0 {
        assert!(!writer.is_finished(), "the writer was never stopped");
        std::thread::yield_now();
    }
}

#[test]
fn writers_slow_at_slowdown_and_stop_at_stop_trigger() {
    let db = Arc::new(Db::open_sim(bp_opts(), CostModel::default()).unwrap());
    db.pause_compactions();
    let mut key = 0u64;

    // Below the slowdown trigger: writes are unimpeded.
    while l0_len(&db) < L0_SLOWDOWN_TRIGGER - 1 {
        flush_one_table(&db, &mut key, 40);
    }
    assert_eq!(db.write_pressure(), WritePressure::Clear);
    let before = db.stats().snapshot();
    for _ in 0..20 {
        db.put(key, &[7u8; 24]).unwrap();
        key += 1;
    }
    let delta = db.stats().snapshot().since(&before);
    assert_eq!(delta.stall_slowdowns, 0, "below trigger: no delays");
    assert_eq!(delta.stall_stops, 0);

    // At the slowdown trigger: every write is delayed once (~1 ms) and the
    // stall counters record it.
    while l0_len(&db) < L0_SLOWDOWN_TRIGGER {
        flush_one_table(&db, &mut key, 40);
    }
    assert!(l0_len(&db) < L0_STOP_TRIGGER, "L0 in the slowdown zone");
    assert_eq!(db.write_pressure(), WritePressure::Slowdown);
    let before = db.stats().snapshot();
    for _ in 0..5 {
        db.put(key, &[7u8; 24]).unwrap();
        key += 1;
    }
    let delta = db.stats().snapshot().since(&before);
    assert_eq!(delta.stall_slowdowns, 5, "one delay per write in the zone");
    assert_eq!(delta.stall_stops, 0, "no hard stop below the stop trigger");
    assert!(delta.stall_ns > 0, "delays are timed");

    // Push L0 to the stop trigger (explicit flushes bypass backpressure —
    // they are orders, not writes).
    while l0_len(&db) < L0_STOP_TRIGGER {
        flush_one_table(&db, &mut key, 40);
    }
    // A stop needs a full buffer too: until then writes are only braked.
    assert_eq!(db.write_pressure(), WritePressure::Slowdown);

    // A writer that fills the buffer must now block until compaction
    // catches up. Only resuming compactions can release it.
    let stopped_before = db.stats().snapshot().stall_stops;
    let writer = {
        let db = Arc::clone(&db);
        let start_key = key;
        std::thread::spawn(move || {
            // ~420 * 60 bytes ≈ 25 KiB: crosses the 16 KiB buffer, so one
            // of these writes needs a rotation and must hit the stop gate.
            for i in 0..420u64 {
                db.put(start_key + i, &[7u8; 24]).unwrap();
            }
        })
    };
    // Deterministic: the writer cannot finish while L0 ≥ stop and
    // compactions are paused, so the stalled-writers gauge must rise.
    wait_until_stopped(&db, &writer);
    assert_eq!(db.write_pressure(), WritePressure::Stop);
    // Resuming compaction is what releases it.
    db.resume_compactions();
    writer.join().unwrap();
    db.wait_for_maintenance();
    assert!(
        db.stats().snapshot().stall_stops > stopped_before,
        "the writer recorded a hard stop"
    );
    assert!(
        l0_len(&db) < L0_STOP_TRIGGER,
        "compaction caught up after the stall"
    );
    assert_eq!(db.background_error(), None);

    // Nothing was lost across the stalls.
    for probe in (0..key).step_by(61) {
        assert_eq!(db.get(probe).unwrap(), Some(vec![7u8; 24]), "key {probe}");
    }
}

#[test]
fn writers_stop_when_immutable_queue_is_full() {
    // Flushes paused: L0 stays empty, so only the queue cap can stop.
    let db = Arc::new(Db::open_memory(bp_opts()).unwrap());
    db.pause_flushes();

    // Fill the queue to its cap: each rotation is admitted while the queue
    // has a free slot.
    let mut key = 0u64;
    while db.immutable_memtables() < MAX_IMMUTABLE_MEMTABLES {
        db.put(key, &[9u8; 24]).unwrap();
        key += 1;
    }
    let stopped_before = db.stats().snapshot().stall_stops;

    // The next buffer-full write has no slot to rotate into: it must stall
    // until a flush drains the queue.
    let writer = {
        let db = Arc::clone(&db);
        let start_key = key;
        std::thread::spawn(move || {
            for i in 0..420u64 {
                db.put(start_key + i, &[9u8; 24]).unwrap();
            }
        })
    };
    // The writer must be observably blocked before a flush frees a slot.
    wait_until_stopped(&db, &writer);
    assert_eq!(db.write_pressure(), WritePressure::Stop);
    db.resume_flushes();
    writer.join().unwrap();
    db.wait_for_maintenance();
    assert!(
        db.stats().snapshot().stall_stops > stopped_before,
        "queue-full stall recorded"
    );
    assert_eq!(db.immutable_memtables(), 0, "queue drained");
    assert_eq!(db.background_error(), None);
    for probe in (0..key + 420).step_by(37) {
        assert_eq!(db.get(probe).unwrap(), Some(vec![9u8; 24]), "key {probe}");
    }
}

/// The acceptance check for the scheduler: on the simulated NVMe, a
/// write-heavy workload overlaps foreground writes with at least one
/// concurrent background flush or compaction, witnessed by the
/// `writes_during_maintenance` counter (incremented only when a write
/// returns while a worker is mid-task) and non-zero worker busy time.
#[test]
fn writers_overlap_with_background_maintenance_on_sim_nvme() {
    let mut opts = Options::small_for_tests();
    opts.index.kind = IndexKind::Pgm;
    opts.maintenance = Maintenance::Background;
    let db = Db::open_sim(opts, CostModel::default()).unwrap();
    let mut key = 0u64;
    // Keep writing rounds until overlap is observed (first round almost
    // always suffices; the cap keeps a pathological scheduler from
    // spinning forever).
    for _round in 0..50 {
        for _ in 0..4_000 {
            db.put(key, &[3u8; 24]).unwrap();
            key += 1;
        }
        if db.stats().snapshot().writes_during_maintenance > 0 {
            break;
        }
    }
    db.flush().unwrap();
    db.wait_for_maintenance();
    let s = db.stats().snapshot();
    assert!(s.imm_rotations > 0, "memtables rotated, not inline-flushed");
    assert!(s.flushes > 0, "background flushes ran");
    assert!(s.bg_flush_ns > 0, "flush workers accumulated busy time");
    assert!(
        s.writes_during_maintenance > 0,
        "at least one write completed while a worker was busy"
    );
    assert_eq!(db.background_error(), None);
    for probe in (0..key).step_by(101) {
        assert_eq!(db.get(probe).unwrap(), Some(vec![3u8; 24]), "key {probe}");
    }
    // The tree invariant was restored concurrently, not by the writers.
    assert!(
        db.version().levels[0].len() < L0_STOP_TRIGGER,
        "L0 under control"
    );
}

/// Synchronous mode never stalls a writer and leaves nothing queued behind
/// an acknowledged write: the writer that seals a full buffer flushes it
/// before returning, so every rotation is matched by a flush and no pool
/// thread (or its busy clock) is involved — keeping the paper's
/// deterministic experiments byte-identical.
#[test]
fn synchronous_mode_records_no_stalls_or_rotations() {
    let mut opts = Options::small_for_tests();
    opts.index.kind = IndexKind::Pgm;
    let db = Db::open_memory(opts).unwrap();
    for k in 0..3_000u64 {
        db.put(k, &[1u8; 24]).unwrap();
        assert_eq!(db.immutable_memtables(), 0, "after write {k}");
    }
    db.flush().unwrap();
    let s = db.stats().snapshot();
    assert!(s.flushes > 0);
    assert_eq!(s.stall_slowdowns, 0);
    assert_eq!(s.stall_stops, 0);
    assert_eq!(s.stall_ns, 0);
    assert_eq!(s.imm_rotations, s.flushes);
    assert_eq!(s.bg_flush_ns, 0);
    assert_eq!(s.bg_compact_ns, 0);
    assert_eq!(s.writes_during_maintenance, 0);
    assert_eq!(db.immutable_memtables(), 0);
}

/// A compaction trigger above the stop trigger would stop writers for a
/// compaction that is never due: background maintenance refuses it at open,
/// with a typed error instead of a hang at the first stop. At the stop
/// trigger, and in synchronous mode (which never stops a writer), it opens.
#[test]
fn a_compaction_trigger_above_the_stop_trigger_is_refused() {
    let open = |trigger: usize, maintenance: Maintenance| {
        let mut opts = bp_opts();
        opts.l0_compaction_trigger = trigger;
        opts.maintenance = maintenance;
        Db::open(Arc::new(MemStorage::new()), opts)
    };
    let refused = open(L0_STOP_TRIGGER + 1, Maintenance::background());
    assert!(
        matches!(&refused, Err(Error::Io(e)) if e.kind() == std::io::ErrorKind::InvalidInput),
        "{:?}",
        refused.err()
    );
    open(L0_STOP_TRIGGER, Maintenance::background()).unwrap();
    open(L0_STOP_TRIGGER + 1, Maintenance::Synchronous).unwrap();
}
