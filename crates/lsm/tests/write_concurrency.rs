//! Concurrency tests for the pipelined group commit (`crates/lsm/src/db.rs`):
//! with many writer threads racing through the writer queue, no reader —
//! snapshot-pinned or live — may ever observe a *torn* batch (some of a
//! batch's keys updated, others not), and every acknowledged write must be
//! immediately visible to its writer. These are the two invariants the
//! fence-publish discipline exists for.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::channel;
use std::sync::{Arc, Barrier, Condvar, Mutex};
use std::time::Duration;

use learned_index::IndexKind;
use lsm_io::{Hook, Interposed, MemStorage, Op};
use lsm_tree::compaction::pick_compaction;
use lsm_tree::version::MAX_LEVELS;
use lsm_tree::{Db, Event, EventKind, Maintenance, Options, ReadOptions, WriteBatch, WriteOptions};

const KEYS: u64 = 8;
const WRITERS: u64 = 4;
const ROUNDS: u64 = 400;

/// Every batch stamps all `KEYS` keys with one value, so any snapshot must
/// see all keys carrying the *same* stamp: batches are totally ordered by
/// their sequence ranges, and the published ceiling admits whole batches
/// only. A mixed read is a torn batch — exactly what the group-commit
/// publication protocol must rule out.
fn run_torn_read_check(opts: Options) {
    let db = Arc::new(Db::open_memory(opts).unwrap());
    // Ground state so the reader never sees missing keys.
    let mut init = WriteBatch::new();
    for k in 0..KEYS {
        init.put(k, &u64::MAX.to_le_bytes());
    }
    db.write(init, &WriteOptions::default()).unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    // The writers start once the reader has finished one check, so it is
    // running beside them from their first batch however the host schedules
    // a new thread (1 600 batches take ~60 ms in release: less than a
    // thread's start-up on a busy two-core machine).
    let (first_check, reader_running) = channel();
    let reader = {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut checks = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let snap = db.snapshot();
                let ropts = ReadOptions::at(&snap);
                let first = db.get_with(0, &ropts).unwrap().expect("key 0 initialized");
                for k in 1..KEYS {
                    let got = db.get_with(k, &ropts).unwrap().expect("key initialized");
                    assert_eq!(
                        got,
                        first,
                        "torn batch at ceiling {}: key {k} disagrees with key 0",
                        snap.seq()
                    );
                }
                checks += 1;
                if checks == 1 {
                    first_check.send(()).unwrap();
                }
            }
            checks
        })
    };
    reader_running.recv().unwrap();

    let writers: Vec<_> = (0..WRITERS)
        .map(|t| {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                for r in 0..ROUNDS {
                    let stamp = (t << 32) | r;
                    let mut batch = WriteBatch::new();
                    for k in 0..KEYS {
                        batch.put(k, &stamp.to_le_bytes());
                    }
                    let last = db.write(batch, &WriteOptions::default()).unwrap();
                    // Read-your-writes: an acknowledged batch is below the
                    // published ceiling before `write` returns.
                    assert!(
                        db.latest_seq() >= last,
                        "ack'd write above the published ceiling"
                    );
                }
            })
        })
        .collect();

    for w in writers {
        w.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let checks = reader.join().unwrap();
    assert!(checks > 0, "reader never ran");

    // The final state is the serially-last batch, uniform across keys.
    let last = db.get(0).unwrap().expect("key 0");
    for k in 1..KEYS {
        assert_eq!(db.get(k).unwrap().as_deref(), Some(last.as_slice()));
    }

    // Accounting: every batch committed exactly once; groups fuse batches,
    // never split them; one WAL record per group.
    let s = db.stats().snapshot();
    assert_eq!(s.write_batches, WRITERS * ROUNDS + 1);
    assert_eq!(s.write_entries, (WRITERS * ROUNDS + 1) * KEYS);
    assert!(s.write_groups >= 1 && s.write_groups <= s.write_batches);
    assert_eq!(s.wal_appends, s.write_groups, "one fused record per group");
}

#[test]
fn concurrent_batches_are_never_torn_synchronous() {
    let mut opts = Options::small_for_tests();
    opts.index.kind = IndexKind::Pgm;
    run_torn_read_check(opts);
}

#[test]
fn concurrent_batches_are_never_torn_background() {
    let mut opts = Options::small_for_tests();
    opts.index.kind = IndexKind::Pgm;
    opts.maintenance = Maintenance::Background;
    run_torn_read_check(opts);
}

/// Single-writer sanity under the queue: sequential writes still form one
/// group each, and a snapshot taken between writes pins its prefix across
/// later concurrent overwrites.
#[test]
fn snapshot_pins_prefix_across_concurrent_overwrites() {
    let mut opts = Options::small_for_tests();
    opts.index.kind = IndexKind::Pgm;
    let db = Arc::new(Db::open_memory(opts).unwrap());
    for k in 0..KEYS {
        db.put(k, b"before").unwrap();
    }
    let snap = db.snapshot();
    let writers: Vec<_> = (0..WRITERS)
        .map(|t| {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                for r in 0..64u64 {
                    let mut batch = WriteBatch::new();
                    for k in 0..KEYS {
                        batch.put(k, &((t << 32) | r).to_le_bytes());
                    }
                    db.write(batch, &WriteOptions::default()).unwrap();
                }
            })
        })
        .collect();
    // While the writers churn, the pinned view must stay exactly "before".
    for _ in 0..200 {
        for k in 0..KEYS {
            let got = db.get_with(k, &ReadOptions::at(&snap)).unwrap();
            assert_eq!(got.as_deref(), Some(&b"before"[..]));
        }
    }
    for w in writers {
        w.join().unwrap();
    }
    for k in 0..KEYS {
        let got = db.get_with(k, &ReadOptions::at(&snap)).unwrap();
        assert_eq!(got.as_deref(), Some(&b"before"[..]));
        assert_ne!(db.get(k).unwrap().as_deref(), Some(&b"before"[..]));
    }
}

/// A storage hook that parks the first table `sync` until released (the
/// gate of `read_path.rs`, on `.sst` files instead of `.wal` ones).
#[derive(Default)]
struct Gate {
    /// `(parked, released)`.
    state: Mutex<(bool, bool)>,
    cv: Condvar,
}

impl Gate {
    fn pass(&self) {
        let mut st = self.state.lock().unwrap();
        st.0 = true;
        self.cv.notify_all();
        while !st.1 {
            st = self.cv.wait(st).unwrap();
        }
    }

    /// Whether a sync parked within `timeout`.
    fn wait_parked(&self, timeout: Duration) -> bool {
        let st = self.state.lock().unwrap();
        let (st, _) = self.cv.wait_timeout_while(st, timeout, |s| !s.0).unwrap();
        st.0
    }

    fn release(&self) {
        self.state.lock().unwrap().1 = true;
        self.cv.notify_all();
    }
}

impl Hook for Gate {
    fn before(&self, op: Op<'_>) -> io::Result<()> {
        if matches!(op, Op::Sync(name) if name.ends_with(".sst")) {
            self.pass();
        }
        Ok(())
    }
}

/// Under synchronous maintenance the writer that fills the buffer flushes
/// it, and nobody else waits for that: while its table `sync` is parked, a
/// second writer's `put` completes and is readable — through a channel with
/// a timeout, so an engine that flushes under the tree lock fails this test
/// rather than hanging it. Then four writers at once: each has at most one
/// sealed buffer outstanding, and when the last returns the queue is empty
/// and the tree is in shape.
#[test]
fn a_synchronous_flush_parks_no_other_writer() {
    const TIMEOUT: Duration = Duration::from_secs(10);
    let gate = Arc::new(Gate::default());
    let storage = Arc::new(Interposed::hooked(
        Arc::new(MemStorage::new()),
        Arc::clone(&gate),
    ));
    let mut opts = Options::small_for_tests();
    opts.index.kind = IndexKind::Pgm;
    let db = Db::open(storage, opts).unwrap();

    let (done, put_done) = channel();
    std::thread::scope(|s| {
        s.spawn(|| {
            for k in 0.. {
                db.put(k, &[7u8; 24]).unwrap();
                if db.stats().snapshot().flushes > 0 {
                    break;
                }
            }
        });
        let parked = gate.wait_parked(TIMEOUT);
        s.spawn(|| {
            db.put(u64::MAX, b"beside").unwrap();
            done.send(db.get(u64::MAX).unwrap()).unwrap();
        });
        let beside = put_done.recv_timeout(TIMEOUT);
        // Released before any assertion, so a failure still joins the scope.
        gate.release();
        assert!(parked, "no flush reached its table sync");
        assert_eq!(
            beside,
            Ok(Some(b"beside".to_vec())),
            "a put waited for another writer's flush"
        );
    });

    std::thread::scope(|s| {
        for t in 0..WRITERS {
            let db = &db;
            s.spawn(move || {
                for i in 0..ROUNDS {
                    db.put((t << 32) | i, &[t as u8; 24]).unwrap();
                }
            });
        }
    });
    let stats = db.stats().snapshot();
    assert!(stats.flushes > 2, "the writers crossed several flushes");
    assert_eq!(stats.imm_rotations, stats.flushes);
    assert!(
        stats.imm_queue_peak <= WRITERS,
        "a writer sealed a second buffer before its first was flushed: peak {}",
        stats.imm_queue_peak
    );
    assert_eq!(db.immutable_memtables(), 0);
    let cursors = vec![0; MAX_LEVELS];
    assert!(
        pick_compaction(&db.version(), db.options(), &cursors).is_none(),
        "the last writer out left a compaction due"
    );
    for t in 0..WRITERS {
        let key = (t << 32) | (ROUNDS - 1);
        assert_eq!(db.get(key).unwrap(), Some(vec![t as u8; 24]));
    }
}

/// A tree runs one compaction at a time, whoever drives it: four
/// synchronous writers of scattered keys, each running maintenance inline
/// after its own writes, emit `CompactionBegin` and `CompactionEnd` strictly
/// alternating, one span each, so no two compactions are ever open at
/// once. A writer that finds the claim held leaves the work to its holder,
/// and the last writer out leaves nothing due. Four fresh trees: how much
/// two writers' maintenance overlaps depends on the schedule, and an engine
/// that lets compactions overlap shows it in most single loads, not all.
#[test]
fn synchronous_writers_run_one_compaction_at_a_time() {
    for _ in 0..4 {
        four_writers_compact_one_at_a_time();
    }
}

fn four_writers_compact_one_at_a_time() {
    const PUTS: u64 = 2_500;
    let mut opts = Options::small_for_tests();
    opts.observability = true;
    let db = Db::open_memory(opts).unwrap();
    let observer = Arc::clone(db.observability().expect("observability is on").observer());
    // Drained under the timeline's lock, so batches join it in emit order.
    let timeline: Mutex<Vec<Event>> = Mutex::default();
    let start = Barrier::new(WRITERS as usize);
    std::thread::scope(|s| {
        for t in 0..WRITERS {
            let (db, observer, timeline, start) = (&db, &observer, &timeline, &start);
            s.spawn(move || {
                start.wait();
                for i in 0..PUTS {
                    let k = (i * 7_919 % PUTS) * WRITERS + t;
                    db.put(k, &k.to_le_bytes()).unwrap();
                    let mut timeline = timeline.lock().unwrap();
                    timeline.extend(observer.drain());
                }
            });
        }
    });
    assert_eq!(observer.dropped(), 0, "drains must outrun the buffer");

    let compactions: Vec<Event> = timeline
        .into_inner()
        .unwrap()
        .into_iter()
        .filter(|e| {
            matches!(
                e.kind,
                EventKind::CompactionBegin | EventKind::CompactionEnd
            )
        })
        .collect();
    let stats = db.stats().snapshot();
    assert!(stats.compactions > 0, "the writers compacted");
    assert_eq!(compactions.len() as u64, 2 * stats.compactions);
    for (i, pair) in compactions.chunks(2).enumerate() {
        let (begin, end) = (&pair[0], &pair[1]);
        assert_eq!(
            (begin.kind, end.kind, end.span),
            (
                EventKind::CompactionBegin,
                EventKind::CompactionEnd,
                begin.span
            ),
            "compaction {i} of {}: a second one opened before it closed",
            stats.compactions
        );
    }
    let cursors = vec![0; MAX_LEVELS];
    assert!(
        pick_compaction(&db.version(), db.options(), &cursors).is_none(),
        "the last writer out left a compaction due"
    );
}
