//! Integration tests for the engine-wide observability layer: the split
//! lifecycle must appear in the event timeline as an ordered, span-linked
//! `SplitBegin` → `SplitDualWrite` → `SplitCutover` triple, and turning
//! observability *off* must leave the engine's `DbStats` counters exactly
//! as they were — the disabled hot path is a single untaken branch.

use std::sync::Arc;

use lsm_io::{FaultStorage, MemStorage, Storage};
use lsm_tree::{
    Db, Event, EventKind, Options, ShardedDb, ShardedOptions, WriteBatch, WriteOptions,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn obs_opts() -> Options {
    let mut o = Options::small_for_tests();
    o.observability = true;
    o
}

/// A zipfian-skewed insert stream against uniform-trained boundaries
/// forces live splits; the drained timeline must carry each split as a
/// `SplitBegin` → `SplitDualWrite` → `SplitCutover` triple in that order,
/// all three sharing one span id.
#[test]
fn live_split_emits_ordered_span_linked_lifecycle_events() {
    // Boundaries trained for a uniform key space, then a stream dense
    // near zero: shard 0 fattens until the resident-bytes trigger fires.
    let uniform_sample: Vec<u64> = (0..4096u64).map(|i| i << 32).collect();
    let opts = ShardedOptions::learned(2, uniform_sample, obs_opts())
        .with_max_shards(8)
        .with_split_trigger(0.10, 32 << 10);
    let storage: Arc<dyn Storage> = Arc::new(MemStorage::new());
    let db = ShardedDb::open(Arc::clone(&storage), opts).unwrap();
    let observer = Arc::clone(db.observer().expect("observability is on"));

    // Drain as we go: the bounded event buffer keeps the *oldest* events on
    // overflow, so a long stream could otherwise crowd out late-arriving
    // split events.
    let mut timeline: Vec<Event> = Vec::new();
    let mut rng = StdRng::seed_from_u64(0x0b5);
    let mut batch = WriteBatch::new();
    let value = vec![9u8; 32];
    for i in 0..40_000u64 {
        // Dense low keys with a thin uniform tail, every key fresh.
        let k = if i % 16 == 0 {
            rng.gen::<u64>()
        } else {
            rng.gen_range(0..1u64 << 20)
        };
        batch.put(k, &value);
        if batch.len() >= 8 {
            db.write(std::mem::take(&mut batch), &WriteOptions::default())
                .unwrap();
            timeline.extend(observer.drain());
        }
        if db.sharded_stats().merged.shard_splits >= 2 {
            break;
        }
    }
    db.write(batch, &WriteOptions::default()).unwrap();
    while db.rebalance().unwrap() {}
    timeline.extend(observer.drain());

    let splits = db.sharded_stats().merged.shard_splits;
    assert!(splits >= 1, "stream never triggered a live split");
    assert_eq!(observer.dropped(), 0, "drains must outrun the buffer");

    let begins: Vec<&Event> = timeline
        .iter()
        .filter(|e| e.kind == EventKind::SplitBegin)
        .collect();
    assert_eq!(begins.len() as u64, splits, "one SplitBegin per split");
    for begin in begins {
        assert_ne!(begin.span, 0, "live spans are non-zero");
        let phases: Vec<(usize, EventKind)> = timeline
            .iter()
            .enumerate()
            .filter(|(_, e)| e.span == begin.span)
            .map(|(i, e)| (i, e.kind))
            .collect();
        assert_eq!(
            phases.iter().map(|(_, k)| *k).collect::<Vec<_>>(),
            vec![
                EventKind::SplitBegin,
                EventKind::SplitDualWrite,
                EventKind::SplitCutover
            ],
            "split span {} must run begin → dual-write → cutover",
            begin.span
        );
        // Ordered by timeline position *and* by timestamp.
        assert!(phases.windows(2).all(|w| w[0].0 < w[1].0));
        let ts: Vec<u64> = timeline
            .iter()
            .filter(|e| e.span == begin.span)
            .map(|e| e.ts_ns)
            .collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]));
        // Begin and dual-write name the same parent shard.
        let parents: Vec<u64> = timeline
            .iter()
            .filter(|e| e.span == begin.span && e.kind != EventKind::SplitCutover)
            .map(|e| e.a)
            .collect();
        assert!(parents.windows(2).all(|w| w[0] == w[1]));
    }

    // Each split's cutover publishes a fresh topology epoch; the last
    // cutover must carry the current one.
    let last_epoch = timeline
        .iter()
        .rev()
        .find(|e| e.kind == EventKind::SplitCutover)
        .map(|e| e.b)
        .unwrap();
    assert_eq!(last_epoch, db.topology_epoch());
}

/// Every compaction — a rewrite or a move — appears in the timeline as one
/// `compaction_begin` and, later in the timeline, exactly one
/// `compaction_end` with the same span id, whose `b` is the bytes the job
/// wrote: the ends drained after each write sum to what
/// `compact_bytes_written` rose by during it.
#[test]
fn every_compaction_span_closes_once_with_its_bytes_written() {
    let db = Db::open_memory(obs_opts()).unwrap();
    let observer = Arc::clone(db.observability().expect("observability is on").observer());

    let mut timeline: Vec<Event> = Vec::new();
    let mut written = 0;
    for i in 0..20_000u64 {
        // Scattered keys, so jobs rewrite their inputs and do not only move.
        let k = i * 7_919 % 20_000;
        db.put(k, &k.to_le_bytes()).unwrap();
        let events = observer.drain();
        let ends = events.iter().filter(|e| e.kind == EventKind::CompactionEnd);
        let now = db.stats().snapshot().compact_bytes_written;
        assert_eq!(ends.map(|e| e.b).sum::<u64>(), now - written, "put {i}");
        written = now;
        timeline.extend(events);
    }
    assert_eq!(observer.dropped(), 0, "drains must outrun the buffer");

    let stats = db.stats().snapshot();
    let (jobs, moves) = (stats.compactions, stats.compaction_moves);
    assert!(jobs > moves, "{jobs} jobs, {moves} moves: none rewrote");
    let begins: Vec<(usize, &Event)> = timeline
        .iter()
        .enumerate()
        .filter(|(_, e)| e.kind == EventKind::CompactionBegin)
        .collect();
    assert_eq!(begins.len() as u64, stats.compactions);
    for (at, begin) in begins {
        assert_ne!(begin.span, 0, "spans carry live ids");
        let ends: Vec<usize> = timeline
            .iter()
            .enumerate()
            .filter(|(_, e)| e.kind == EventKind::CompactionEnd && e.span == begin.span)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(ends.len(), 1, "span {}: one end", begin.span);
        assert!(ends[0] > at, "span {}: end before begin", begin.span);
    }
}

/// The same deterministic workload, observability off vs on: every
/// non-temporal `DbStats` counter must match exactly. (Wall-clock `_ns`
/// aggregates differ run to run regardless of observability, so they are
/// excluded; everything countable must be untouched by the layer.)
#[test]
fn disabling_observability_leaves_counters_byte_identical() {
    fn run(observability: bool) -> Vec<(String, u64)> {
        let mut base = Options::small_for_tests();
        base.observability = observability;
        let opts = ShardedOptions::learned(2, (0..1600).collect(), base);
        let db = ShardedDb::open_memory(opts).unwrap();
        let wopts = WriteOptions::default();
        for i in 0..400u64 {
            let mut batch = WriteBatch::new();
            for j in 0..4u64 {
                batch.put(i * 4 + j, &(i * 4 + j).to_le_bytes());
            }
            db.write(batch, &wopts).unwrap();
        }
        for k in (0..1600u64).step_by(3) {
            assert!(db.get(k).unwrap().is_some());
        }
        db.scan(100, 50).unwrap();
        db.flush().unwrap();
        db.stats()
            .counter_pairs()
            .into_iter()
            .filter(|(name, _)| !name.ends_with("_ns"))
            .collect()
    }

    let off = run(false);
    let on = run(true);
    assert_eq!(off, on, "observability changed an engine counter");
}

/// A flush that meets a device error still closes its span: walk the fault
/// through every write of one synchronous flush cycle (the rotation's
/// manifest seal, the table's appends, the flush's seal) and require, at
/// each failing landing, that every `flush_begin` in the timeline has its
/// `flush_end` — and that the healed retry succeeds.
#[test]
fn a_failed_synchronous_flush_closes_its_span() {
    let mut spans_that_failed = 0;
    for n in 0.. {
        let (storage, faults) = FaultStorage::wrap(Arc::new(MemStorage::new()));
        let db = Db::open(storage, obs_opts()).unwrap();
        let observer = Arc::clone(db.observability().expect("observability is on").observer());
        for k in 0..100u64 {
            db.put(k, b"pending").unwrap();
        }
        faults.fail_writes_after(n);
        let outcome = db.flush();
        let timeline = observer.drain();
        let spans_of = |kind| -> Vec<u64> {
            let of_kind = timeline.iter().filter(|e| e.kind == kind);
            of_kind.map(|e| e.span).collect()
        };
        let begins = spans_of(EventKind::FlushBegin);
        assert_eq!(
            begins,
            spans_of(EventKind::FlushEnd),
            "fault after {n} writes: a flush span was left open"
        );
        if outcome.is_ok() {
            assert_eq!(begins.len(), 1, "the unfaulted cycle flushes once");
            break;
        }
        spans_that_failed += begins.len();
        faults.heal();
        db.flush().unwrap();
        assert_eq!(db.get(7).unwrap(), Some(b"pending".to_vec()));
    }
    assert!(spans_that_failed > 0, "no fault landed inside a flush");
}
