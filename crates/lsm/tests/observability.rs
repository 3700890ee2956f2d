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

    // Drain as we go: the ring keeps the *oldest* events on overflow, so
    // a long stream could otherwise crowd out late-arriving split events.
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
    assert_eq!(observer.dropped(), 0, "drain cadence must outrun the ring");

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

/// A range-partitioned compaction must appear in the timeline as
/// `subcompaction_begin` / `subcompaction_end` sub-spans nested inside
/// their parent `compaction_begin` / `compaction_end` span: each sub-span
/// begin carries the parent's span id in `a`, sits between the parent's
/// begin and end, and the sub-spans' output bytes sum to the parent's.
#[test]
fn parallel_compaction_emits_parent_linked_sub_spans() {
    let mut opts = obs_opts();
    opts.max_subcompactions = 4;
    let db = Db::open_memory(opts).unwrap();
    let observer = Arc::clone(db.observability().expect("observability is on").observer());

    // Drain as we go so the ring never overflows mid-stream.
    let mut timeline: Vec<Event> = Vec::new();
    for k in 0..30_000u64 {
        db.put(k, &k.to_le_bytes()).unwrap();
        if k % 512 == 0 {
            timeline.extend(observer.drain());
        }
    }
    timeline.extend(observer.drain());
    assert_eq!(observer.dropped(), 0, "drain cadence must outrun the ring");

    let sub_begins: Vec<(usize, &Event)> = timeline
        .iter()
        .enumerate()
        .filter(|(_, e)| e.kind == EventKind::SubcompactionBegin)
        .collect();
    assert!(
        !sub_begins.is_empty(),
        "the stream must partition at least one compaction"
    );

    for (begin_idx, begin) in &sub_begins {
        assert_ne!(begin.span, 0, "sub-spans carry live span ids");
        let parent_span = begin.a;
        // The parent compaction span exists and brackets the sub-span.
        let parent_begin = timeline
            .iter()
            .position(|e| e.kind == EventKind::CompactionBegin && e.span == parent_span)
            .expect("sub-span's `a` names a compaction_begin span");
        let parent_end = timeline
            .iter()
            .position(|e| e.kind == EventKind::CompactionEnd && e.span == parent_span)
            .expect("parent compaction must end");
        let sub_end = timeline
            .iter()
            .position(|e| e.kind == EventKind::SubcompactionEnd && e.span == begin.span)
            .expect("every sub-span ends");
        assert!(parent_begin < *begin_idx, "sub-span begins after parent");
        assert!(*begin_idx < sub_end, "sub-span ends after it begins");
        assert!(sub_end < parent_end, "sub-span ends before parent");
    }

    // Per parent: sub-range output bytes sum to the parent's output bytes,
    // and sub-range indexes (begin.b) are 0..n without gaps.
    let parents: std::collections::BTreeSet<u64> = sub_begins.iter().map(|(_, e)| e.a).collect();
    for parent_span in parents {
        let subs: Vec<&Event> = sub_begins
            .iter()
            .filter(|(_, e)| e.a == parent_span)
            .map(|(_, e)| *e)
            .collect();
        let mut indexes: Vec<u64> = subs.iter().map(|e| e.b).collect();
        indexes.sort_unstable();
        assert_eq!(
            indexes,
            (0..subs.len() as u64).collect::<Vec<_>>(),
            "sub-range indexes are dense"
        );
        let sub_out: u64 = subs
            .iter()
            .map(|b| {
                timeline
                    .iter()
                    .find(|e| e.kind == EventKind::SubcompactionEnd && e.span == b.span)
                    .expect("matched above")
                    .b
            })
            .sum();
        let parent_out = timeline
            .iter()
            .find(|e| e.kind == EventKind::CompactionEnd && e.span == parent_span)
            .expect("matched above")
            .b;
        assert_eq!(
            sub_out, parent_out,
            "sub-span output bytes must sum to the parent's"
        );
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
