//! Whole-engine property tests against an in-memory oracle.
//!
//! A random stream of puts/deletes/atomic batches/gets/scans runs through
//! the LSM-tree (with limits small enough to force flushes and multi-level
//! compactions) and simultaneously through a `BTreeMap` reference model;
//! every read must agree, under every index kind and at either index
//! granularity. Halfway through, a
//! [`Snapshot`] is taken and held across the remaining churn — at the end
//! its full contents must still equal the oracle state at that midpoint.
//!
//! The sharded extension mirrors random *cross-shard* batches into the
//! model while periodically crashing the storage at a seeded random
//! operation index (`lsm_io::CrashStorage`) and reopening from the frozen
//! image — recovery must agree with the model key-for-key, with the one
//! ambiguous in-flight batch resolved all-or-nothing. Set
//! `LSM_CRASH_SEED` to replay a schedule; the seed is printed on entry so
//! a failure names it.

use std::collections::BTreeMap;
use std::sync::Arc;

use learned_index::IndexKind;
use lsm_io::{CrashStorage, Storage};
use lsm_tree::{
    Db, IndexGranularity, Options, ReadOptions, ShardedDb, ShardedOptions, WriteBatch, WriteOptions,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[derive(Debug, Clone)]
enum OpSpec {
    Put(u64, u8),
    Delete(u64),
    /// Atomic `WriteBatch`: `Some(v)` puts, `None` deletes.
    Batch(Vec<(u64, Option<u8>)>),
    Get(u64),
    Scan(u64, usize),
}

fn op_strategy() -> impl Strategy<Value = OpSpec> {
    prop_oneof![
        4 => (0u64..3_000, any::<u8>()).prop_map(|(k, v)| OpSpec::Put(k, v)),
        1 => (0u64..3_000).prop_map(OpSpec::Delete),
        1 => prop::collection::vec((0u64..3_000, prop_oneof![
                3 => any::<u8>().prop_map(Some),
                1 => (0u64..1).prop_map(|_| None),
            ]), 1..30)
            .prop_map(OpSpec::Batch),
        2 => (0u64..3_200).prop_map(OpSpec::Get),
        1 => (0u64..3_000, 1usize..40).prop_map(|(k, l)| OpSpec::Scan(k, l)),
    ]
}

fn value_bytes(v: u8) -> Vec<u8> {
    vec![v; 16]
}

fn dump(db: &Db, ropts: &ReadOptions<'_>) -> Vec<(u64, Vec<u8>)> {
    let mut it = db.iter_with(ropts).unwrap();
    it.seek_to_first();
    it.collect_up_to(usize::MAX).unwrap()
}

fn run_against_oracle(
    kind: IndexKind,
    granularity: IndexGranularity,
    ops: &[OpSpec],
) -> Result<(), TestCaseError> {
    let mut opts = Options::small_for_tests();
    opts.index.kind = kind;
    opts.index.granularity = granularity;
    let db = Db::open_memory(opts).unwrap();
    let what = format!("{kind} {granularity:?}");
    let mut oracle: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    type HeldSnapshot = (lsm_tree::Snapshot, Vec<(u64, Vec<u8>)>);
    let mut held: Option<HeldSnapshot> = None;

    for (i, op) in ops.iter().enumerate() {
        if i == ops.len() / 2 {
            // Pin the midpoint state and hold it across the rest of the run.
            held = Some((
                db.snapshot(),
                oracle.iter().map(|(k, v)| (*k, v.clone())).collect(),
            ));
        }
        match op {
            OpSpec::Put(k, v) => {
                db.put(*k, &value_bytes(*v)).unwrap();
                oracle.insert(*k, value_bytes(*v));
            }
            OpSpec::Delete(k) => {
                db.delete(*k).unwrap();
                oracle.remove(k);
            }
            OpSpec::Batch(entries) => {
                let mut batch = WriteBatch::new();
                for (k, v) in entries {
                    match v {
                        Some(v) => {
                            batch.put(*k, &value_bytes(*v));
                            oracle.insert(*k, value_bytes(*v));
                        }
                        None => {
                            batch.delete(*k);
                            oracle.remove(k);
                        }
                    }
                }
                db.write(batch, &WriteOptions::default()).unwrap();
            }
            OpSpec::Get(k) => {
                let got = db.get(*k).unwrap();
                prop_assert_eq!(got.as_ref(), oracle.get(k), "{} get({})", what, k);
            }
            OpSpec::Scan(start, limit) => {
                let got = db.scan(*start, *limit).unwrap();
                let want: Vec<(u64, Vec<u8>)> = oracle
                    .range(start..)
                    .take(*limit)
                    .map(|(k, v)| (*k, v.clone()))
                    .collect();
                prop_assert_eq!(&got, &want, "{} scan({}, {})", what, start, limit);
            }
        }
    }

    // Final sweep: every key agrees after all flushes/compactions settle.
    db.flush().unwrap();
    for (k, v) in &oracle {
        let got = db.get(*k).unwrap();
        prop_assert_eq!(got.as_ref(), Some(v), "{} final {}", what, k);
    }
    // The held snapshot still reads exactly the midpoint state.
    if let Some((snap, want)) = held {
        let got = dump(&db, &ReadOptions::at(&snap));
        prop_assert_eq!(got, want, "{} snapshot diverged", what);
    }
    // Every sorted level that holds tables is read through its model.
    let version = db.version();
    for (level, tables) in version.levels.iter().enumerate().skip(1) {
        let wants_model = granularity == IndexGranularity::Level && !tables.is_empty();
        let has_model = version.level_index(level).is_some();
        prop_assert_eq!(has_model, wants_model, "{} level {}", what, level);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        .. ProptestConfig::default()
    })]

    #[test]
    fn lsm_matches_btreemap_pgm(ops in prop::collection::vec(op_strategy(), 1..800)) {
        run_against_oracle(IndexKind::Pgm, IndexGranularity::Table, &ops)?;
    }

    #[test]
    fn lsm_matches_btreemap_fence(ops in prop::collection::vec(op_strategy(), 1..800)) {
        run_against_oracle(IndexKind::FencePointers, IndexGranularity::Table, &ops)?;
    }

    #[test]
    fn lsm_matches_btreemap_rmi(ops in prop::collection::vec(op_strategy(), 1..800)) {
        run_against_oracle(IndexKind::Rmi, IndexGranularity::Table, &ops)?;
    }

    #[test]
    fn lsm_matches_btreemap_plex(ops in prop::collection::vec(op_strategy(), 1..800)) {
        run_against_oracle(IndexKind::Plex, IndexGranularity::Table, &ops)?;
    }

    #[test]
    fn lsm_matches_btreemap_level_granularity(ops in prop::collection::vec(op_strategy(), 1..800)) {
        run_against_oracle(IndexKind::Pgm, IndexGranularity::Level, &ops)?;
    }
}

/// One deterministic end-to-end pass for each of the seven kinds at either
/// granularity (keeps the proptest budget low while still touching every
/// family).
#[test]
fn all_kinds_deterministic_smoke() {
    let ops: Vec<OpSpec> = (0..3_000u64)
        .map(|i| match i % 11 {
            0 => OpSpec::Delete(i % 700),
            1 => OpSpec::Get(i % 800),
            2 => OpSpec::Scan(i % 600, 10),
            _ => OpSpec::Put((i * 37) % 900, (i % 251) as u8),
        })
        .collect();
    for kind in IndexKind::ALL {
        for granularity in [IndexGranularity::Table, IndexGranularity::Level] {
            run_against_oracle(kind, granularity, &ops).unwrap();
        }
    }
}

// ----------------------------------------------- sharded + crash points

/// One buffered operation of a random cross-shard batch: `Some` puts,
/// `None` deletes.
type NetOps = BTreeMap<u64, Option<Vec<u8>>>;

fn sharded_opts() -> ShardedOptions {
    let mut base = Options::small_for_tests();
    base.index.kind = IndexKind::Pgm;
    // Splits enabled: the workload's resident bytes outgrow the fair
    // share as rounds accumulate, so live splits (and crashes landing
    // anywhere inside them — begin, drain, cutover) interleave with the
    // crash/reopen schedule. Reopens adopt whatever topology epoch the
    // image holds.
    ShardedOptions::learned(3, (0..4000u64).collect(), base)
        .with_max_shards(6)
        .with_split_trigger(0.2, 1 << 10)
}

/// Random cross-shard batches mirrored into a `BTreeMap`, with periodic
/// crash/reopen at seeded random storage-operation indexes. Every write is
/// durable, so `Ok` ⇒ in the image; the single batch in flight at the
/// crash is ambiguous (the marker may or may not have sealed) and is
/// resolved by observation — but it must be all-or-nothing, and every
/// *other* key must match the model exactly.
#[test]
fn sharded_crash_recovery_matches_btreemap() {
    let seed: u64 = std::env::var("LSM_CRASH_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE);
    // Printed even on success so CI logs always name the schedule.
    eprintln!("sharded crash oracle: LSM_CRASH_SEED={seed}");
    let mut rng = StdRng::seed_from_u64(seed);

    let (mut storage, mut ctl) = CrashStorage::new();
    let mut db = ShardedDb::open(Arc::clone(&storage) as Arc<dyn Storage>, sharded_opts()).unwrap();
    let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut batch_id = 0u64;
    let mut crashes = 0u32;

    for round in 0..40u32 {
        // Arm a crash somewhere inside this round's burst of commits.
        ctl.crash_after(rng.gen_range(1..80));
        let mut ambiguous: Option<NetOps> = None;
        for _ in 0..rng.gen_range(4..16) {
            batch_id += 1;
            let mut batch = WriteBatch::new();
            let mut net: NetOps = BTreeMap::new();
            for _ in 0..rng.gen_range(1..12usize) {
                let k = rng.gen_range(0..4000u64);
                if rng.gen_range(0..5u8) == 0 {
                    batch.delete(k);
                    net.insert(k, None);
                } else {
                    let v = format!("b{batch_id}-k{k}").into_bytes();
                    batch.put(k, &v);
                    net.insert(k, Some(v));
                }
            }
            match db.write(batch, &WriteOptions::durable()) {
                Ok(_) => {
                    for (k, v) in net {
                        match v {
                            Some(v) => model.insert(k, v),
                            None => model.remove(&k),
                        };
                    }
                }
                Err(_) => {
                    ambiguous = Some(net);
                    break;
                }
            }
        }
        match ambiguous {
            None => ctl.disarm(), // burst ended before the crash point
            Some(net) => {
                crashes += 1;
                drop(db);
                let (s2, c2) = CrashStorage::over(storage.image());
                storage = s2;
                ctl = c2;
                db = ShardedDb::open(Arc::clone(&storage) as Arc<dyn Storage>, sharded_opts())
                    .unwrap();
                // Resolve the in-flight batch by observation: the image
                // either holds all of its net effect or none of it.
                let matches_without = net
                    .iter()
                    .all(|(k, _)| db.get(*k).unwrap().as_ref() == model.get(k));
                let matches_with = net
                    .iter()
                    .all(|(k, v)| db.get(*k).unwrap().as_ref() == v.as_ref());
                assert!(
                    matches_without || matches_with,
                    "seed {seed} round {round}: torn in-flight batch after crash \
                     (neither committed nor aborted cleanly): {net:?}"
                );
                if matches_with && !matches_without {
                    for (k, v) in net {
                        match v {
                            Some(v) => model.insert(k, v),
                            None => model.remove(&k),
                        };
                    }
                }
            }
        }
        // Full-scan equivalence after every round.
        let got = db.scan(0, usize::MAX).unwrap();
        let want: Vec<(u64, Vec<u8>)> = model.iter().map(|(k, v)| (*k, v.clone())).collect();
        assert_eq!(got, want, "seed {seed} round {round}: scan diverged");
    }
    assert!(
        crashes >= 5,
        "seed {seed}: schedule produced only {crashes} crashes"
    );
    assert!(!model.is_empty(), "seed {seed}: workload wrote nothing");
    assert!(
        db.shard_count() > 3,
        "seed {seed}: the schedule never grew the topology \
         ({} shards) — splits are part of what this oracle exercises",
        db.shard_count()
    );
}

/// Full-database iteration equals the oracle's full ordered contents.
#[test]
fn full_iteration_matches_oracle() {
    let mut opts = Options::small_for_tests();
    opts.index.kind = IndexKind::RadixSpline;
    let db = Db::open_memory(opts).unwrap();
    let mut oracle = BTreeMap::new();
    for i in 0..4_000u64 {
        let k = (i * 761) % 2_500;
        let v = vec![(i % 256) as u8; 12];
        db.put(k, &v).unwrap();
        oracle.insert(k, v);
    }
    for k in (0..2_500u64).step_by(3) {
        db.delete(k).unwrap();
        oracle.remove(&k);
    }
    let mut it = db.iter().unwrap();
    it.seek_to_first();
    let got = it.collect_up_to(usize::MAX).unwrap();
    let want: Vec<(u64, Vec<u8>)> = oracle.into_iter().collect();
    assert_eq!(got, want);
}
