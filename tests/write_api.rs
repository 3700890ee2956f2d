//! Cross-crate check for the `WriteBatch` group-commit API at the harness
//! layer: the testbed's write-path load goes Testbed → `Db::write` → WAL
//! and pays one WAL record per batch, not one per key.

use learned_lsm_repro::index::IndexKind;
use learned_lsm_repro::testbed::{Granularity, Testbed, TestbedConfig};
use learned_lsm_repro::workloads::Dataset;

#[test]
fn batched_and_per_key_loads_agree() {
    let mut config = TestbedConfig::quick(IndexKind::Pgm, 64, Dataset::Segment);
    config.num_keys = 20_000;
    config.value_width = 32;
    config.granularity = Granularity::SstBytes(128 << 10);
    config.write_buffer_bytes = 128 << 10;

    // The batched write-path load must produce a readable tree with every
    // loaded key present (the YCSB load phase contract).
    let mut tb = Testbed::new(config).unwrap();
    tb.load_via_writes().unwrap();
    let keys: Vec<u64> = tb.keys().to_vec();
    for &k in keys.iter().step_by(397) {
        assert!(tb.db().get(k).unwrap().is_some(), "key {k} lost in load");
    }
    let stats = tb.db().stats().snapshot();
    assert_eq!(stats.write_entries, keys.len() as u64);
    assert_eq!(
        stats.wal_appends,
        keys.len().div_ceil(Testbed::LOAD_BATCH) as u64,
        "the load must log one WAL record per {}-entry batch",
        Testbed::LOAD_BATCH
    );
}
