//! The Bloom budget (`Options::bloom_bits_per_key`; the paper uses 10): what
//! fewer bits per key save in filter memory and cost in false-positive
//! table I/O.

use learned_index::IndexKind;
use lsm_tree::{Db, IndexChoice, Options};

fn opts(bits_per_key: usize) -> Options {
    let mut o = Options::small_for_tests();
    o.index = IndexChoice::with_boundary(IndexKind::Pgm, 32);
    o.bloom_bits_per_key = bits_per_key;
    o
}

fn load(db: &Db, n: u64) {
    for k in 0..n {
        db.put(k * 3, b"v").unwrap();
    }
    db.flush().unwrap();
}

#[test]
fn fewer_bits_per_key_cost_less_memory() {
    let full = Db::open_memory(opts(10)).unwrap();
    load(&full, 6_000);
    let starved = Db::open_memory(opts(2)).unwrap();
    load(&starved, 6_000);
    assert!(
        starved.bloom_memory_bytes() < full.bloom_memory_bytes(),
        "2 bits/key must shrink the bloom footprint: {} vs {}",
        starved.bloom_memory_bytes(),
        full.bloom_memory_bytes()
    );
}

#[test]
fn starved_blooms_mean_more_false_positive_io() {
    // With 1 bit/key the filters pass almost everything; absent-key lookups
    // then pay table I/O that 12 bits/key would have skipped. Every present
    // key still reads back.
    let strong = Db::open_memory(opts(12)).unwrap();
    load(&strong, 6_000);
    let weak = Db::open_memory(opts(1)).unwrap();
    load(&weak, 6_000);

    let miss_rate = |db: &Db| {
        for k in (0..6_000u64).step_by(61) {
            assert_eq!(db.get(k * 3).unwrap(), Some(b"v".to_vec()));
        }
        let before = db.stats().snapshot();
        for k in 0..3_000u64 {
            assert_eq!(db.get(k * 3 + 1).unwrap(), None); // absent keys
        }
        let d = db.stats().snapshot().since(&before);
        d.bloom_negatives as f64 / d.bloom_checks.max(1) as f64
    };
    let strong_rejects = miss_rate(&strong);
    let weak_rejects = miss_rate(&weak);
    assert!(
        strong_rejects > weak_rejects,
        "strong filters must reject more absent-key probes: {strong_rejects:.3} vs {weak_rejects:.3}"
    );
    assert!(
        strong_rejects > 0.9,
        "12 bits/key should reject >90%: {strong_rejects:.3}"
    );
}
