//! Ablation of an engine-level design choice: block cache on/off under a
//! zipfian read workload (the "memory budget competitor" of Section 1).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use learned_index::IndexKind;
use lsm_io::{CostModel, SimStorage};
use lsm_tree::{Db, IndexChoice, Options};
use lsm_workloads::{Dataset, RequestDistribution};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn build_db(cache_bytes: usize, keys: &[u64]) -> Db {
    let mut opts = Options::small_for_tests();
    opts.index = IndexChoice::with_boundary(IndexKind::Pgm, 128);
    opts.write_buffer_bytes = 256 << 10;
    opts.sstable_target_bytes = 128 << 10;
    opts.block_cache_bytes = cache_bytes;
    let db = Db::open(Arc::new(SimStorage::new(CostModel::default())), opts).expect("open");
    db.bulk_load(keys.iter().map(|&k| (k, vec![0u8; 24])))
        .expect("load");
    db
}

fn bench_block_cache(c: &mut Criterion) {
    let keys = Dataset::Random.generate(60_000, 6);
    let mut g = c.benchmark_group("block_cache_zipfian");
    g.sample_size(20);
    for (name, cache) in [("uncached", 0usize), ("cached_1MiB", 1 << 20)] {
        let db = build_db(cache, &keys);
        let mut rng = StdRng::seed_from_u64(2);
        let chooser = RequestDistribution::Zipfian { theta: 0.99 }.chooser(keys.len());
        let probes: Vec<u64> = (0..1024).map(|_| keys[chooser.next(&mut rng)]).collect();
        g.bench_with_input(BenchmarkId::from_parameter(name), &db, |b, db| {
            let mut i = 0usize;
            b.iter(|| {
                i = (i + 1) & 1023;
                std::hint::black_box(db.get(probes[i]).expect("get"))
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_block_cache);
criterion_main!(benches);
