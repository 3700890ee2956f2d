//! Criterion micro-bench: end-to-end point lookup per index family on a
//! loaded multi-level tree (Figure 6's latency axis at one boundary).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use learned_index::IndexKind;
use learned_lsm::{Granularity, Testbed, TestbedConfig};
use lsm_workloads::Dataset;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_point_lookup(c: &mut Criterion) {
    let mut g = c.benchmark_group("point_lookup_40k_random_b64");
    g.sample_size(20);
    for kind in IndexKind::ALL {
        let mut config = TestbedConfig::quick(kind, 64, Dataset::Random);
        config.num_keys = 40_000;
        config.value_width = 64;
        config.granularity = Granularity::SstBytes(256 << 10);
        config.write_buffer_bytes = 256 << 10;
        let mut tb = Testbed::new(config).expect("open");
        tb.load().expect("load");
        let keys: Vec<u64> = tb.keys().to_vec();
        let mut rng = StdRng::seed_from_u64(5);
        let probes: Vec<u64> = (0..1024)
            .map(|_| keys[rng.gen_range(0..keys.len())])
            .collect();
        g.bench_with_input(BenchmarkId::from_parameter(kind.abbrev()), &tb, |b, tb| {
            let mut i = 0usize;
            b.iter(|| {
                i = (i + 1) & 1023;
                std::hint::black_box(tb.db().get(probes[i]).expect("get"))
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_point_lookup);
criterion_main!(benches);
