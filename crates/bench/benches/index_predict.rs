//! Criterion micro-bench: prediction latency per family (the "Prediction"
//! stage of Figure 7(B) / Table 1, isolated from I/O).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use learned_index::{IndexConfig, IndexKind};
use lsm_workloads::Dataset;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_predict(c: &mut Criterion) {
    let keys = Dataset::Random.generate(200_000, 11);
    let config = IndexConfig { epsilon: 16 };
    let mut rng = StdRng::seed_from_u64(3);
    let probes: Vec<u64> = (0..1024)
        .map(|_| keys[rng.gen_range(0..keys.len())])
        .collect();

    let mut g = c.benchmark_group("index_predict_200k_random");
    g.sample_size(20);
    for kind in IndexKind::ALL {
        let idx = kind.build(&keys, &config);
        g.bench_with_input(
            BenchmarkId::from_parameter(kind.abbrev()),
            &idx,
            |b, idx| {
                let mut i = 0usize;
                b.iter(|| {
                    i = (i + 1) & 1023;
                    std::hint::black_box(idx.predict(probes[i]))
                });
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_predict);
criterion_main!(benches);
