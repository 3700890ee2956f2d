//! Criterion micro-bench: index training throughput per family (the "Learn"
//! stage of Figure 9, isolated).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use learned_index::{IndexConfig, IndexKind};
use lsm_workloads::Dataset;

fn bench_build(c: &mut Criterion) {
    let keys = Dataset::Books.generate(200_000, 7);
    let config = IndexConfig { epsilon: 32 };
    let mut g = c.benchmark_group("index_build_200k_books");
    g.sample_size(10);
    g.throughput(Throughput::Elements(keys.len() as u64));
    for kind in IndexKind::ALL {
        g.bench_with_input(
            BenchmarkId::from_parameter(kind.abbrev()),
            &kind,
            |b, &k| {
                b.iter(|| k.build(std::hint::black_box(&keys), &config));
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_build);
criterion_main!(benches);
