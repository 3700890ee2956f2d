//! Criterion bench: the group-commit write path. Loads the same key set
//! into a fresh tree on the simulated NVMe per-key (`put`) and as
//! `WriteBatch`es of growing size (`Db::write`); the headline metric is the
//! repo's standard "CPU measured + modeled I/O" latency per load. Batched
//! loading must beat per-key by ≥2× (asserted by the
//! `write_batch_speedup_is_at_least_2x` integration test; this bench shows
//! the curve).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use learned_index::IndexKind;
use lsm_tree::{Db, Options, WriteBatch, WriteOptions};
use lsm_workloads::{value_for_key, Dataset};

const KEYS: usize = 20_000;
const VALUE_WIDTH: usize = 64;

fn bench_opts(observability: bool) -> Options {
    let mut o = Options::default();
    o.index.kind = IndexKind::Pgm;
    o.value_width = VALUE_WIDTH;
    o.write_buffer_bytes = 512 << 10;
    o.sstable_target_bytes = 512 << 10;
    o.observability = observability;
    o
}

fn load_per_key(keys: &[u64]) -> Db {
    let db = Db::open_sim(bench_opts(false), lsm_io::CostModel::default()).expect("open");
    for &k in keys {
        db.put(k, &value_for_key(k, VALUE_WIDTH)).expect("put");
    }
    db
}

fn load_batched_with(keys: &[u64], batch_size: usize, observability: bool) -> Db {
    let db = Db::open_sim(bench_opts(observability), lsm_io::CostModel::default()).expect("open");
    let wopts = WriteOptions::default();
    for chunk in keys.chunks(batch_size) {
        let mut batch = WriteBatch::with_capacity(chunk.len());
        for &k in chunk {
            batch.put(k, &value_for_key(k, VALUE_WIDTH));
        }
        db.write(batch, &wopts).expect("write");
    }
    db
}

fn load_batched(keys: &[u64], batch_size: usize) -> Db {
    load_batched_with(keys, batch_size, false)
}

/// Wall time + modeled sim I/O time of one full load, in nanoseconds — the
/// same machine-independent latency convention every report in this repo
/// uses.
fn headline_ns(load: impl Fn() -> Db) -> u64 {
    let wall = std::time::Instant::now();
    let db = load();
    let cpu = wall.elapsed().as_nanos() as u64;
    cpu + db.storage().stats().snapshot().sim_write_ns
}

fn bench_write_path(c: &mut Criterion) {
    let keys = Dataset::Random.generate(KEYS, 0xbeef);

    let mut g = c.benchmark_group("write_path_20k_sim");
    g.sample_size(10);
    g.throughput(Throughput::Elements(KEYS as u64));
    g.bench_function("per_key_put", |b| {
        b.iter(|| std::hint::black_box(headline_ns(|| load_per_key(&keys))))
    });
    for batch_size in [16usize, 128, 1024] {
        g.bench_with_input(
            BenchmarkId::new("batched", batch_size),
            &batch_size,
            |b, &bs| b.iter(|| std::hint::black_box(headline_ns(|| load_batched(&keys, bs)))),
        );
    }
    // The observability overhead bar (`obs.overhead_share` in
    // BENCHMARK.json measures the same cost): the same batched load with
    // event emission and latency histograms on must stay within 5% of the
    // plain path.
    g.bench_function("batched_obs/1024", |b| {
        b.iter(|| std::hint::black_box(headline_ns(|| load_batched_with(&keys, 1024, true))))
    });
    g.finish();

    // Print the headline ratio once so `cargo bench --bench write_path`
    // shows the group-commit saving directly.
    let per_key = headline_ns(|| load_per_key(&keys));
    let batched = headline_ns(|| load_batched(&keys, 1024));
    println!(
        "\nheadline load latency (cpu + modeled I/O): per-key {:.2} ms, batched(1024) {:.2} ms, speedup {:.1}x",
        per_key as f64 / 1e6,
        batched as f64 / 1e6,
        per_key as f64 / batched.max(1) as f64,
    );
}

criterion_group!(benches, bench_write_path);
criterion_main!(benches);
