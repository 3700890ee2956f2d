//! Criterion bench: multi-threaded write throughput through the pipelined
//! group commit (writer queue + fused WAL records + parallel skiplist
//! inserts). A fixed total of batches is split across 1/2/4 writer threads
//! against one shared tree, in two configurations:
//!
//! * **`write_concurrency_mem`** — CPU-bound: in-memory storage, no
//!   durability, buffer large enough that the measured region never
//!   flushes. Isolates the queue + WAL framing + skiplist insert path;
//!   its thread curve tracks the host's core count (flat on one core,
//!   scaling with the parallel skiplist apply phase on many).
//! * **`write_concurrency_durable`** — flush-bound: simulated device with
//!   a realized 100 µs `sync` latency and `WriteOptions::durable()`. This
//!   is the configuration group commit exists for: the leader's commit
//!   window fuses every concurrent writer's batch into one record, so the
//!   flush count drops by the thread count — ≥2× 1-thread throughput at
//!   4 writers regardless of host core count. The headline line printed
//!   at the end reports this scaling directly, with the fusion stats
//!   (groups vs batches, WAL syncs) that explain it.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use learned_index::IndexKind;
use lsm_io::CostModel;
use lsm_tree::{Db, Maintenance, Options, WriteBatch, WriteOptions};
use lsm_workloads::value_for_key;

const BATCH: usize = 32;
const TOTAL_BATCHES: usize = 1_024;
const VALUE_WIDTH: usize = 64;

/// Realized flush latency for the durable configuration — loosely an NVMe
/// FLUSH with a disabled volatile cache.
const SYNC_NS: u64 = 100_000;

#[derive(Clone, Copy)]
enum Config {
    /// CPU-bound: memory storage, unsynced writes.
    Mem,
    /// Flush-bound: simulated device, synced writes.
    Durable,
}

fn bench_opts(observability: bool) -> Options {
    let mut o = Options::default();
    o.index.kind = IndexKind::Pgm;
    o.value_width = VALUE_WIDTH;
    // The whole load fits the buffer, so no flush or compaction runs
    // inside the measured region — the bench sees only queue, WAL and
    // skiplist insert work (plus, in the durable config, the WAL flushes).
    o.write_buffer_bytes = 256 << 20;
    o.maintenance = Maintenance::Background;
    o.observability = observability;
    o
}

/// Split `TOTAL_BATCHES` across `threads` writers against one shared tree;
/// returns `(wall_ns, wal_syncs, write_groups)` once every batch is
/// acknowledged (and therefore visible).
fn run_load(config: Config, threads: usize) -> (u64, u64, u64) {
    run_load_with(config, threads, false)
}

fn run_load_with(config: Config, threads: usize, observability: bool) -> (u64, u64, u64) {
    let db = Arc::new(match config {
        Config::Mem => Db::open_memory(bench_opts(observability)).expect("open"),
        Config::Durable => Db::open_sim(
            bench_opts(observability),
            CostModel::with_sync_latency(SYNC_NS),
        )
        .expect("open"),
    });
    let per_thread = TOTAL_BATCHES / threads;
    let started = std::time::Instant::now();
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                let wopts = match config {
                    Config::Mem => WriteOptions::default(),
                    Config::Durable => WriteOptions::durable(),
                };
                for r in 0..per_thread {
                    let mut batch = WriteBatch::with_capacity(BATCH);
                    let base = ((t * per_thread + r) * BATCH) as u64;
                    for i in 0..BATCH as u64 {
                        batch.put(base + i, &value_for_key(base + i, VALUE_WIDTH));
                    }
                    db.write(batch, &wopts).expect("write");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let wall = started.elapsed().as_nanos() as u64;
    let s = db.stats().snapshot();
    (wall, s.wal_syncs, s.write_groups)
}

fn bench_config(c: &mut Criterion, name: &str, config: Config) {
    let mut g = c.benchmark_group(name);
    g.sample_size(10);
    g.throughput(Throughput::Elements((TOTAL_BATCHES * BATCH) as u64));
    for threads in [1usize, 2, 4] {
        g.bench_with_input(BenchmarkId::new("writers", threads), &threads, |b, &t| {
            b.iter(|| std::hint::black_box(run_load(config, t)))
        });
    }
    // Observability overhead at the most contended point: 4 writers
    // racing the commit pipeline with event emission and histograms on
    // must stay within 5% of the plain path.
    g.bench_with_input(BenchmarkId::new("writers_obs", 4usize), &4usize, |b, &t| {
        b.iter(|| std::hint::black_box(run_load_with(config, t, true)))
    });
    g.finish();
}

fn bench_write_concurrency(c: &mut Criterion) {
    bench_config(c, "write_concurrency_mem", Config::Mem);
    bench_config(c, "write_concurrency_durable", Config::Durable);

    // Print the scaling headline once so `cargo bench --bench
    // write_concurrency` shows the commit pipeline's parallel speedup
    // directly, with the fusion stats that produce it.
    let (one, syncs1, groups1) = run_load(Config::Durable, 1);
    let (four, syncs4, groups4) = run_load(Config::Durable, 4);
    println!(
        "\nheadline group-commit scaling (durable): 1 thread {:.2} ms ({} groups, {} syncs), \
         4 threads {:.2} ms ({} groups, {} syncs), speedup {:.2}x",
        one as f64 / 1e6,
        groups1,
        syncs1,
        four as f64 / 1e6,
        groups4,
        syncs4,
        one as f64 / four.max(1) as f64,
    );
}

criterion_group!(benches, bench_write_concurrency);
criterion_main!(benches);
