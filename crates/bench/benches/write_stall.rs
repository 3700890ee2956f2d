//! Criterion bench: write throughput under maintenance scheduling and
//! backpressure. Loads the same key set into a fresh tree on the simulated
//! NVMe under `Maintenance::Synchronous` (flush + merge cascade inline in
//! the write path) and `Maintenance::Background` at LevelDB's L0 compaction
//! trigger and at an eager one (admission's own limits are constants); the
//! headline metric is the repo's standard "CPU measured + modeled I/O"
//! latency per load. A final summary prints the stall counters so the
//! backpressure cost is visible next to the latency.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use learned_index::IndexKind;
use lsm_tree::{Db, Maintenance, Options};
use lsm_workloads::{value_for_key, Dataset};

const KEYS: usize = 20_000;
const VALUE_WIDTH: usize = 64;

fn bench_opts(maintenance: Maintenance, l0_trigger: usize) -> Options {
    let mut o = Options::default();
    o.index.kind = IndexKind::Pgm;
    o.value_width = VALUE_WIDTH;
    o.write_buffer_bytes = 512 << 10;
    o.sstable_target_bytes = 512 << 10;
    o.maintenance = maintenance;
    o.l0_compaction_trigger = l0_trigger;
    o
}

fn load(keys: &[u64], opts: Options) -> Db {
    let db = Db::open_sim(opts, lsm_io::CostModel::default()).expect("open");
    for &k in keys {
        db.put(k, &value_for_key(k, VALUE_WIDTH)).expect("put");
    }
    db.flush().expect("flush");
    db.wait_for_maintenance();
    assert_eq!(db.background_error(), None);
    db
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

fn bench_write_stall(c: &mut Criterion) {
    let keys = Dataset::Random.generate(KEYS, 0xfeed);

    // (name, scheduling, l0 compaction trigger)
    let variants: [(&str, Maintenance, usize); 3] = [
        ("synchronous", Maintenance::Synchronous, 4),
        ("background", Maintenance::background(), 4),
        ("background_eager", Maintenance::background(), 2),
    ];

    let mut g = c.benchmark_group("write_stall_20k_sim");
    g.sample_size(10);
    g.throughput(Throughput::Elements(KEYS as u64));
    for (name, maint, trigger) in variants {
        g.bench_with_input(BenchmarkId::from_parameter(name), &name, |b, _| {
            b.iter(|| std::hint::black_box(headline_ns(|| load(&keys, bench_opts(maint, trigger)))))
        });
    }
    g.finish();

    // One summary pass per variant: the stall/overlap counters behind the
    // latencies above.
    println!("\nstall + overlap summary (one load each):");
    for (name, maint, trigger) in variants {
        let db = load(&keys, bench_opts(maint, trigger));
        let s = db.stats().snapshot();
        println!(
            "  {name:18} flushes {:3}  compactions {:3}  rotations {:3}  \
             slowdowns {:4}  stops {:2}  stall {:6.2} ms  overlapped writes {:5}",
            s.flushes,
            s.compactions,
            s.imm_rotations,
            s.stall_slowdowns,
            s.stall_stops,
            s.stall_ns as f64 / 1e6,
            s.writes_during_maintenance,
        );
    }
}

criterion_group!(benches, bench_write_stall);
criterion_main!(benches);
