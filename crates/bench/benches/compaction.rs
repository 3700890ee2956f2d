//! Criterion bench: range-partitioned parallel compaction
//! (`Options::max_subcompactions`) under a sustained zipfian write stream.
//!
//! The stream runs to steady state on the simulated NVMe with background
//! maintenance (1 flush + 1 compaction worker) and an eager L0 compaction
//! trigger, so compaction drain rate — not the write path — is the
//! binding constraint and every nanosecond the merge saves comes straight
//! out of writer stalls. Two metrics per knob setting, reported through
//! `iter_custom` so the shim's `median_ns` *is* the metric:
//!
//! * `compaction_stall_ns` — total write-stall wall time of one stream
//!   (slowdown delays + hard stops). This is the group the CI bench-smoke
//!   gate compares: 4 subcompactions must stall less than 1.
//! * `compaction_device_ns` — the repo's standard headline: CPU wall time
//!   of the stream + modeled device write time, machine-independent.
//!
//! A summary pass prints the stall *share* (stall / wall), compaction
//! counts and write amplification behind the two latencies.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use learned_index::IndexKind;
use lsm_tree::{Db, Maintenance, Options};
use lsm_workloads::{value_for_key, RequestDistribution};
use rand::rngs::StdRng;
use rand::SeedableRng;

const OPS: usize = 60_000;
const KEY_POSITIONS: usize = 1 << 16;
const VALUE_WIDTH: usize = 64;
const ZIPF_THETA: f64 = 0.99;

fn bench_opts(max_subcompactions: usize) -> Options {
    let mut o = Options::default();
    o.index.kind = IndexKind::Pgm;
    o.value_width = VALUE_WIDTH;
    o.write_buffer_bytes = 128 << 10;
    o.sstable_target_bytes = 128 << 10;
    o.maintenance = Maintenance::background();
    // An eager trigger: the stream outruns a single-threaded merge, so the
    // stall counters see exactly what the parallel merge buys back.
    o.l0_compaction_trigger = 2;
    o.max_subcompactions = max_subcompactions;
    o
}

/// Spread a zipfian *position* over the key space so compaction inputs
/// span wide, cuttable ranges (hot positions stay hot — same key every
/// time — but neighbors in rank are far apart in key space).
fn key_of(pos: usize) -> u64 {
    (pos as u64).wrapping_mul(2_654_435_761) % (1 << 40)
}

struct RunOutcome {
    wall_ns: u64,
    stall_ns: u64,
    device_ns: u64,
    compactions: u64,
    subcompactions: u64,
    write_amp: f64,
}

/// One full zipfian stream against a fresh tree; drained to a quiesced
/// state so every knob setting pays for all the maintenance it queued.
fn run_stream(max_subcompactions: usize) -> RunOutcome {
    let db =
        Db::open_sim(bench_opts(max_subcompactions), lsm_io::CostModel::default()).expect("open");
    let chooser = RequestDistribution::Zipfian { theta: ZIPF_THETA }.chooser(KEY_POSITIONS);
    let mut rng = StdRng::seed_from_u64(0xC0AC);
    let wall = std::time::Instant::now();
    for _ in 0..OPS {
        let k = key_of(chooser.next(&mut rng));
        db.put(k, &value_for_key(k, VALUE_WIDTH)).expect("put");
    }
    db.flush().expect("flush");
    db.wait_for_maintenance();
    assert_eq!(db.background_error(), None);
    let wall_ns = wall.elapsed().as_nanos() as u64;
    let s = db.stats().snapshot();
    RunOutcome {
        wall_ns,
        stall_ns: s.stall_ns,
        device_ns: wall_ns + db.storage().stats().snapshot().sim_write_ns,
        compactions: s.compactions,
        subcompactions: s.subcompactions,
        write_amp: s.write_amplification(),
    }
}

const VARIANTS: [(&str, usize); 2] = [("subc1", 1), ("subc4", 4)];

fn bench_compaction(c: &mut Criterion) {
    let mut g = c.benchmark_group("compaction_stall_ns");
    g.sample_size(10);
    for (name, subc) in VARIANTS {
        g.bench_function(name, |b| {
            b.iter_custom(|iters| {
                let mut total = 0u64;
                for _ in 0..iters {
                    total += run_stream(subc).stall_ns;
                }
                Duration::from_nanos(total)
            })
        });
    }
    g.finish();

    let mut g = c.benchmark_group("compaction_device_ns");
    g.sample_size(10);
    for (name, subc) in VARIANTS {
        g.bench_function(name, |b| {
            b.iter_custom(|iters| {
                let mut total = 0u64;
                for _ in 0..iters {
                    total += run_stream(subc).device_ns;
                }
                Duration::from_nanos(total)
            })
        });
    }
    g.finish();

    println!("\nsubcompaction summary (one stream each, {OPS} zipfian puts):");
    for (name, subc) in VARIANTS {
        let r = run_stream(subc);
        println!(
            "  {name:6} stall {:8.2} ms  share {:5.1}%  wall {:8.2} ms  \
             device {:8.2} ms  compactions {:3}  subcompactions {:4}  wamp {:.2}",
            r.stall_ns as f64 / 1e6,
            100.0 * r.stall_ns as f64 / r.wall_ns.max(1) as f64,
            r.wall_ns as f64 / 1e6,
            r.device_ns as f64 / 1e6,
            r.compactions,
            r.subcompactions,
            r.write_amp,
        );
    }
}

criterion_group!(benches, bench_compaction);
criterion_main!(benches);
