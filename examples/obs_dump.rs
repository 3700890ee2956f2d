//! Dump the engine's observability surface under a skewed write-heavy
//! workload: run a sharded engine with background maintenance, drain the
//! event buffer as the stream runs, and finish with the folded
//! Prometheus-style metrics text.
//!
//! ```sh
//! cargo run --release --example obs_dump [ops] [--shards N] [--out FILE]
//! ```
//!
//! Every drained event prints as one `event ...` line (the CI
//! metrics-smoke step fails the build if none appear); `--out` writes the
//! final `MetricsSnapshot::render_text()` exposition to a file.

use std::sync::Arc;

use learned_lsm_repro::lsm::sharding::ShardedDb;
use learned_lsm_repro::lsm::{Maintenance, Options, ShardedOptions, WriteBatch, WriteOptions};
use lsm_io::MemStorage;
use lsm_io::Storage;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let mut ops: u64 = 200_000;
    let mut shards: usize = 2;
    let mut out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--shards" => {
                shards = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--shards needs a number");
            }
            "--out" => out = Some(args.next().expect("--out needs a path")),
            other => {
                ops = other
                    .parse()
                    .expect("usage: obs_dump [ops] [--shards N] [--out FILE]")
            }
        }
    }

    let mut base = Options::small_for_tests();
    base.observability = true;
    base.maintenance = Maintenance::Background;
    // Uniform-trained boundaries + a stream dense near zero: the first
    // shard takes nearly every write, so the timeline carries its
    // flushes, compactions and stalls.
    let sample: Vec<u64> = (0..4096u64).map(|i| i << 32).collect();
    let opts = ShardedOptions::learned(shards, sample, base);
    let storage: Arc<dyn Storage> = Arc::new(MemStorage::new());
    let db = ShardedDb::open(storage, opts).expect("open");
    let observer = Arc::clone(db.observer().expect("observability is on"));

    let mut rng = StdRng::seed_from_u64(0x0b5d);
    let value = vec![0xCDu8; 32];
    let mut batch = WriteBatch::new();
    let mut events = 0u64;
    for i in 0..ops {
        let k = if i % 16 == 0 {
            rng.gen::<u64>()
        } else {
            rng.gen_range(0..1u64 << 20)
        };
        batch.put(k, &value);
        if batch.len() >= 8 {
            db.write(std::mem::take(&mut batch), &WriteOptions::default())
                .expect("write");
        }
        if i % 4096 == 0 {
            for e in observer.drain() {
                println!("event {}", e.render());
                events += 1;
            }
        }
        if i % 64 == 0 {
            let _ = db.get(rng.gen_range(0..1u64 << 20)).expect("get");
        }
    }
    db.write(batch, &WriteOptions::default()).expect("write");
    db.flush().expect("flush");

    // The final scrape folds per-shard histograms and drains the tail of
    // the timeline.
    let snap = db.metrics();
    for e in &snap.events {
        println!("event {}", e.render());
        events += 1;
    }
    let text = snap.render_text();
    if let Some(path) = out {
        std::fs::write(&path, &text).expect("write --out file");
        eprintln!("wrote metrics exposition to {path}");
    } else {
        println!("{text}");
    }
    eprintln!(
        "{} ops, {} shards, {} events, {} dropped",
        ops,
        db.shard_count(),
        events,
        snap.dropped_events
    );
    db.close().expect("close");
}
