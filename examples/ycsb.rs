//! Run the six YCSB core workloads against a chosen index — the scenario of
//! the paper's Figure 12 and of its introduction: "which learned index
//! should my key-value store use?"
//!
//! The load phase goes through the real write path in atomic `WriteBatch`es
//! (group commit: one WAL record per 512 keys), producing the naturally
//! layered tree YCSB assumes, instead of a synthetic bulk load.
//!
//! ```sh
//! cargo run --release --example ycsb [index-abbrev] [ops] [--shards N] \
//!     [--max-shards M] [--split-threshold F] [--cache-mb C] [--server] \
//!     [--rate R] [--metrics]
//! ```
//!
//! With `--shards N` (N > 1) the six mixes instead run against the
//! engine-level sharded facade (`ShardedDb`): learned range routing over a
//! sampled key distribution, cross-shard atomic batches, and k-way merged
//! scans, with background maintenance on a shared worker pool. Adding
//! `--max-shards M` lets the topology split hot shards live during the
//! runs (`--split-threshold F` tunes the resident-bytes overshoot that
//! triggers a split; default 0.2).
//!
//! `--cache-mb C` gives the engine a C-MiB shared block/table cache —
//! one budget across every shard in the `--shards`/`--server` paths, and
//! the single tree's budget otherwise (default 0: uncached).
//!
//! With `--server` the six mixes are driven through the `lsm-server`
//! network front end instead: frame protocol, pipelined client, admission
//! control, and a fixed open-loop arrival rate (`--rate R` requests/s;
//! omitted or 0 auto-calibrates from a closed-loop burst). The report
//! shows coordinated-omission-free p50/p99/p99.9 and the sheds the
//! server's backpressure mapping answered with `RETRY_AFTER`, then dumps
//! the engine's sharded-stats JSON fetched through the `STATS` opcode.
//! Adding `--metrics` turns the engine's observability layer on and ends
//! the run with a `METRICS` scrape: per-shard write/get latency quantiles
//! folded across shards plus the recent event timeline, rendered in the
//! Prometheus text exposition.

use learned_lsm_repro::index::IndexKind;
use learned_lsm_repro::testbed::{Granularity, Testbed, TestbedConfig};
use learned_lsm_repro::workloads::{Dataset, YcsbSpec};

fn main() {
    let mut shards = 1usize;
    let mut max_shards = 0usize;
    let mut split_threshold = 0.2f64;
    let mut cache_mb = 0usize;
    let mut server = false;
    let mut rate = None;
    let mut metrics = false;
    let mut positional = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--shards" => {
                shards = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--shards needs a number");
            }
            "--max-shards" => {
                max_shards = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--max-shards needs a number");
            }
            "--split-threshold" => {
                split_threshold = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--split-threshold needs a number");
            }
            "--cache-mb" => {
                cache_mb = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--cache-mb needs a number");
            }
            "--server" => server = true,
            "--metrics" => metrics = true,
            "--rate" => {
                let r: f64 = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--rate needs a number");
                rate = (r > 0.0).then_some(r);
            }
            _ => positional.push(a),
        }
    }
    let mut positional = positional.into_iter();
    let kind = positional
        .next()
        .and_then(|s| IndexKind::from_abbrev(&s))
        .unwrap_or(IndexKind::Pgm);
    let ops: usize = positional
        .next()
        .and_then(|s| s.parse().ok())
        .unwrap_or(20_000);

    if server {
        run_server(kind, shards, ops, rate, metrics, cache_mb);
        return;
    }
    if metrics {
        eprintln!("--metrics requires --server (the scrape goes through the METRICS opcode)");
        std::process::exit(2);
    }
    if shards > 1 {
        run_sharded(kind, shards, ops, max_shards, split_threshold, cache_mb);
        return;
    }
    println!("index={} ops-per-workload={ops}\n", kind.abbrev());
    println!(
        "{:>9} {:>14} {:>14}  mix",
        "workload", "avg op (µs)", "index mem (B)"
    );
    let mixes = [
        ("A", "50% read / 50% update, zipfian"),
        ("B", "95% read / 5% update, zipfian"),
        ("C", "100% read, zipfian"),
        ("D", "95% read-latest / 5% insert"),
        ("E", "95% short scans / 5% insert"),
        ("F", "50% read / 50% read-modify-write"),
    ];
    for (spec, (_, mix)) in YcsbSpec::ALL.iter().zip(mixes.iter()) {
        let mut c = TestbedConfig::quick(kind, 64, Dataset::Random);
        c.num_keys = 100_000;
        c.value_width = 64;
        c.granularity = Granularity::SstBytes(512 << 10);
        c.write_buffer_bytes = 512 << 10;
        c.block_cache_bytes = cache_mb << 20;
        let mut tb = Testbed::new(c).expect("open testbed");
        // YCSB load phase: batched writes through the normal write path.
        tb.load_via_writes().expect("batched load");
        let avg = tb.run_ycsb(*spec, ops).expect("ycsb");
        println!(
            "{:>9} {:>14.2} {:>14}  {}",
            format!("YCSB-{}", spec.name()),
            avg,
            tb.index_memory_bytes(),
            mix
        );
    }
}

/// The `--server` path: all six mixes through the `lsm-server` front end
/// at an open-loop arrival rate, ending with the engine's sharded-stats
/// report fetched through the wire (the `STATS` opcode).
fn run_server(
    kind: IndexKind,
    shards: usize,
    ops: usize,
    rate: Option<f64>,
    metrics: bool,
    cache_mb: usize,
) {
    use learned_lsm_repro::bench::{runner, Scale};

    let mut scale = Scale::quick();
    scale.ops = ops;
    println!(
        "lsm-server front end: index={} {shards} shard(s), open-loop {}, ops-per-workload={ops}\n",
        kind.abbrev(),
        match rate {
            Some(r) => format!("{r:.0} req/s"),
            None => "auto-calibrated rate".to_string(),
        }
    );
    println!(
        "{:>9} {:>11} {:>11} {:>10} {:>10} {:>10} {:>7} {:>7}",
        "workload",
        "rate (r/s)",
        "ach. (r/s)",
        "p50 (µs)",
        "p99 (µs)",
        "p99.9(µs)",
        "shed",
        "errors"
    );
    let (records, stats, snap) = runner::ycsb_server(
        &scale,
        Dataset::Random,
        shards,
        kind,
        0xfeed,
        rate,
        cache_mb,
        metrics,
    )
    .expect("server ycsb");
    for r in records {
        println!(
            "{:>9} {:>11.0} {:>11.0} {:>10.1} {:>10.1} {:>10.1} {:>7} {:>7}",
            format!("YCSB-{}", r.workload),
            r.target_rate,
            r.achieved_rate,
            r.p50_us,
            r.p99_us,
            r.p999_us,
            r.shed,
            r.errors,
        );
    }
    println!("\nsharded stats (last mix, via STATS):\n{stats}");
    if let Some(snap) = snap {
        println!("\nmetrics (last mix, via METRICS):\n{}", snap.render_text());
    }
}

/// The `--shards N` path: all six mixes against a `ShardedDb` via the
/// bench runner (learned range routing, shared worker pool, modeled I/O;
/// optional live splitting when `--max-shards` is set).
fn run_sharded(
    kind: IndexKind,
    shards: usize,
    ops: usize,
    max_shards: usize,
    split_threshold: f64,
    cache_mb: usize,
) {
    use learned_lsm_repro::bench::{runner, Scale};

    let mut scale = Scale::quick();
    scale.ops = ops;
    println!(
        "sharded engine: index={} {shards} shards{}, ops-per-workload={ops}\n",
        kind.abbrev(),
        if max_shards > 0 {
            format!(" (live splits up to {max_shards})")
        } else {
            String::new()
        }
    );
    println!(
        "{:>9} {:>14} {:>16} {:>8} {:>12}",
        "workload", "avg op (µs)", "load imbalance", "splits", "stalls (ms)"
    );
    let records = runner::ycsb_sharded(
        &scale,
        Dataset::Random,
        shards,
        kind,
        0xfeed,
        runner::Rebalance::from_flags(max_shards, split_threshold),
        cache_mb,
    )
    .expect("sharded ycsb");
    for r in records {
        println!(
            "{:>9} {:>14.2} {:>15.1}% {:>8} {:>12.2}",
            format!("YCSB-{}", r.workload),
            r.avg_op_us,
            r.load_imbalance * 100.0,
            r.splits,
            r.stall_ms,
        );
    }
}
