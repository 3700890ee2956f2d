//! Run the six YCSB core workloads against a chosen index — the scenario of
//! the paper's Figure 12 and of its introduction: "which learned index
//! should my key-value store use?"
//!
//! The load phase goes through the real write path in atomic `WriteBatch`es
//! (group commit: one WAL record per 512 keys), producing the naturally
//! layered tree YCSB assumes, instead of a synthetic bulk load.
//!
//! ```sh
//! cargo run --release --example ycsb [index-abbrev] [ops] [--cache-mb C]
//! ```
//!
//! `--cache-mb C` gives the tree a C-MiB block/table cache (default 0:
//! uncached).

use learned_lsm_repro::index::IndexKind;
use learned_lsm_repro::testbed::{Granularity, Testbed, TestbedConfig};
use learned_lsm_repro::workloads::{Dataset, YcsbSpec};

fn main() {
    let mut cache_mb = 0usize;
    let mut positional = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--cache-mb" => {
                cache_mb = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--cache-mb needs a number");
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
