//! Figure 12: YCSB A–F — average op latency vs index memory, per index,
//! swept over position boundaries to trace the memory-latency curve.
//!
//! `--cache-mb N` gives every configuration an engine-wide cache budget;
//! the default 0 keeps the historical uncached read path.
//!
//! A sharded engine behind the server is measured by the benchmark's
//! `shard-mixed` workload (`benchmark/`), and `tests/server_ycsb.rs` runs
//! the six mixes through that path.

use lsm_bench::{runner, Cli};

fn main() {
    let cli = Cli::parse();
    let boundaries = [128usize, 32, 8];
    let records = runner::fig12(&cli.scale, cli.dataset, &boundaries, cli.cache_mb)
        .expect("fig12 experiment");

    println!("# Figure 12 — YCSB A–F (latency vs memory)");
    let mut last = String::new();
    for r in &records {
        if r.workload != last {
            println!("\n[YCSB-{}]", r.workload);
            last = r.workload.clone();
        }
        println!(
            "{:6} pb={:4}  avg-op={:9.2}us  mem={:>12}B",
            r.index, r.position_boundary, r.avg_op_us, r.index_memory_bytes
        );
    }
    cli.maybe_write(&learned_lsm::report::to_json(&records));
}
