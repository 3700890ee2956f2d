//! Figure 9: compaction time and its learn / write-model breakdown under a
//! write-only workload.
//!
//! `learn` is every output table's training time, wherever it ran. A table
//! of 2 048 keys or more that is not a job's last trains on a helper thread
//! beside the next table's merge when a permit is free, so its training is
//! not all compaction wall time: `learn %` can read above the merge
//! thread's own share, and `kv+io` subtracts only the training the merge
//! thread ran inline or waited on.

use lsm_bench::{runner, Cli};

fn main() {
    let cli = Cli::parse();
    let boundaries = [256usize, 128, 64, 32];
    let records = runner::fig9(&cli.scale, cli.dataset, &boundaries).expect("fig9 experiment");

    println!("# Figure 9 — compaction time and breakdown (write-only workload)");
    let mut last = usize::MAX;
    for r in &records {
        if r.position_boundary != last {
            println!("\n[position boundary {}]", r.position_boundary);
            last = r.position_boundary;
        }
        println!("{}", r.row());
    }
    cli.maybe_write(&learned_lsm::report::to_json(&records));
}
