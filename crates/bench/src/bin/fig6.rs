//! Figure 6: point-lookup latency and index memory vs position boundary
//! (256→8) for all seven indexes. Run with `--all-datasets` for the full
//! figure; defaults to the Random dataset like the paper's main body.

use lsm_bench::{runner, Cli};

fn main() {
    let cli = Cli::parse();
    let records = runner::fig6(&cli.scale, &cli.datasets(), &learned_lsm::PAPER_BOUNDARIES)
        .expect("fig6 experiment");
    println!("# Figure 6 — latency & memory vs position boundary");
    let mut last_dataset = String::new();
    for r in &records {
        if r.dataset != last_dataset {
            println!("\n[{}]", r.dataset);
            last_dataset = r.dataset.clone();
        }
        println!("{}", r.row());
    }
    cli.maybe_write(&learned_lsm::report::to_json(&records));
}
