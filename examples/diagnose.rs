//! Diagnose how every index family fits each dataset: achieved errors,
//! bound widths, and memory per key — the quantities behind the paper's
//! "position boundary beats inner-index cleverness" guideline.
//!
//! ```sh
//! cargo run --release --example diagnose [epsilon]
//! ```

use learned_lsm_repro::index::{IndexConfig, IndexDiagnostics, IndexKind};
use learned_lsm_repro::workloads::Dataset;

fn main() {
    let eps: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(32);
    let n = 100_000usize;
    let config = IndexConfig { epsilon: eps };

    println!(
        "epsilon={eps} (position boundary {}), {n} keys per dataset\n",
        2 * eps
    );
    for dataset in Dataset::ALL {
        let keys = dataset.generate(n, 99);
        println!("[{dataset}]");
        for kind in IndexKind::ALL {
            let idx = kind.build(&keys, &config);
            let d = IndexDiagnostics::evaluate(idx.as_ref(), &keys);
            println!("  {:5} {}", kind.abbrev(), d.summary());
        }
        println!();
    }
    println!(
        "reading guide: `err` is the achieved prediction error; `bound` is the\n\
         achieved position boundary (what a lookup actually fetches); RMI's\n\
         bound adapts per leaf, every other family pins it near 2ε."
    );
}
