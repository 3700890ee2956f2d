//! Index shootout: build all seven index families over the same dataset and
//! compare segments, memory, build time, and end-to-end lookup latency —
//! a miniature of the paper's Figure 6 for one boundary.
//!
//! ```sh
//! cargo run --release --example index_shootout [dataset] [boundary]
//! ```

use std::time::Instant;

use learned_lsm_repro::index::{IndexConfig, IndexKind};
use learned_lsm_repro::testbed::{Granularity, Testbed, TestbedConfig};
use learned_lsm_repro::workloads::{Dataset, RequestDistribution};

fn main() {
    let mut args = std::env::args().skip(1);
    let dataset = args
        .next()
        .and_then(|s| Dataset::from_name(&s))
        .unwrap_or(Dataset::Books);
    let boundary: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(64);
    let n = 150_000usize;

    println!("dataset={dataset} keys={n} position-boundary={boundary}\n");

    // Raw index layer: train over the bare key array.
    let keys = dataset.generate(n, 42);
    let config = IndexConfig::with_position_boundary(boundary);
    println!(
        "{:6} {:>10} {:>12} {:>12} {:>14}",
        "index", "segments", "memory (B)", "build (ms)", "bytes/key"
    );
    for kind in IndexKind::ALL {
        let t = Instant::now();
        let idx = kind.build(&keys, &config);
        let build_ms = t.elapsed().as_secs_f64() * 1e3;
        println!(
            "{:6} {:>10} {:>12} {:>12.2} {:>14.4}",
            kind.abbrev(),
            idx.segment_count(),
            idx.size_bytes(),
            build_ms,
            idx.size_bytes() as f64 / n as f64
        );
    }

    // Full-system layer: the same comparison inside the LSM-tree.
    println!("\nend-to-end (simulated NVMe, 10k uniform lookups):");
    println!(
        "{:6} {:>14} {:>14} {:>12}",
        "index", "latency (µs)", "blocks/op", "memory (B)"
    );
    for kind in IndexKind::ALL {
        let mut c = TestbedConfig::quick(kind, boundary, dataset);
        c.num_keys = n;
        c.value_width = 64;
        c.granularity = Granularity::SstBytes(512 << 10);
        c.write_buffer_bytes = 512 << 10;
        let mut tb = Testbed::new(c).expect("open testbed");
        tb.load().expect("load");
        let r = tb
            .run_point_lookups(10_000, RequestDistribution::Uniform)
            .expect("lookups");
        println!(
            "{:6} {:>14.2} {:>14.2} {:>12}",
            r.index, r.avg_latency_us, r.blocks_per_op, r.index_memory_bytes
        );
    }
}
