//! Demonstrates the paper's future-work direction (Section 6.2): allocate a
//! fixed index-memory budget *non-uniformly* across levels according to the
//! observed read distribution, instead of one global position boundary.
//!
//! Steps: load a tree through the write path (flushes and compactions leave
//! it layered, newer keys in upper levels) → measure per-level read shares
//! under a read-latest workload (Figure 10's imbalance) → run the greedy
//! [`BoundaryAllocator`]
//! with the uniform tree's own index bytes as its budget → rebuild with
//! per-level boundaries → compare. The budget is equal so that the
//! comparison shows where memory goes, not how much of it there is (more
//! index, fewer blocks: Observation 1). When the coarsest boundary on every
//! level already needs more than the budget (the allocator's estimate can
//! read above what the engine measures), there is no plan: the example
//! prints both byte counts and stops.
//!
//! ```sh
//! cargo run --release --example allocate_memory
//! ```

use learned_lsm_repro::index::IndexKind;
use learned_lsm_repro::testbed::allocator::{BoundaryAllocator, LevelWorkload};
use learned_lsm_repro::testbed::{Granularity, Testbed, TestbedConfig};
use learned_lsm_repro::workloads::{Dataset, RequestDistribution};

fn config() -> TestbedConfig {
    let mut c = TestbedConfig::quick(IndexKind::Pgm, 256, Dataset::Random);
    c.num_keys = 150_000;
    c.value_width = 64;
    c.granularity = Granularity::SstBytes(256 << 10);
    c.write_buffer_bytes = 256 << 10;
    c
}

fn main() {
    let dist = RequestDistribution::Latest { theta: 0.99 };

    // Phase 1: measure read shares with a uniform (coarse) configuration.
    let mut tb = Testbed::new(config()).expect("open");
    tb.load_via_writes().expect("load");
    let probe = tb.run_point_lookups(20_000, dist).expect("probe run");
    let total_reads: u64 = probe.level_reads.iter().sum();
    let populated = probe.level_entries.iter().filter(|&&n| n > 0).count();
    assert!(
        populated >= 3,
        "a plan moves memory across levels only if there are several"
    );
    println!("per-level read shares under a read-latest workload:");
    for (lvl, reads) in probe.level_reads.iter().enumerate() {
        if *reads > 0 {
            println!(
                "  L{lvl}: {:5.1}% of reads, {} entries",
                *reads as f64 / total_reads as f64 * 100.0,
                probe.level_entries[lvl]
            );
        }
    }

    // Phase 2: feed level keys + read shares to the allocator.
    let version = tb.db().version();
    let mut levels = Vec::new();
    for (lvl, tables) in version.levels.iter().enumerate() {
        let keys = tables
            .iter()
            .map(|t| t.reader.read_all_keys().expect("read keys"));
        levels.push(LevelWorkload {
            tables: keys.collect(),
            read_share: probe.level_reads.get(lvl).copied().unwrap_or(0) as f64
                / total_reads.max(1) as f64,
        });
    }
    let allocator = BoundaryAllocator {
        kind: IndexKind::Pgm,
        entry_bytes: 36 + 64,
        ..BoundaryAllocator::default()
    };
    let budget = probe.index_memory_bytes as usize;
    let plan = match allocator.allocate(&levels, budget) {
        Ok(plan) => plan,
        Err(over) => {
            println!(
                "\nno allocation plan: the coarsest boundary on every level needs {} B, \
                 over the {} B budget",
                over.coarsest_bytes, over.budget_bytes
            );
            return;
        }
    };
    println!("\nallocation plan (budget {budget} B):");
    for (lvl, (b, m)) in plan
        .per_level_boundary
        .iter()
        .zip(&plan.per_level_memory)
        .enumerate()
    {
        println!("  L{lvl}: boundary {b:4}  ({m} B)");
    }
    println!(
        "  total {} B, expected I/O {:.2} µs/lookup",
        plan.total_memory,
        plan.expected_io_ns / 1_000.0
    );

    // Phase 3: rebuild with the per-level boundaries and re-measure.
    let mut tuned_config = config();
    tuned_config.per_level_epsilon = Some(plan.to_per_level_epsilon());
    let mut tuned = Testbed::new(tuned_config).expect("open tuned");
    tuned.load_via_writes().expect("load tuned");
    let after = tuned.run_point_lookups(20_000, dist).expect("tuned run");

    println!(
        "\nuniform boundary 256: {:8} B of index, {:.2} µs/lookup",
        probe.index_memory_bytes, probe.avg_latency_us
    );
    println!(
        "allocated boundaries: {:8} B of index, {:.2} µs/lookup",
        after.index_memory_bytes, after.avg_latency_us
    );
}
