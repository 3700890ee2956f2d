//! Cross-crate integration tests: each of the paper's numbered observations
//! is asserted against the real harness at smoke scale. These are the same
//! code paths the figure binaries run — if these pass, the figures
//! regenerate with the right shapes.

use learned_lsm_repro::bench::{runner, Scale};
use learned_lsm_repro::index::IndexKind;
use learned_lsm_repro::workloads::Dataset;

fn smoke() -> Scale {
    Scale::smoke()
}

/// Observation 1 + 2 (Figure 6): shrinking the position boundary lowers
/// latency then plateaus; memory rises monotonically; fence pointers pay the
/// most memory at tight boundaries.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "latency-ratio assertions need an optimized build (run with --release)"
)]
fn fig6_latency_falls_then_plateaus_and_memory_rises() {
    let boundaries = [256usize, 64, 8];
    let records = runner::fig6(&smoke(), &[Dataset::Random], &boundaries).unwrap();

    for kind in IndexKind::ALL {
        let series: Vec<_> = records
            .iter()
            .filter(|r| r.index == kind.abbrev())
            .collect();
        assert_eq!(series.len(), 3, "{kind}");
        if kind == IndexKind::Rmi {
            // RMI's error is recorded at training time, not configured, so
            // its achieved boundary tracks the requested one only loosely
            // (paper Section 3.1) — check memory growth only.
            assert!(series[2].index_memory_bytes > series[0].index_memory_bytes);
            continue;
        }
        let (b256, b64, b8) = (&series[0], &series[1], &series[2]);
        // Latency improves from 256 → 64 (multiple blocks → ~2 blocks)...
        assert!(
            b64.avg_latency_us < b256.avg_latency_us,
            "{kind}: {} !< {}",
            b64.avg_latency_us,
            b256.avg_latency_us
        );
        // ...but the 64 → 8 step is marginal: the plateau (Observation 2).
        let step1 = b256.avg_latency_us - b64.avg_latency_us;
        let step2 = b64.avg_latency_us - b8.avg_latency_us;
        assert!(
            step2 < step1,
            "{kind}: second step {step2} should be smaller than first {step1}"
        );
    }

    // FP pays the most memory at boundary 8 (Observation 1's tradeoff).
    let mem_at_8 = |abbrev: &str| {
        records
            .iter()
            .find(|r| r.index == abbrev && r.position_boundary == 8)
            .unwrap()
            .index_memory_bytes
    };
    assert!(mem_at_8("FP") > mem_at_8("PGM"));
    assert!(mem_at_8("FP") > mem_at_8("PLR"));
    assert!(mem_at_8("FP") > mem_at_8("RS"));
}

/// Figure 7: I/O dominates the point lookup; prediction + search are minor.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "latency-ratio assertions need an optimized build (run with --release)"
)]
fn fig7_io_dominates_lookup_cost() {
    let (by_kind, _) = runner::fig7(&smoke(), Dataset::Random).unwrap();
    for r in &by_kind {
        let cpu_side = r.breakdown.prediction + r.breakdown.binary_search;
        assert!(
            r.breakdown.disk_io > 3.0 * cpu_side,
            "{}: io {} vs cpu {}",
            r.index,
            r.breakdown.disk_io,
            cpu_side
        );
    }
}

/// Observation 3 (Figure 8): coarser granularity saves memory without
/// hurting latency; the level model is the cheapest.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "latency-ratio assertions need an optimized build (run with --release)"
)]
fn fig8_granularity_saves_memory_not_latency() {
    let records = runner::fig8(&smoke(), Dataset::Random, &[64]).unwrap();
    for kind in [IndexKind::Pgm, IndexKind::Plr] {
        let series: Vec<_> = records
            .iter()
            .filter(|r| r.index == kind.abbrev())
            .collect();
        let finest = series.first().unwrap();
        let level = series.iter().find(|r| r.granularity == "L").unwrap();
        assert!(
            level.index_memory_bytes < finest.index_memory_bytes,
            "{kind}: level model {} must undercut finest granularity {}",
            level.index_memory_bytes,
            finest.index_memory_bytes
        );
        // Latency stays in the same regime (within 2× — the paper reports
        // "a few microseconds" of variation).
        assert!(
            level.avg_latency_us < finest.avg_latency_us * 2.0,
            "{kind}: level {} vs finest {}",
            level.avg_latency_us,
            finest.avg_latency_us
        );
    }
}

/// Observation 4 (Figure 9): learning + model writing are a small share of
/// compaction; PLEX is the most expensive trainer.
///
/// The shares are wall-clock, so one run's can be inflated by whatever else
/// the host ran meanwhile. Each kind's share is the minimum over `RUNS`
/// runs, which noise can only raise, and PLEX must out-cost PLR by
/// `PLEX_OVER_PLR` at that floor.
#[test]
fn fig9_training_overhead_is_modest() {
    const RUNS: usize = 3;
    /// PLEX's floor share must exceed PLR's by this factor (paper: 10–15 %
    /// vs < 5 %; a debug build on a 2-core host floors at ≈ 14.5 % vs
    /// ≈ 2.5 %, about 6×).
    const PLEX_OVER_PLR: f64 = 2.0;
    // The write experiment needs enough volume to trigger compactions:
    // 20k ops × ~68 B against a 128 KiB buffer gives ~10 flushes.
    let mut scale = smoke();
    scale.ops = 20_000;
    let runs: Vec<_> = (0..RUNS)
        .map(|_| runner::fig9(&scale, Dataset::Random, &[64]).unwrap())
        .collect();
    let pct = |abbrev: &str| {
        let shares = runs.iter().map(|records| {
            let r = records.iter().find(|r| r.index == abbrev).unwrap();
            assert!(r.compactions > 0, "{abbrev}: workload must compact");
            r.train_pct + r.model_write_pct
        });
        shares.fold(f64::INFINITY, f64::min)
    };
    for kind in IndexKind::ALL {
        let p = pct(kind.abbrev());
        assert!(
            p < 50.0,
            "{kind}: training+writing at {p:.1}% of compaction is not modest"
        );
    }
    let (plex, plr) = (pct("PLEX"), pct("PLR"));
    eprintln!("fig9 floor shares over {RUNS} runs: PLEX {plex:.2}% PLR {plr:.2}%");
    assert!(
        plex > PLEX_OVER_PLR * plr,
        "PLEX {plex:.2}% should out-cost PLR {plr:.2}% by {PLEX_OVER_PLR}x"
    );
}

/// Observation 5 (Figure 10): with uniform requests the per-level read share
/// tracks the level's size; with read-latest the upper levels are over-read
/// relative to their share of the index memory — the imbalance that
/// motivates non-uniform boundaries.
#[test]
fn fig10_request_skew_shifts_read_levels() {
    let profiles = runner::fig10(&smoke(), Dataset::Random).unwrap();
    let rows = |dist: &str| -> Vec<&runner::LevelProfile> {
        profiles.iter().filter(|p| p.distribution == dist).collect()
    };

    // Uniform: read share ≈ entry share at every populated level.
    for p in rows("uniform") {
        assert!(
            (p.read_share - p.entry_share).abs() < 0.2,
            "uniform L{}: reads {:.2} vs entries {:.2}",
            p.level,
            p.read_share,
            p.entry_share
        );
    }

    // Read-latest: the topmost populated level absorbs far more reads than
    // its entry share, and the deepest level far fewer.
    let latest = rows("read-latest");
    let top = latest.iter().min_by_key(|p| p.level).unwrap();
    let bottom = latest.iter().max_by_key(|p| p.level).unwrap();
    assert!(
        top.read_share > top.entry_share * 2.0,
        "top level must be over-read: reads {:.2} vs entries {:.2}",
        top.read_share,
        top.entry_share
    );
    assert!(
        bottom.read_share < bottom.entry_share,
        "bottom level must be under-read: reads {:.2} vs entries {:.2}",
        bottom.read_share,
        bottom.entry_share
    );
}

/// Table 1: disk I/O ≈ 2 µs dominates, and stage times barely move with
/// SSTable size.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "latency-ratio assertions need an optimized build (run with --release)"
)]
fn table1_io_constant_across_sst_sizes() {
    let records = runner::table1(&smoke(), Dataset::Random).unwrap();
    assert_eq!(records.len(), 3);
    for r in &records {
        assert!(
            (1.0..6.0).contains(&r.breakdown.disk_io),
            "disk I/O {} µs out of the calibrated range",
            r.breakdown.disk_io
        );
        assert!(r.breakdown.prediction < 1.0);
        assert!(r.breakdown.binary_search < 1.0);
    }
    let io: Vec<f64> = records.iter().map(|r| r.breakdown.disk_io).collect();
    let spread = (io[0] - io[2]).abs();
    assert!(
        spread < 1.5,
        "I/O time should be near-constant, spread {spread}"
    );
}

/// Observation 6 (Figure 11): learned indexes beat fence pointers on short
/// ranges; the gap narrows on long ranges.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "latency-ratio assertions need an optimized build (run with --release)"
)]
fn fig11_learned_advantage_shrinks_with_range_length() {
    let records = runner::fig11(&smoke(), Dataset::Random, &[32], &[2, 512]).unwrap();
    let lat = |abbrev: &str, len: usize| {
        records
            .iter()
            .find(|r| r.index == abbrev && r.range_len == len)
            .unwrap()
            .avg_latency_us
    };
    let mem = |abbrev: &str, len: usize| {
        records
            .iter()
            .find(|r| r.index == abbrev && r.range_len == len)
            .unwrap()
            .index_memory_bytes
    };
    // Same latency regime, far less memory at short ranges: the tradeoff win.
    assert!(lat("PGM", 2) < lat("FP", 2) * 1.5);
    assert!(mem("PGM", 2) < mem("FP", 2));
    // Long ranges converge: scan cost dominates, latencies within 30%.
    let ratio = lat("PGM", 512) / lat("FP", 512);
    assert!(
        (0.7..1.3).contains(&ratio),
        "long-range latencies should converge, ratio {ratio}"
    );
    // And the long-range latency dwarfs the short-range one for everyone.
    assert!(lat("PGM", 512) > lat("PGM", 2) * 5.0);
}

/// Observation 7 (Figure 12): the memory-latency ordering established by the
/// point-lookup experiments carries over to mixed workloads.
#[test]
fn fig12_ycsb_preserves_tradeoff_ordering() {
    let records = runner::fig12(&smoke(), Dataset::Random, &[32], 0).unwrap();
    // Every workload ran for every index.
    for wl in ["A", "B", "C", "D", "E", "F"] {
        let per_wl: Vec<_> = records.iter().filter(|r| r.workload == wl).collect();
        assert_eq!(per_wl.len(), IndexKind::ALL.len(), "workload {wl}");
        for r in &per_wl {
            assert!(r.avg_op_us > 0.0);
        }
        // PGM stays cheaper in memory than fence pointers in every mix.
        let mem = |abbrev: &str| {
            per_wl
                .iter()
                .find(|r| r.index == abbrev)
                .unwrap()
                .index_memory_bytes
        };
        assert!(mem("PGM") < mem("FP"), "workload {wl}");
    }
}

/// Figure 5: the dataset CDFs are distinct and well-formed.
#[test]
fn fig5_cdfs_are_distinct_and_monotone() {
    let records = runner::fig5(30_000, 20, 1);
    assert_eq!(records.len(), 7);
    for r in &records {
        assert!(
            r.points.windows(2).all(|w| w[0].1 <= w[1].1),
            "{}",
            r.dataset
        );
        assert!(r.points.last().unwrap().1 > 0.99);
    }
    // Books (lognormal) must look nothing like Random (uniform): compare the
    // normalized key at the median.
    let mid = |name: &str| {
        let r = records.iter().find(|r| r.dataset == name).unwrap();
        r.points[r.points.len() / 2].0
    };
    assert!(mid("books") < mid("random") / 5.0);
}
