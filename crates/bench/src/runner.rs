//! One runner function per table/figure. Binaries are thin wrappers; the
//! harness integration tests call these at smoke scale.

use learned_index::IndexKind;
use learned_lsm::{Granularity, LookupReport, RangeReport, Testbed, TestbedConfig};
use lsm_tree::Result;
use lsm_workloads::{cdf, Dataset, RequestDistribution, YcsbSpec};
use serde::Serialize;

use crate::Scale;

/// Build a config from a scale profile.
pub fn config_for(
    scale: &Scale,
    kind: IndexKind,
    boundary: usize,
    dataset: Dataset,
    granularity: Granularity,
) -> TestbedConfig {
    let mut c = TestbedConfig::quick(kind, boundary, dataset);
    c.num_keys = scale.keys;
    c.value_width = scale.value_width;
    c.write_buffer_bytes = scale.write_buffer_bytes;
    c.granularity = granularity;
    c
}

fn loaded_testbed(
    scale: &Scale,
    kind: IndexKind,
    boundary: usize,
    dataset: Dataset,
    granularity: Granularity,
) -> Result<Testbed> {
    let mut tb = Testbed::new(config_for(scale, kind, boundary, dataset, granularity))?;
    tb.load()?;
    Ok(tb)
}

// ---------------------------------------------------------------- Figure 5

/// Normalized CDF sample of one dataset.
#[derive(Debug, Serialize)]
pub struct CdfRecord {
    pub dataset: String,
    pub points: Vec<(f64, f64)>,
}

/// Figure 5: CDFs of the seven datasets.
pub fn fig5(keys_per_dataset: usize, points: usize, seed: u64) -> Vec<CdfRecord> {
    Dataset::ALL
        .iter()
        .map(|d| {
            let keys = d.generate(keys_per_dataset, seed);
            CdfRecord {
                dataset: d.name().to_string(),
                points: cdf::sample_normalized_cdf(&keys, points),
            }
        })
        .collect()
}

// ---------------------------------------------------------------- Figure 6

/// Position boundaries used by the quick profile (same as the paper's).
pub const BOUNDARIES: [usize; 6] = [256, 128, 64, 32, 16, 8];

/// Figure 6: latency and memory vs position boundary, per index, per dataset.
pub fn fig6(
    scale: &Scale,
    datasets: &[Dataset],
    boundaries: &[usize],
) -> Result<Vec<LookupReport>> {
    let mut out = Vec::new();
    for &dataset in datasets {
        for kind in IndexKind::ALL {
            for &b in boundaries {
                let tb = loaded_testbed(
                    scale,
                    kind,
                    b,
                    dataset,
                    Granularity::SstBytes(scale.sst_bytes),
                )?;
                out.push(tb.run_point_lookups(scale.ops, RequestDistribution::Uniform)?);
            }
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------- Figure 7

/// Figure 7: (A) per-stage query time by index type at one boundary;
/// (B) prediction time as the boundary shrinks.
pub fn fig7(scale: &Scale, dataset: Dataset) -> Result<(Vec<LookupReport>, Vec<LookupReport>)> {
    let mut by_kind = Vec::new();
    for kind in IndexKind::ALL {
        let tb = loaded_testbed(
            scale,
            kind,
            64,
            dataset,
            Granularity::SstBytes(scale.sst_bytes),
        )?;
        by_kind.push(tb.run_point_lookups(scale.ops, RequestDistribution::Uniform)?);
    }
    let mut by_boundary = Vec::new();
    for b in [128usize, 32, 8] {
        for kind in IndexKind::ALL {
            let tb = loaded_testbed(
                scale,
                kind,
                b,
                dataset,
                Granularity::SstBytes(scale.sst_bytes),
            )?;
            by_boundary.push(tb.run_point_lookups(scale.ops / 2, RequestDistribution::Uniform)?);
        }
    }
    Ok((by_kind, by_boundary))
}

// ---------------------------------------------------------------- Figure 8

/// Figure 8: index granularity (SSTable size + level model) sweep.
///
/// The quick profile scales the paper's 8–128 MiB down by 16× so the table
/// counts match.
pub fn fig8(scale: &Scale, dataset: Dataset, boundaries: &[usize]) -> Result<Vec<LookupReport>> {
    let base = scale.sst_bytes / 4;
    let grans = [
        Granularity::SstBytes(base),
        Granularity::SstBytes(base * 2),
        Granularity::SstBytes(base * 4),
        Granularity::SstBytes(base * 8),
        Granularity::SstBytes(base * 16),
        Granularity::Level {
            sst_bytes: base * 16,
        },
    ];
    let mut out = Vec::new();
    for &b in boundaries {
        for kind in IndexKind::LEARNED {
            for g in grans {
                let tb = loaded_testbed(scale, kind, b, dataset, g)?;
                out.push(tb.run_point_lookups(scale.ops / 4, RequestDistribution::Uniform)?);
            }
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------- Figure 9

/// Figure 9: compaction time and breakdown under a write-only workload.
pub fn fig9(
    scale: &Scale,
    dataset: Dataset,
    boundaries: &[usize],
) -> Result<Vec<learned_lsm::CompactionReport>> {
    let mut out = Vec::new();
    for &b in boundaries {
        for kind in IndexKind::ALL {
            let mut config = config_for(
                scale,
                kind,
                b,
                dataset,
                Granularity::SstBytes(scale.sst_bytes),
            );
            config.num_keys = 0;
            let mut tb = Testbed::new(config)?;
            out.push(tb.run_write_workload(scale.ops)?);
        }
    }
    Ok(out)
}

// --------------------------------------------------------------- Figure 10

/// Per-level proportions for one request distribution (Figure 10 bars).
#[derive(Debug, Serialize)]
pub struct LevelProfile {
    pub distribution: String,
    pub level: usize,
    pub read_share: f64,
    pub index_share: f64,
    pub entry_share: f64,
}

/// Figure 10: read overhead vs index size vs level size, per level, under
/// uniform and read-latest request distributions.
pub fn fig10(scale: &Scale, dataset: Dataset) -> Result<Vec<LevelProfile>> {
    let mut out = Vec::new();
    for (name, dist) in [
        ("uniform", RequestDistribution::Uniform),
        ("read-latest", RequestDistribution::Latest { theta: 0.99 }),
    ] {
        // Figure 10 needs the naturally layered tree the write path builds
        // (recency concentrated in upper levels), not a bulk load.
        let mut tb = Testbed::new(config_for(
            scale,
            IndexKind::Pgm,
            64,
            dataset,
            Granularity::SstBytes(scale.sst_bytes),
        ))?;
        tb.load_via_writes()?;
        let r = tb.run_point_lookups(scale.ops, dist)?;
        let reads: f64 = r.level_reads.iter().sum::<u64>() as f64;
        let mem: f64 = r.level_index_bytes.iter().sum::<u64>() as f64;
        let entries: f64 = r.level_entries.iter().sum::<u64>() as f64;
        for level in 0..r.level_entries.len() {
            if r.level_entries[level] == 0 && r.level_reads.get(level).copied().unwrap_or(0) == 0 {
                continue;
            }
            out.push(LevelProfile {
                distribution: name.to_string(),
                level,
                read_share: r.level_reads.get(level).copied().unwrap_or(0) as f64 / reads.max(1.0),
                index_share: r.level_index_bytes[level] as f64 / mem.max(1.0),
                entry_share: r.level_entries[level] as f64 / entries.max(1.0),
            });
        }
    }
    Ok(out)
}

// ----------------------------------------------------------------- Table 1

/// Table 1: point-lookup stage times for PLR at position boundary 10 across
/// SSTable sizes (paper: 4/32/128 MB).
pub fn table1(scale: &Scale, dataset: Dataset) -> Result<Vec<LookupReport>> {
    let mut out = Vec::new();
    for mult in [1u64, 8, 32] {
        let tb = loaded_testbed(
            scale,
            IndexKind::Plr,
            10,
            dataset,
            Granularity::SstBytes(scale.sst_bytes / 4 * mult),
        )?;
        out.push(tb.run_point_lookups(scale.ops, RequestDistribution::Uniform)?);
    }
    Ok(out)
}

// --------------------------------------------------------------- Figure 11

/// Figure 11: range lookups across range lengths and position boundaries.
pub fn fig11(
    scale: &Scale,
    dataset: Dataset,
    boundaries: &[usize],
    range_lens: &[usize],
) -> Result<Vec<RangeReport>> {
    let mut out = Vec::new();
    for &len in range_lens {
        for kind in IndexKind::ALL {
            for &b in boundaries {
                let tb = loaded_testbed(
                    scale,
                    kind,
                    b,
                    dataset,
                    Granularity::SstBytes(scale.sst_bytes),
                )?;
                let ops = (scale.ops / len.max(1)).clamp(50, scale.ops);
                out.push(tb.run_range_lookups(ops, len)?);
            }
        }
    }
    Ok(out)
}

// --------------------------------------------------------------- Figure 12

/// One YCSB measurement point (Figure 12 plots latency vs memory).
#[derive(Debug, Serialize)]
pub struct YcsbRecord {
    pub workload: String,
    pub index: String,
    pub position_boundary: usize,
    pub avg_op_us: f64,
    pub index_memory_bytes: u64,
}

/// Figure 12: six YCSB workloads, each index at several memory budgets
/// (obtained by sweeping the position boundary). `cache_mb` sets the
/// engine cache budget (0 = uncached, the historical behaviour).
pub fn fig12(
    scale: &Scale,
    dataset: Dataset,
    boundaries: &[usize],
    cache_mb: usize,
) -> Result<Vec<YcsbRecord>> {
    let mut out = Vec::new();
    for spec in YcsbSpec::ALL {
        for kind in IndexKind::ALL {
            for &b in boundaries {
                let mut config = config_for(
                    scale,
                    kind,
                    b,
                    dataset,
                    Granularity::SstBytes(scale.sst_bytes),
                );
                config.block_cache_bytes = cache_mb << 20;
                let mut tb = Testbed::new(config)?;
                tb.load()?;
                let ops = if matches!(spec, YcsbSpec::E) {
                    scale.ops / 10
                } else {
                    scale.ops
                };
                let avg_op_us = tb.run_ycsb(spec, ops)?;
                out.push(YcsbRecord {
                    workload: spec.name().to_string(),
                    index: kind.abbrev().to_string(),
                    position_boundary: b,
                    avg_op_us,
                    index_memory_bytes: tb.index_memory_bytes(),
                });
            }
        }
    }
    Ok(out)
}
