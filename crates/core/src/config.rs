//! The three-dimensional configuration space of Section 4.1.

use learned_index::IndexKind;
use lsm_tree::{IndexChoice, IndexGranularity, Options};
use lsm_workloads::Dataset;

/// Position boundaries swept by Figure 6 (entries).
pub const PAPER_BOUNDARIES: [usize; 6] = [256, 128, 64, 32, 16, 8];

/// SSTable sizes swept by Figure 8 (MiB), plus the level model.
pub const PAPER_SST_MIB: [u64; 5] = [8, 16, 32, 64, 128];

/// Index granularity: per-SSTable models of a given table size, or one model
/// per level (Bourbon's level model). The engine does the lookups either way
/// ([`IndexChoice::granularity`]); this is the SSTable size and Figure 8's
/// label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Granularity {
    /// One index per SSTable of roughly this many bytes.
    SstBytes(u64),
    /// One index per level (SSTables keep this size on disk, but lookups go
    /// through a level-grained model).
    Level { sst_bytes: u64 },
}

impl Granularity {
    /// The SSTable size in effect.
    pub fn sst_bytes(&self) -> u64 {
        match *self {
            Granularity::SstBytes(b) => b,
            Granularity::Level { sst_bytes } => sst_bytes,
        }
    }

    /// What the engine's lookups consult.
    pub fn index_granularity(&self) -> IndexGranularity {
        match self {
            Granularity::SstBytes(_) => IndexGranularity::Table,
            Granularity::Level { .. } => IndexGranularity::Level,
        }
    }

    /// Label used in Figure 8 ("8M", "512K", ..., "L").
    pub fn label(&self) -> String {
        match *self {
            Granularity::SstBytes(b) if b >= 1 << 20 => format!("{}M", b >> 20),
            Granularity::SstBytes(b) => format!("{}K", b >> 10),
            Granularity::Level { .. } => "L".to_string(),
        }
    }
}

/// One point in the configuration space, plus the experiment scale.
#[derive(Debug, Clone)]
pub struct TestbedConfig {
    /// Index type (first dimension).
    pub index_kind: IndexKind,
    /// Position boundary in entries (second dimension; `2ε`).
    pub position_boundary: usize,
    /// Index granularity (third dimension).
    pub granularity: Granularity,
    /// Key distribution.
    pub dataset: Dataset,
    /// Number of key-value pairs loaded.
    pub num_keys: usize,
    /// Value payload bytes (paper: 1000).
    pub value_width: usize,
    /// Write buffer bytes (paper: 64 MiB for the write experiment).
    pub write_buffer_bytes: usize,
    /// Bloom bits per key (paper: 10).
    pub bloom_bits_per_key: usize,
    /// RNG seed for dataset + workload generation.
    pub seed: u64,
    /// Optional per-level error bounds (see
    /// `lsm_tree::Options::per_level_epsilon`); produced by the
    /// [`crate::BoundaryAllocator`].
    pub per_level_epsilon: Option<Vec<usize>>,
    /// Engine cache budget in bytes (blocks + table handles; 0 = uncached,
    /// the paper's default read path).
    pub block_cache_bytes: usize,
}

impl TestbedConfig {
    /// The paper's full-scale settings: 6.4 M keys × 1000-byte values.
    pub fn paper_scale(kind: IndexKind, boundary: usize, dataset: Dataset) -> Self {
        Self {
            index_kind: kind,
            position_boundary: boundary,
            granularity: Granularity::SstBytes(64 << 20),
            dataset,
            num_keys: 6_400_000,
            value_width: 1000,
            write_buffer_bytes: 64 << 20,
            bloom_bits_per_key: 10,
            seed: DEFAULT_SEED,
            per_level_epsilon: None,
            block_cache_bytes: 0,
        }
    }

    /// Scaled-down settings that preserve every shape: 200 K keys × 100-byte
    /// values, 1 MiB SSTables — the tree still has 3+ levels and the
    /// boundary still spans multiple I/O blocks at its large end.
    pub fn quick(kind: IndexKind, boundary: usize, dataset: Dataset) -> Self {
        Self {
            index_kind: kind,
            position_boundary: boundary,
            granularity: Granularity::SstBytes(1 << 20),
            dataset,
            num_keys: 200_000,
            value_width: 100,
            write_buffer_bytes: 1 << 20,
            bloom_bits_per_key: 10,
            seed: DEFAULT_SEED,
            per_level_epsilon: None,
            block_cache_bytes: 0,
        }
    }

    /// Engine options for this configuration.
    pub fn to_options(&self) -> Options {
        Options {
            write_buffer_bytes: self.write_buffer_bytes,
            sstable_target_bytes: self.granularity.sst_bytes(),
            size_ratio: 10,
            l0_compaction_trigger: 4,
            value_width: self.value_width,
            bloom_bits_per_key: self.bloom_bits_per_key,
            index: IndexChoice {
                granularity: self.granularity.index_granularity(),
                ..IndexChoice::with_boundary(self.index_kind, self.position_boundary)
            },
            max_levels: 8,
            per_level_epsilon: self.per_level_epsilon.clone(),
            block_cache_bytes: self.block_cache_bytes,
            ..Options::default()
        }
    }
}

/// Default RNG seed shared by the experiment configs.
pub const DEFAULT_SEED: u64 = 0xEDB7_2026;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_config_builds_options() {
        let c = TestbedConfig::quick(IndexKind::Pgm, 64, Dataset::Random);
        let o = c.to_options();
        assert_eq!(o.index.position_boundary(), 64);
        assert_eq!(o.sstable_target_bytes, 1 << 20);
    }

    #[test]
    fn granularity_labels() {
        assert_eq!(Granularity::SstBytes(8 << 20).label(), "8M");
        assert_eq!(Granularity::Level { sst_bytes: 1 }.label(), "L");
        let mut c = TestbedConfig::quick(IndexKind::Pgm, 64, Dataset::Random);
        assert_eq!(c.to_options().index.granularity, IndexGranularity::Table);
        c.granularity = Granularity::Level { sst_bytes: 1 << 20 };
        assert_eq!(c.to_options().index.granularity, IndexGranularity::Level);
        assert_eq!(c.to_options().sstable_target_bytes, 1 << 20);
    }
}
