//! Engine configuration: the system half of the paper's configuration space.
//!
//! The three paper knobs map here as:
//! * **index type** → [`IndexChoice::kind`];
//! * **position boundary** → [`IndexChoice::config`] (ε = boundary / 2);
//! * **index granularity** → [`Options::sstable_target_bytes`] (SSTable
//!   size) and [`IndexChoice::granularity`] (one model per table, or one per
//!   sorted level).

use learned_index::{IndexConfig, IndexKind};

use crate::snapshot::Snapshot;
use crate::types::SeqNo;

/// The per-write knob (LevelDB's `WriteOptions`), passed to
/// [`crate::Db::write`].
///
/// It defaults to the cheap setting: unsynced writes (logged whenever
/// [`Options::wal`] is on).
#[derive(Debug, Clone, Copy, Default)]
pub struct WriteOptions {
    /// `fsync` the write-ahead log before the write returns. Durable against
    /// power loss, at one storage sync per batch — another reason batched
    /// writes beat per-key writes when durability matters.
    pub sync: bool,
}

impl WriteOptions {
    /// Synced durable writes (`sync = true`).
    pub fn durable() -> Self {
        Self { sync: true }
    }
}

/// Per-read knobs (LevelDB's `ReadOptions`), passed to [`crate::Db::get_with`]
/// and [`crate::Db::iter_with`].
#[derive(Debug, Clone, Copy)]
pub struct ReadOptions<'a> {
    /// Read at this pinned snapshot instead of the latest state.
    pub snapshot: Option<&'a Snapshot>,
    /// Whether blocks fetched by this read may populate the block cache
    /// (default `true`). Scans and one-off analytical reads set this to
    /// `false` so they do not evict the point-lookup working set.
    pub fill_cache: bool,
}

impl Default for ReadOptions<'_> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'a> ReadOptions<'a> {
    /// The default read: latest state, cache-filling.
    pub fn new() -> Self {
        Self {
            snapshot: None,
            fill_cache: true,
        }
    }

    /// Read through a pinned snapshot (cache-filling).
    pub fn at(snapshot: &'a Snapshot) -> Self {
        Self {
            snapshot: Some(snapshot),
            ..Self::new()
        }
    }

    /// The sequence ceiling this read observes, given the latest sequence.
    pub fn effective_seq(&self, latest: SeqNo) -> SeqNo {
        self.snapshot.map_or(latest, |s| s.seq())
    }
}

/// How the final in-segment search runs over the fetched position boundary.
///
/// The paper's testbed binary-searches the range; Ramadhan et al. (cited in
/// Section 7) report moderate gains from *exponential search* starting at
/// the predicted position — accurate models find the key in O(log error)
/// comparisons instead of O(log 2ε).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SearchStrategy {
    /// Binary search over the whole fetched range (paper default).
    #[default]
    Binary,
    /// Exponential (galloping) search outward from the predicted position.
    Exponential,
}

/// What one model of a sorted level covers (paper Section 5.2, Figure 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IndexGranularity {
    /// Each SSTable is looked up through its own index.
    #[default]
    Table,
    /// One model per sorted level, trained over all of the level's keys and
    /// kept in the [`crate::version::Version`] (Bourbon's level model): far
    /// less index memory, retrained whenever a compaction changes the level.
    /// L0's tables overlap, so it keeps per-table lookups.
    Level,
}

/// Which index each SSTable is built with, and what a lookup consults.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexChoice {
    pub kind: IndexKind,
    pub config: IndexConfig,
    pub granularity: IndexGranularity,
}

impl IndexChoice {
    /// Index of `kind` with error bound `epsilon` (paper defaults elsewhere).
    pub fn new(kind: IndexKind, epsilon: usize) -> Self {
        Self {
            kind,
            config: IndexConfig {
                epsilon,
                ..IndexConfig::default()
            },
            granularity: IndexGranularity::Table,
        }
    }

    /// Index of `kind` with the paper's *position boundary* (`2ε`).
    pub fn with_boundary(kind: IndexKind, boundary: usize) -> Self {
        Self {
            kind,
            config: IndexConfig::with_position_boundary(boundary),
            granularity: IndexGranularity::Table,
        }
    }

    /// The position boundary this choice yields.
    pub fn position_boundary(&self) -> usize {
        self.config.position_boundary()
    }
}

impl Default for IndexChoice {
    fn default() -> Self {
        Self::new(IndexKind::FencePointers, 32)
    }
}

/// How flushes and compactions are scheduled.
///
/// A full memtable is rotated onto an immutable queue either way, and the
/// same flush and compaction steps empty it; this chooses who runs them.
///
/// The paper's compaction experiments *measure* maintenance work, so it
/// must never race against foreground traffic — under
/// [`Maintenance::Synchronous`] (the default) the writer that filled the
/// buffer runs the flush and the whole follow-on merge cascade itself
/// before its write returns, which stays byte-for-byte deterministic.
///
/// [`Maintenance::Background`] is the production mode: the write returns
/// once the buffer is rotated, while dedicated flush and compaction worker
/// threads restore the tree invariant concurrently. Writers are regulated
/// LevelDB-style by [`Options::l0_slowdown_trigger`] /
/// [`Options::l0_stop_trigger`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Maintenance {
    /// Flush + compactions run inline in the write path, on the writer's
    /// thread (deterministic; the mode every paper experiment uses).
    #[default]
    Synchronous,
    /// Dedicated background workers; writes overlap with maintenance.
    Background {
        /// Flush worker threads draining the immutable-memtable queue.
        /// Installation into L0 is age-ordered, so extra threads add
        /// redundancy rather than reordering.
        flush_threads: usize,
        /// Compaction worker threads. Disjoint tasks (different levels /
        /// key ranges) run concurrently; claimed input tables are excluded
        /// from later picks.
        compaction_threads: usize,
    },
}

impl Maintenance {
    /// Background maintenance with one flush and one compaction worker.
    pub fn background() -> Self {
        Maintenance::Background {
            flush_threads: 1,
            compaction_threads: 1,
        }
    }

    /// Whether this is a background (worker-thread) configuration.
    pub fn is_background(&self) -> bool {
        matches!(self, Maintenance::Background { .. })
    }
}

/// How a [`crate::sharding::ShardedDb`] partitions the key space across
/// shards.
///
/// Every shard owns a key range, which keeps shards scan-friendly (a
/// merged scan is a concatenation) and lets a hot shard split, but needs
/// *balanced* boundaries: they are cut at the quantiles of a sampled key
/// distribution.
///
/// One variant, and `epsilon` in it, only because `benchmark/src/probes.rs`
/// builds `LearnedRange { sample, epsilon }` by name and an engine PR does
/// not edit `benchmark/`: the enum becomes its sample when ROADMAP item 2's
/// benchmark PR takes both.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardingPolicy {
    /// Learned range partitioning: cut the key space at the quantiles of
    /// `sample`, so each shard holds an ≈equal fraction of the
    /// distribution even when the key space is heavily skewed; live splits
    /// keep re-learning the cuts from the data. Routing is a binary search
    /// over the cuts — no model. A sample too small to cut (< 2 distinct
    /// keys per shard) yields equal-width cuts of the `u64` key space —
    /// still ranges, so live splitting can re-learn them from the data.
    LearnedRange {
        /// Sampled keys (any order, duplicates fine) — e.g. every n-th key
        /// of a load file, or keys drawn from live traffic.
        sample: Vec<u64>,
        /// Unused: the error bound of a router model that no longer
        /// exists (see the enum's note).
        epsilon: usize,
    },
}

/// Configuration of a [`crate::sharding::ShardedDb`]: the shard count, the
/// partitioning policy, and the per-shard engine [`Options`].
///
/// Under [`Maintenance::Background`] the thread counts in `base` are the
/// **global** budget: one shared worker pool drives every shard's flushes
/// and compactions (no per-shard pools).
#[derive(Debug, Clone)]
pub struct ShardedOptions {
    /// Number of shards (≥ 1) for a **fresh** database. An existing
    /// directory reopens with whatever its last sealed topology says —
    /// the shard count is a dynamic property of the data, not of the
    /// open call.
    pub shards: usize,
    /// Key-space partitioning policy.
    pub policy: ShardingPolicy,
    /// Ceiling on the shard count for live splitting. `0` (the default)
    /// freezes the topology: no shard ever splits, which keeps the paper
    /// experiments byte-identical. Set above the initial count to let the
    /// engine split hot shards online.
    pub max_shards: usize,
    /// Evaluate the split trigger automatically (in the write path under
    /// synchronous maintenance, on the shared worker pool under
    /// background maintenance). Off, splits only run through the
    /// explicit `rebalance` hooks. [`ShardedOptions::with_max_shards`]
    /// turns this on.
    pub auto_split: bool,
    /// Resident-bytes imbalance (`max/mean - 1` across shards) past which
    /// the hottest shard is proposed for a split. `0.2` means "split once
    /// one shard holds 20% more than its fair share".
    pub split_imbalance: f64,
    /// A shard is never split while its resident bytes are below this
    /// floor — splitting a near-empty shard only multiplies fixed costs.
    pub min_split_bytes: u64,
    /// Commit-marker log size (bytes) past which a runtime checkpoint is
    /// triggered: every shard is flushed and markers below the flush
    /// watermark are dropped, bounding the log without a reopen. `0`
    /// disables runtime checkpointing (reopen still truncates).
    pub commit_log_checkpoint_bytes: u64,
    /// Engine options applied to every shard.
    pub base: Options,
}

impl ShardedOptions {
    /// `shards` learned-range shards, boundaries fitted over `sample`.
    pub fn learned(shards: usize, sample: Vec<u64>, base: Options) -> Self {
        Self {
            shards,
            policy: ShardingPolicy::LearnedRange {
                sample,
                epsilon: 32,
            },
            max_shards: 0,
            auto_split: false,
            split_imbalance: 0.2,
            min_split_bytes: 4 * base.write_buffer_bytes as u64,
            commit_log_checkpoint_bytes: 1 << 20,
            base,
        }
    }

    /// Enable automatic live splitting up to `max_shards` shards.
    pub fn with_max_shards(mut self, max_shards: usize) -> Self {
        self.max_shards = max_shards;
        self.auto_split = true;
        self
    }

    /// Override the split trigger (imbalance threshold + size floor).
    pub fn with_split_trigger(mut self, imbalance: f64, min_bytes: u64) -> Self {
        self.split_imbalance = imbalance;
        self.min_split_bytes = min_bytes;
        self
    }

    /// Set the engine-wide cache budget (bytes; 0 disables caching).
    pub fn with_cache_bytes(mut self, bytes: usize) -> Self {
        self.base.block_cache_bytes = bytes;
        self
    }
}

/// Engine options.
#[derive(Debug, Clone)]
pub struct Options {
    /// Write buffer capacity (paper: 64 MB for the compaction experiment).
    pub write_buffer_bytes: usize,
    /// Target SSTable size — the *index granularity* knob (paper: 8–128 MiB).
    pub sstable_target_bytes: u64,
    /// Level size ratio `T` (paper: 10).
    pub size_ratio: u64,
    /// Number of L0 files that triggers an L0→L1 compaction (LevelDB: 4).
    pub l0_compaction_trigger: usize,
    /// Fixed value slot width (paper: 1000-byte values).
    pub value_width: usize,
    /// Bloom filter budget (paper: 10 bits per key).
    pub bloom_bits_per_key: usize,
    /// Index built into every SSTable.
    pub index: IndexChoice,
    /// Maximum number of levels.
    pub max_levels: usize,
    /// Write every update to a write-ahead log before the memtable, so an
    /// unflushed buffer survives a crash (LevelDB default behaviour).
    pub wal: bool,
    /// Cache budget in bytes shared by every charging component — cached
    /// blocks, open table handles, filters and index models all draw from
    /// this one ceiling (under a `ShardedDb` it is the budget of the
    /// *whole engine*, not per shard). 0 disables caching (the paper's
    /// read sweeps run uncached so every lookup pays its I/O).
    pub block_cache_bytes: usize,
    /// In-segment search strategy.
    pub search: SearchStrategy,
    /// Optional per-level error bounds: level `L` uses
    /// `per_level_epsilon[min(L, len-1)]` instead of the global ε —
    /// Observation 5's non-uniform position boundaries.
    pub per_level_epsilon: Option<Vec<usize>>,
    /// Optional per-level Bloom budgets (bits per key): level `L` uses
    /// `per_level_bloom_bits[min(L, len-1)]`. Monkey \[Dayan et al., cited
    /// as \[8\] in the paper\] shows skewing bits toward upper levels beats a
    /// uniform budget — the same argument Observation 5 makes for position
    /// boundaries.
    pub per_level_bloom_bits: Option<Vec<usize>>,
    /// Flush/compaction scheduling (see [`Maintenance`]).
    pub maintenance: Maintenance,
    /// Background mode only: L0 file count at which each write is delayed
    /// by ~1 ms, giving compaction a chance to catch up before the hard
    /// stop (LevelDB's `kL0_SlowdownWritesTrigger`).
    pub l0_slowdown_trigger: usize,
    /// Background mode only: L0 file count at which writers block until an
    /// L0 compaction completes (LevelDB's `kL0_StopWritesTrigger`).
    pub l0_stop_trigger: usize,
    /// Background mode only: maximum immutable memtables queued for flush;
    /// a writer that fills the active memtable while the queue is full
    /// blocks until a flush drains a slot.
    pub max_immutable_memtables: usize,
    /// Maximum parallel **subcompactions** per compaction job. Above 1,
    /// one logical compaction is range-partitioned into disjoint user-key
    /// sub-ranges (cut at byte-weighted input-table boundaries so
    /// sub-ranges carry ≈even work) and merged on that many scoped
    /// threads, then installed through **one** manifest seal — a
    /// partial compaction is never visible, whichever thread finishes
    /// first or crashes. `1` (the default) is byte-for-byte today's
    /// single-threaded merge. Under a [`crate::sharding::ShardedDb`] every
    /// shard — including split children — inherits this knob from
    /// `ShardedOptions::base`.
    pub max_subcompactions: usize,
    /// Engine observability (`lsm-obs`): tracing events into a lock-free
    /// ring plus per-op latency histograms, scraped via
    /// `Db::metrics` / `ShardedDb::metrics` and the server's `METRICS`
    /// opcode. Off by default: the paper experiments run unperturbed and
    /// `DbStats` behaves byte-identically to previous releases.
    pub observability: bool,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            write_buffer_bytes: 8 << 20,
            sstable_target_bytes: 4 << 20,
            size_ratio: 10,
            l0_compaction_trigger: 4,
            value_width: 1000,
            bloom_bits_per_key: 10,
            index: IndexChoice::default(),
            max_levels: 8,
            wal: true,
            block_cache_bytes: 0,
            search: SearchStrategy::Binary,
            per_level_epsilon: None,
            per_level_bloom_bits: None,
            maintenance: Maintenance::Synchronous,
            l0_slowdown_trigger: 8,
            l0_stop_trigger: 12,
            max_immutable_memtables: 2,
            max_subcompactions: 1,
            observability: false,
        }
    }
}

impl Options {
    /// Tiny limits that force flushes and multi-level compactions with a few
    /// thousand keys — for tests.
    pub fn small_for_tests() -> Self {
        Self {
            write_buffer_bytes: 16 << 10,
            sstable_target_bytes: 8 << 10,
            size_ratio: 4,
            l0_compaction_trigger: 2,
            value_width: 32,
            bloom_bits_per_key: 10,
            index: IndexChoice::new(IndexKind::Pgm, 8),
            max_levels: 8,
            wal: true,
            block_cache_bytes: 0,
            search: SearchStrategy::Binary,
            per_level_epsilon: None,
            per_level_bloom_bits: None,
            maintenance: Maintenance::Synchronous,
            l0_slowdown_trigger: 8,
            l0_stop_trigger: 12,
            max_immutable_memtables: 2,
            max_subcompactions: 1,
            observability: false,
        }
    }

    /// Byte capacity of level `level` (1-based levels; L0 is governed by the
    /// file-count trigger instead).
    pub fn level_target_bytes(&self, level: usize) -> u64 {
        debug_assert!(level >= 1);
        let base =
            (self.write_buffer_bytes as u64).max(self.sstable_target_bytes) * self.size_ratio;
        base * self.size_ratio.pow(level.saturating_sub(1) as u32)
    }

    /// The index choice for tables written to `level`, honouring the
    /// per-level boundary override when present.
    pub fn index_for_level(&self, level: usize) -> IndexChoice {
        match &self.per_level_epsilon {
            None => self.index.clone(),
            Some(eps) if eps.is_empty() => self.index.clone(),
            Some(eps) => {
                let mut choice = self.index.clone();
                choice.config.epsilon = eps[level.min(eps.len() - 1)].max(1);
                choice
            }
        }
    }

    /// Bloom bits/key for tables written to `level`.
    pub fn bloom_bits_for_level(&self, level: usize) -> usize {
        match &self.per_level_bloom_bits {
            None => self.bloom_bits_per_key,
            Some(bits) if bits.is_empty() => self.bloom_bits_per_key,
            Some(bits) => bits[level.min(bits.len() - 1)].max(1),
        }
    }

    /// Entries per SSTable implied by the granularity knob.
    pub fn entries_per_table(&self) -> usize {
        let width = crate::sstable::format::entry_width(self.value_width) as u64;
        (self.sstable_target_bytes / width).max(1) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_targets_grow_by_t() {
        let o = Options::default();
        assert_eq!(
            o.level_target_bytes(2),
            o.level_target_bytes(1) * o.size_ratio
        );
        assert_eq!(
            o.level_target_bytes(4),
            o.level_target_bytes(1) * o.size_ratio.pow(3)
        );
    }

    #[test]
    fn boundary_maps_to_epsilon() {
        let c = IndexChoice::with_boundary(IndexKind::Pgm, 128);
        assert_eq!(c.config.epsilon, 64);
        assert_eq!(c.position_boundary(), 128);
    }

    #[test]
    fn entries_per_table_consistent() {
        let o = Options {
            value_width: 1000,
            sstable_target_bytes: 8 << 20,
            ..Options::default()
        };
        let per = o.entries_per_table();
        // 8 MiB / 1036 B ≈ 8097 entries.
        assert!((8_000..8_200).contains(&per), "{per}");
    }
}
