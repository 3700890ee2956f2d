//! Deterministic I/O cost model for the simulated NVMe device.
//!
//! The paper's testbed machine uses a 2 TB NVMe SSD; Table 1 reports a point
//! lookup spends 2.10–2.16 µs in "Disk I/O" when the position boundary is 10
//! entries (i.e. the lookup touches one or two 4096-byte blocks). We charge
//! every access in block units against a virtual clock so that experiments are
//! reproducible on any machine and unaffected by the OS page cache.

/// Default I/O block size in bytes (Linux `pread` granularity used by the
/// paper, and LevelDB's default data-block size).
pub const DEFAULT_BLOCK_SIZE: usize = 4096;

/// Cost model parameters for the simulated device.
///
/// The defaults are calibrated against Table 1 of the paper: a single-block
/// random read costs `read_base_ns + read_block_ns ≈ 2.1 µs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// I/O transfer granularity in bytes. Reads are rounded up to whole blocks.
    pub block_size: usize,
    /// Fixed per-read-call overhead (submission + completion), nanoseconds.
    pub read_base_ns: u64,
    /// Added cost for each block transferred by a read, nanoseconds.
    pub read_block_ns: u64,
    /// Fixed per-write-call overhead, nanoseconds.
    pub write_base_ns: u64,
    /// Added cost per block written, nanoseconds. Sequential writes are
    /// cheaper than random reads on NVMe.
    pub write_block_ns: u64,
    /// Flush (`sync`) latency, nanoseconds. Unlike the counted read/write
    /// costs above, this one is **realized**: a modeled
    /// [`crate::MemStorage`] actually sleeps the calling thread for this
    /// long on every `sync`, because the interesting behaviour of a durable
    /// commit path — writers piling into
    /// the commit queue while the leader is stuck in `fsync`, letting the
    /// next leader fuse them into one record — only emerges when the leader
    /// is genuinely blocked. `0` (the default) keeps `sync` free and
    /// instant, preserving the pre-existing pure-virtual-clock behaviour.
    pub sync_ns: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            block_size: DEFAULT_BLOCK_SIZE,
            read_base_ns: 1500,
            read_block_ns: 600,
            write_base_ns: 400,
            write_block_ns: 250,
            sync_ns: 0,
        }
    }
}

impl CostModel {
    /// A cost model that charges no time: a store under it counts calls,
    /// bytes and blocks only.
    pub fn free() -> Self {
        Self {
            block_size: DEFAULT_BLOCK_SIZE,
            read_base_ns: 0,
            read_block_ns: 0,
            write_base_ns: 0,
            write_block_ns: 0,
            sync_ns: 0,
        }
    }

    /// The default model plus a realized flush latency of `sync_ns`
    /// nanoseconds per `sync` call — loosely an NVMe FLUSH (tens of µs).
    /// See [`CostModel::sync_ns`] for why this one actually sleeps.
    pub fn with_sync_latency(sync_ns: u64) -> Self {
        Self {
            sync_ns,
            ..Self::default()
        }
    }

    /// Number of blocks touched by an access of `len` bytes starting at
    /// `offset` (block-aligned span, so an unaligned 10-byte read crossing a
    /// block boundary counts as 2 blocks).
    pub fn blocks_spanned(&self, offset: u64, len: usize) -> u64 {
        if len == 0 {
            return 0;
        }
        let bs = self.block_size as u64;
        let first = offset / bs;
        let last = (offset + len as u64 - 1) / bs;
        last - first + 1
    }

    /// Modeled nanoseconds for a positional read.
    pub fn read_cost_ns(&self, offset: u64, len: usize) -> u64 {
        if len == 0 {
            return 0;
        }
        self.read_base_ns + self.blocks_spanned(offset, len) * self.read_block_ns
    }

    /// Modeled nanoseconds for an append of `len` bytes beginning at file
    /// offset `offset`.
    pub fn write_cost_ns(&self, offset: u64, len: usize) -> u64 {
        if len == 0 {
            return 0;
        }
        self.write_base_ns + self.blocks_spanned(offset, len) * self.write_block_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_single_block_read_is_about_2us() {
        let m = CostModel::default();
        let ns = m.read_cost_ns(0, 100);
        assert!((1_800..=2_400).contains(&ns), "got {ns}");
    }

    #[test]
    fn blocks_spanned_alignment() {
        let m = CostModel::default();
        assert_eq!(m.blocks_spanned(0, 0), 0);
        assert_eq!(m.blocks_spanned(0, 1), 1);
        assert_eq!(m.blocks_spanned(0, 4096), 1);
        assert_eq!(m.blocks_spanned(0, 4097), 2);
        assert_eq!(m.blocks_spanned(4095, 2), 2);
        assert_eq!(m.blocks_spanned(4096, 4096), 1);
        assert_eq!(m.blocks_spanned(10, 8192), 3);
    }

    #[test]
    fn zero_len_costs_nothing() {
        let m = CostModel::default();
        assert_eq!(m.read_cost_ns(123, 0), 0);
        assert_eq!(m.write_cost_ns(123, 0), 0);
    }

    #[test]
    fn free_model_costs_nothing() {
        let m = CostModel::free();
        assert_eq!(m.read_cost_ns(0, 1 << 20), 0);
        assert_eq!(m.write_cost_ns(0, 1 << 20), 0);
    }

    #[test]
    fn bigger_reads_cost_more() {
        let m = CostModel::default();
        assert!(m.read_cost_ns(0, 64 * 1024) > m.read_cost_ns(0, 4096));
    }
}
