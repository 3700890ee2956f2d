//! The testbed: one engine instance wired to a configuration-space point,
//! with dataset loading and the workload runners behind every figure.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use lsm_tree::{Db, Error, Result, WriteBatch, WriteOptions};
use lsm_workloads::{value_for_key, Op, RequestDistribution, YcsbSpec, YcsbWorkload};

use crate::config::TestbedConfig;
use crate::report::{CompactionReport, LookupReport, RangeReport};

/// An engine instance plus the loaded key set.
pub struct Testbed {
    config: TestbedConfig,
    db: Db,
    /// Loaded dataset keys, sorted (lookup workloads draw from these).
    keys: Vec<u64>,
    /// Insertion order when loaded through the write path (newest last);
    /// gives the "read-latest" distribution its recency semantics.
    insertion_order: Option<Vec<u64>>,
}

impl Testbed {
    /// Open a fresh simulated-NVMe testbed for `config` (nothing loaded yet).
    pub fn new(config: TestbedConfig) -> Result<Testbed> {
        let db = Db::open_sim(config.to_options(), lsm_io::CostModel::default())?;
        Ok(Testbed {
            config,
            db,
            keys: Vec::new(),
            insertion_order: None,
        })
    }

    /// The configuration in effect.
    pub fn config(&self) -> &TestbedConfig {
        &self.config
    }

    /// The underlying engine.
    pub fn db(&self) -> &Db {
        &self.db
    }

    /// Loaded keys.
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }

    /// Generate the configured dataset and bulk-load it into a leveled tree
    /// (the read experiments' load phase).
    pub fn load(&mut self) -> Result<()> {
        let c = &self.config;
        self.keys = c.dataset.generate(c.num_keys, c.seed);
        let vw = c.value_width;
        self.db
            .bulk_load(self.keys.iter().map(|&k| (k, value_for_key(k, vw))))
    }

    /// Batch size used by the write-path load phases: large enough that the
    /// group-commit saving dominates, small enough that memtable flush
    /// boundaries stay fine-grained.
    pub const LOAD_BATCH: usize = 512;

    /// Load the dataset through the normal write path (random insertion
    /// order, flushes, compactions), producing the naturally layered tree
    /// the paper's per-level experiments (Figure 10) rely on — newer data
    /// concentrated in upper levels. Writes go through [`Db::write`] in
    /// [`Self::LOAD_BATCH`]-entry `WriteBatch`es (one WAL record and one
    /// lock acquisition per batch), which is what makes write-path loading
    /// affordable at experiment scale.
    pub fn load_via_writes(&mut self) -> Result<()> {
        let c = &self.config;
        self.keys = c.dataset.generate(c.num_keys, c.seed);
        let vw = c.value_width;
        let mut order: Vec<usize> = (0..self.keys.len()).collect();
        order.shuffle(&mut StdRng::seed_from_u64(c.seed ^ 0x10ad));
        let mut inserted = Vec::with_capacity(order.len());
        let wopts = WriteOptions::default();
        for chunk in order.chunks(Self::LOAD_BATCH) {
            let mut batch = WriteBatch::with_capacity(chunk.len());
            for &i in chunk {
                let k = self.keys[i];
                batch.put(k, &value_for_key(k, vw));
                inserted.push(k);
            }
            self.db.write(batch, &wopts)?;
        }
        self.db.flush()?;
        self.insertion_order = Some(inserted);
        Ok(())
    }

    /// Index memory lookups consult: per level, its model under
    /// [`crate::Granularity::Level`], its tables' indexes otherwise.
    pub fn index_memory_bytes(&self) -> u64 {
        self.db.index_memory_bytes() as u64
    }

    /// Run `ops` point lookups drawn from `dist` over the loaded keys and
    /// report the paper's metrics.
    pub fn run_point_lookups(&self, ops: usize, dist: RequestDistribution) -> Result<LookupReport> {
        if self.keys.is_empty() {
            return Err(Error::Corruption("load() must run before lookups".into()));
        }
        let chooser = dist.chooser(self.keys.len());
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0x9d);
        // "Latest" ranks mean recency when the load preserved insertion
        // order; otherwise they fall back to key order.
        let latest = matches!(dist, RequestDistribution::Latest { .. })
            .then(|| self.insertion_order.as_deref())
            .flatten();

        let stats_before = self.db.stats().snapshot();
        let io_before = self.db.storage().stats().snapshot();
        let wall = Instant::now();
        for _ in 0..ops {
            let pos = chooser.next(&mut rng);
            let key = match latest {
                Some(order) => order[order.len() - 1 - pos],
                None => self.keys[pos],
            };
            let got = self.db.get(key)?;
            debug_assert!(got.is_some(), "loaded key {key} must be found");
        }
        let cpu_ns = wall.elapsed().as_nanos() as u64;
        let stats = self.db.stats().snapshot().since(&stats_before);
        let io = self.db.storage().stats().snapshot().since(&io_before);

        let version = self.db.version();
        Ok(LookupReport::from_counters(
            self.config.index_kind.abbrev().to_string(),
            self.config.dataset.name().to_string(),
            self.config.position_boundary,
            self.config.granularity.label(),
            ops as u64,
            cpu_ns,
            io.sim_read_ns,
            io.read_blocks,
            self.index_memory_bytes(),
            self.db.bloom_memory_bytes() as u64,
            (
                stats.table_locate_ns,
                stats.predict_ns,
                stats.io_cpu_ns,
                stats.search_ns,
            ),
            stats.level_reads.to_vec(),
            version
                .index_memory_by_level()
                .into_iter()
                .map(|b| b as u64)
                .collect(),
            (0..version.levels.len())
                .map(|l| version.level_entries(l))
                .collect(),
        ))
    }

    /// Run `ops` range lookups of `range_len` entries each (Figure 11).
    pub fn run_range_lookups(&self, ops: usize, range_len: usize) -> Result<RangeReport> {
        if self.keys.is_empty() {
            return Err(Error::Corruption("load() must run before lookups".into()));
        }
        let chooser = RequestDistribution::Uniform.chooser(self.keys.len());
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0x11a);

        let io_before = self.db.storage().stats().snapshot();
        let wall = Instant::now();
        let mut returned = 0u64;
        for _ in 0..ops {
            let start = self.keys[chooser.next(&mut rng)];
            let got = self.db.scan(start, range_len)?;
            returned += got.len() as u64;
        }
        let cpu_ns = wall.elapsed().as_nanos() as u64;
        let io = self.db.storage().stats().snapshot().since(&io_before);

        Ok(RangeReport {
            index: self.config.index_kind.abbrev().to_string(),
            dataset: self.config.dataset.name().to_string(),
            position_boundary: self.config.position_boundary,
            range_len,
            ops: ops as u64,
            avg_latency_us: (cpu_ns + io.sim_read_ns) as f64 / ops.max(1) as f64 / 1_000.0,
            cpu_us_per_op: cpu_ns as f64 / ops.max(1) as f64 / 1_000.0,
            sim_io_us_per_op: io.sim_read_ns as f64 / ops.max(1) as f64 / 1_000.0,
            index_memory_bytes: self.index_memory_bytes(),
            entries_returned: returned,
        })
    }

    /// Run a write-only workload of `ops` puts through the normal write path
    /// (flushes + compactions included) and report the compaction breakdown
    /// (Figure 9). Call on a *fresh* testbed. Each op is its own
    /// one-entry batch (`Db::put`) — the per-key write mode.
    pub fn run_write_workload(&mut self, ops: usize) -> Result<CompactionReport> {
        self.run_write_workload_batched(ops, 1)
    }

    /// [`Testbed::run_write_workload`] with the writes grouped into
    /// `batch_size`-entry `WriteBatch`es — the group-commit write mode.
    /// Same workload, same flush/compaction work; the difference in
    /// `avg_write_us` against the per-key run is the WAL/group-commit
    /// saving.
    pub fn run_write_workload_batched(
        &mut self,
        ops: usize,
        batch_size: usize,
    ) -> Result<CompactionReport> {
        let c = &self.config;
        self.keys = c.dataset.generate(ops, c.seed);
        let vw = c.value_width;

        let io_before = self.db.storage().stats().snapshot();
        let wall = Instant::now();
        let wopts = WriteOptions::default();
        for chunk in self.keys.chunks(batch_size.max(1)) {
            let mut batch = WriteBatch::with_capacity(chunk.len());
            for &k in chunk {
                batch.put(k, &value_for_key(k, vw));
            }
            self.db.write(batch, &wopts)?;
        }
        self.db.flush()?;
        let cpu_ns = wall.elapsed().as_nanos() as u64;
        let io = self.db.storage().stats().snapshot().since(&io_before);
        let stats = self.db.stats().snapshot();
        let cb = stats.compaction_breakdown();

        Ok(CompactionReport {
            index: c.index_kind.abbrev().to_string(),
            position_boundary: c.position_boundary,
            write_ops: ops as u64,
            flushes: stats.flushes,
            compactions: stats.compactions,
            compact_total_ms: cb.total_ns as f64 / 1e6,
            kv_io_ms: cb.kv_io_ns as f64 / 1e6,
            train_ms: cb.train_ns as f64 / 1e6,
            model_write_ms: cb.model_write_ns as f64 / 1e6,
            train_pct: cb.train_fraction() * 100.0,
            model_write_pct: cb.model_write_fraction() * 100.0,
            bytes_read: stats.compact_bytes_read,
            bytes_written: stats.compact_bytes_written,
            index_memory_bytes: self.db.index_memory_bytes() as u64,
            avg_write_us: (cpu_ns + io.sim_total_ns()) as f64 / ops.max(1) as f64 / 1_000.0,
        })
    }

    /// Run one YCSB workload (Figure 12): returns the average op latency in
    /// µs and lets the caller pair it with [`Testbed::index_memory_bytes`].
    pub fn run_ycsb(&mut self, spec: YcsbSpec, ops: usize) -> Result<f64> {
        if self.keys.is_empty() {
            return Err(Error::Corruption("load() must run before YCSB".into()));
        }
        let mut workload = YcsbWorkload::new(spec, self.keys.clone(), self.config.seed ^ 0xfc);
        let vw = self.config.value_width;

        let io_before = self.db.storage().stats().snapshot();
        let wall = Instant::now();
        for _ in 0..ops {
            match workload.next_op() {
                Op::Read(k) => {
                    let _ = self.db.get(k)?;
                }
                Op::Update(k) | Op::Insert(k) => {
                    self.db.put(k, &value_for_key(k, vw))?;
                }
                Op::Scan(k, len) => {
                    let _ = self.db.scan(k, len)?;
                }
                Op::ReadModifyWrite(k) => {
                    let _ = self.db.get(k)?;
                    self.db.put(k, &value_for_key(k ^ 1, vw))?;
                }
            }
        }
        let cpu_ns = wall.elapsed().as_nanos() as u64;
        let io = self.db.storage().stats().snapshot().since(&io_before);
        Ok((cpu_ns + io.sim_total_ns()) as f64 / ops.max(1) as f64 / 1_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Granularity;
    use learned_index::IndexKind;
    use lsm_workloads::Dataset;

    fn tiny_config(kind: IndexKind) -> TestbedConfig {
        let mut c = TestbedConfig::quick(kind, 64, Dataset::Random);
        c.num_keys = 20_000;
        c.value_width = 32;
        c.granularity = Granularity::SstBytes(256 << 10);
        c.write_buffer_bytes = 256 << 10;
        c
    }

    #[test]
    fn load_and_lookup_every_kind() {
        for kind in IndexKind::ALL {
            let mut tb = Testbed::new(tiny_config(kind)).unwrap();
            tb.load().unwrap();
            let report = tb
                .run_point_lookups(500, RequestDistribution::Uniform)
                .unwrap();
            assert_eq!(report.ops, 500);
            assert!(report.avg_latency_us > 0.0, "{kind}");
            assert!(report.index_memory_bytes > 0, "{kind}");
            assert!(report.blocks_per_op > 0.0, "{kind}");
        }
    }

    fn level_config(kind: IndexKind) -> TestbedConfig {
        let mut c = tiny_config(kind);
        c.granularity = Granularity::Level {
            sst_bytes: 256 << 10,
        };
        c
    }

    /// Every non-empty sorted level of the engine's version has its model.
    fn assert_every_sorted_level_has_its_model(tb: &Testbed, when: &str) {
        let version = tb.db().version();
        let mut populated = 0;
        for (level, tables) in version.levels.iter().enumerate().skip(1) {
            assert_eq!(
                version.level_index(level).is_some(),
                !tables.is_empty(),
                "{when}: level {level}"
            );
            populated += usize::from(!tables.is_empty());
        }
        assert!(populated > 0, "{when}: nothing below L0");
    }

    #[test]
    fn level_granularity_cuts_memory() {
        let mut per_sst = Testbed::new(tiny_config(IndexKind::Pgm)).unwrap();
        per_sst.load().unwrap();
        let mut level = Testbed::new(level_config(IndexKind::Pgm)).unwrap();
        level.load().unwrap();

        assert!(level.index_memory_bytes() < per_sst.index_memory_bytes());
        // The lookups go through the level models, and the report says so:
        // each is counted at the level that answered it, and the per-level
        // memory is the memory of what answered.
        let report = level
            .run_point_lookups(300, RequestDistribution::Uniform)
            .unwrap();
        assert_eq!(report.ops, 300);
        assert_eq!(report.level_reads.iter().sum::<u64>(), 300);
        assert_eq!(report.index_memory_bytes, level.index_memory_bytes());
        assert_eq!(
            report.level_index_bytes.iter().sum::<u64>(),
            report.index_memory_bytes
        );
    }

    /// YCSB at level granularity reads through the models — after the load
    /// and after the run's own writes, flushes and compactions — and returns
    /// what the per-table testbed returns.
    #[test]
    fn ycsb_at_level_granularity_reads_through_the_models() {
        // A small buffer: the run's updates flush and compact into the load.
        let small_buffer = |mut c: TestbedConfig| {
            c.write_buffer_bytes = 32 << 10;
            Testbed::new(c).unwrap()
        };
        let mut per_sst = small_buffer(tiny_config(IndexKind::Pgm));
        let mut level = small_buffer(level_config(IndexKind::Pgm));
        for tb in [&mut per_sst, &mut level] {
            tb.load().unwrap();
        }
        assert_every_sorted_level_has_its_model(&level, "after load");
        for tb in [&mut per_sst, &mut level] {
            tb.run_ycsb(YcsbSpec::A, 12_000).unwrap();
        }
        let stats = level.db().stats().snapshot();
        assert!(stats.flushes > 0 && stats.compactions > 0, "{stats:?}");
        assert_every_sorted_level_has_its_model(&level, "after YCSB-A");
        assert!(level.index_memory_bytes() < per_sst.index_memory_bytes());
        for &k in level.keys().iter().step_by(7) {
            let got = level.db().get(k).unwrap();
            assert!(got.is_some(), "key {k}");
            assert_eq!(got, per_sst.db().get(k).unwrap(), "key {k}");
        }
    }

    #[test]
    fn range_lookups_return_entries() {
        let mut tb = Testbed::new(tiny_config(IndexKind::RadixSpline)).unwrap();
        tb.load().unwrap();
        let r = tb.run_range_lookups(50, 20).unwrap();
        assert_eq!(r.ops, 50);
        assert!(r.entries_returned >= 50 * 15, "{}", r.entries_returned);
    }

    #[test]
    fn write_workload_reports_breakdown() {
        let mut c = tiny_config(IndexKind::Plex);
        c.num_keys = 0;
        let mut tb = Testbed::new(c).unwrap();
        let r = tb.run_write_workload(20_000).unwrap();
        assert!(r.flushes > 0);
        assert!(r.compactions > 0);
        assert!(r.train_ms > 0.0);
        assert!(r.train_pct < 60.0, "training dominates: {}", r.train_pct);
    }

    #[test]
    fn ycsb_all_specs_run() {
        let mut tb = Testbed::new(tiny_config(IndexKind::Pgm)).unwrap();
        tb.load().unwrap();
        for spec in YcsbSpec::ALL {
            let us = tb.run_ycsb(spec, 300).unwrap();
            assert!(us > 0.0, "{spec:?}");
        }
    }
}
