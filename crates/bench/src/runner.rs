//! One runner function per table/figure. Binaries are thin wrappers; the
//! harness integration tests call these at smoke scale.

use learned_index::IndexKind;
use learned_lsm::{Granularity, LookupReport, RangeReport, Testbed, TestbedConfig};
use lsm_tree::sharding::imbalance;
use lsm_tree::{Maintenance, Options, Result, ShardedDb, ShardedOptions, WriteBatch, WriteOptions};
use lsm_workloads::{cdf, value_for_key, Dataset, Op, RequestDistribution, YcsbSpec, YcsbWorkload};
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

// ---------------------------------------------------- Write modes (ablation)

/// One point of the group-commit ablation: the same write-only workload
/// issued per-key or in `WriteBatch`es of `batch_size` entries.
#[derive(Debug, Serialize)]
pub struct WriteModeRecord {
    pub mode: String,
    pub batch_size: usize,
    /// Per-op write latency, µs (CPU measured + modeled I/O).
    pub avg_write_us: f64,
    /// WAL records appended over the whole load — group commit makes this
    /// `ops / batch_size` instead of `ops`.
    pub wal_appends: u64,
    pub speedup_vs_per_key: f64,
}

/// Group-commit ablation: per-key `put` vs batched `Db::write` for the same
/// write-only load on the simulated NVMe. The ≥2× speedup of batched
/// loading is the write-path headline of the `WriteBatch` API redesign.
pub fn write_modes(
    scale: &Scale,
    dataset: Dataset,
    batch_sizes: &[usize],
) -> Result<Vec<WriteModeRecord>> {
    let mut config = config_for(
        scale,
        IndexKind::Pgm,
        64,
        dataset,
        Granularity::SstBytes(scale.sst_bytes),
    );
    config.num_keys = 0;

    let mut per_key_tb = Testbed::new(config.clone())?;
    let per_key = per_key_tb.run_write_workload(scale.ops)?;
    let mut out = vec![WriteModeRecord {
        mode: "per-key".to_string(),
        batch_size: 1,
        avg_write_us: per_key.avg_write_us,
        wal_appends: per_key_tb.db().stats().snapshot().wal_appends,
        speedup_vs_per_key: 1.0,
    }];
    for &batch_size in batch_sizes {
        let mut tb = Testbed::new(config.clone())?;
        let r = tb.run_write_workload_batched(scale.ops, batch_size)?;
        out.push(WriteModeRecord {
            mode: "batched".to_string(),
            batch_size,
            avg_write_us: r.avg_write_us,
            wal_appends: tb.db().stats().snapshot().wal_appends,
            speedup_vs_per_key: per_key.avg_write_us / r.avg_write_us.max(1e-9),
        });
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

// ----------------------------------------------------------- Sharded YCSB

/// One YCSB measurement point against a [`ShardedDb`] (the `--shards N`
/// scenario: same six mixes, engine-level range sharding underneath).
#[derive(Debug, Serialize)]
pub struct ShardedYcsbRecord {
    pub workload: String,
    pub index: String,
    pub shards: usize,
    pub ops: u64,
    /// Per-op latency, µs (measured CPU + modeled I/O — the repo's
    /// standard convention).
    pub avg_op_us: f64,
    /// Relative shard imbalance after the load (`max/mean - 1`); the
    /// learned range router's report card.
    pub load_imbalance: f64,
    /// Writer stall time accumulated during load + run, ms.
    pub stall_ms: f64,
    /// Live shard splits performed (0 with a frozen topology).
    pub splits: u64,
    /// Shard count at the end of the run (== `shards` when frozen).
    pub final_shards: usize,
}

/// Live-rebalancing knobs for the sharded runners: `None` freezes the
/// topology (PR 3 behaviour); `Some` enables online splits up to
/// `max_shards` at `split_threshold` overshoot of the fair share.
#[derive(Debug, Clone, Copy)]
pub struct Rebalance {
    pub max_shards: usize,
    pub split_threshold: f64,
}

impl Rebalance {
    /// From CLI flags: `--max-shards 0` means frozen.
    pub fn from_flags(max_shards: usize, split_threshold: f64) -> Option<Rebalance> {
        (max_shards > 0).then_some(Rebalance {
            max_shards,
            split_threshold,
        })
    }

    fn apply(knobs: Option<Rebalance>, mut opts: ShardedOptions) -> ShardedOptions {
        if let Some(r) = knobs {
            let min_split = opts.base.write_buffer_bytes as u64;
            opts = opts
                .with_max_shards(r.max_shards)
                .with_split_trigger(r.split_threshold, min_split);
        }
        opts
    }
}

/// Engine options for the sharded YCSB runs: background maintenance with
/// a small shared worker pool, sized from the scale profile. `cache_mb`
/// is the engine-wide cache budget (0 = uncached), shared by every shard.
fn sharded_ycsb_opts(scale: &Scale, kind: IndexKind, cache_mb: usize) -> Options {
    let mut o = Options::default();
    o.index.kind = kind;
    o.value_width = scale.value_width;
    o.write_buffer_bytes = scale.write_buffer_bytes;
    o.sstable_target_bytes = scale.sst_bytes;
    o.block_cache_bytes = cache_mb << 20;
    o.maintenance = Maintenance::Background {
        flush_threads: 2,
        compaction_threads: 2,
    };
    o
}

/// Run all six YCSB mixes against an `N`-shard [`ShardedDb`] on the
/// simulated NVMe (learned range routing, boundaries trained on a sample
/// of the load; `shards == 1` measures the degenerate single-shard case).
/// Each mix gets a freshly loaded engine, mirroring [`fig12`].
pub fn ycsb_sharded(
    scale: &Scale,
    dataset: Dataset,
    shards: usize,
    kind: IndexKind,
    seed: u64,
    rebalance: Option<Rebalance>,
    cache_mb: usize,
) -> Result<Vec<ShardedYcsbRecord>> {
    let mut out = Vec::new();
    let keys = dataset.generate(scale.keys, seed);
    for spec in YcsbSpec::ALL {
        let mut workload = YcsbWorkload::new(spec, keys.clone(), seed ^ 0xfc);
        let opts = Rebalance::apply(
            rebalance,
            ShardedOptions::learned(
                shards,
                workload.router_sample(16),
                sharded_ycsb_opts(scale, kind, cache_mb),
            ),
        );
        let db = ShardedDb::open_sim(opts, lsm_io::CostModel::default())?;

        // YCSB load phase: batched writes through the fence.
        let wopts = WriteOptions::default();
        for chunk in workload.keys().chunks(512) {
            let mut batch = WriteBatch::with_capacity(chunk.len());
            for &k in chunk {
                batch.put(k, &value_for_key(k, scale.value_width));
            }
            db.write(batch, &wopts)?;
        }
        db.flush()?;
        let load_imbalance = imbalance(&db.shard_entry_counts());

        let ops = if matches!(spec, YcsbSpec::E) {
            scale.ops / 10
        } else {
            scale.ops
        };
        let io_before = db.shard(0).storage().stats().snapshot();
        let wall = std::time::Instant::now();
        for _ in 0..ops {
            match workload.next_op() {
                Op::Read(k) => {
                    let _ = db.get(k)?;
                }
                Op::Update(k) | Op::Insert(k) => {
                    db.put(k, &value_for_key(k, scale.value_width))?;
                }
                Op::Scan(k, len) => {
                    let _ = db.scan(k, len)?;
                }
                Op::ReadModifyWrite(k) => {
                    let _ = db.get(k)?;
                    db.put(k, &value_for_key(k ^ 1, scale.value_width))?;
                }
            }
        }
        let cpu_ns = wall.elapsed().as_nanos() as u64;
        let io = db.shard(0).storage().stats().snapshot().since(&io_before);
        let stats = db.stats();
        out.push(ShardedYcsbRecord {
            workload: spec.name().to_string(),
            index: kind.abbrev().to_string(),
            shards,
            ops: ops as u64,
            avg_op_us: (cpu_ns + io.sim_total_ns()) as f64 / ops.max(1) as f64 / 1_000.0,
            load_imbalance,
            stall_ms: stats.stall_ns as f64 / 1e6,
            splits: stats.shard_splits,
            final_shards: db.shard_count(),
        });
        db.close()?;
    }
    Ok(out)
}

// ---------------------------------------------------------- YCSB / server

/// One YCSB mix driven through the network front end (`--server`): the
/// open-loop arrival schedule plus the latency quantiles it measured.
#[derive(Debug, Serialize)]
pub struct ServerYcsbRecord {
    pub workload: String,
    pub index: String,
    pub shards: usize,
    /// Requests on the wire (read-modify-write expands to two arrivals).
    pub requests: u64,
    /// Scheduled arrival rate, requests/s (calibrated when `--rate 0`).
    pub target_rate: f64,
    /// Completions per second actually achieved.
    pub achieved_rate: f64,
    /// Scheduled-arrival-to-response latency quantiles, µs — measured
    /// from the *schedule*, so queueing delay is never omitted.
    pub p50_us: f64,
    pub p99_us: f64,
    pub p999_us: f64,
    pub mean_us: f64,
    pub max_us: f64,
    /// Admission-control sheds (`RETRY_AFTER` answers) during the run.
    pub shed: u64,
    /// Other typed server errors during the run.
    pub errors: u64,
}

fn client_err(e: lsm_server::ClientError) -> lsm_tree::Error {
    lsm_tree::Error::Io(std::io::Error::other(format!("server client: {e}")))
}

/// Expand one YCSB op into wire requests. Read-modify-write becomes two
/// arrivals (the client really does send a GET and then a PUT).
fn push_requests(reqs: &mut Vec<lsm_server::Request>, op: Op, value_width: usize) {
    use lsm_server::Request;
    match op {
        Op::Read(k) => reqs.push(Request::Get { key: k }),
        Op::Update(k) | Op::Insert(k) => reqs.push(Request::Put {
            key: k,
            value: value_for_key(k, value_width),
            durable: false,
        }),
        Op::Scan(k, len) => reqs.push(Request::Scan {
            start: k,
            limit: len.min(lsm_server::MAX_SCAN_LIMIT) as u32,
        }),
        Op::ReadModifyWrite(k) => {
            reqs.push(Request::Get { key: k });
            reqs.push(Request::Put {
                key: k,
                value: value_for_key(k ^ 1, value_width),
                durable: false,
            });
        }
    }
}

/// Run all six YCSB mixes through the full network request path: a
/// [`lsm_server::Server`] over an `N`-shard [`ShardedDb`] on the simulated
/// NVMe, driven by the pipelined client at a fixed open-loop arrival rate.
///
/// `rate` is arrivals per second; `None` calibrates per mix by measuring
/// a short closed-loop burst through the same wire and scheduling at 70 %
/// of it, so the open loop runs loaded but not saturated. Latencies are
/// measured from *scheduled* arrival (coordinated-omission-free), and
/// admission-control sheds are counted, not hidden.
///
/// Returns the per-mix records plus the last mix's
/// [`lsm_server::MetricsSnapshot`], scraped through the `METRICS` opcode
/// like any other request: the engine's counters and the sharding layer's
/// residency report always; with `observability` (the engine's
/// observability layer) on, also the folded per-shard latency histograms
/// and the event timeline.
#[allow(clippy::too_many_arguments)]
pub fn ycsb_server(
    scale: &Scale,
    dataset: Dataset,
    shards: usize,
    kind: IndexKind,
    seed: u64,
    rate: Option<f64>,
    cache_mb: usize,
    observability: bool,
) -> Result<(Vec<ServerYcsbRecord>, lsm_server::MetricsSnapshot)> {
    use lsm_server::{Client, MemTransport, Server, ServerOptions};
    use std::sync::Arc;

    let mut out = Vec::new();
    let mut metrics = lsm_server::MetricsSnapshot::default();
    let keys = dataset.generate(scale.keys, seed);
    for spec in YcsbSpec::ALL {
        let mut workload = YcsbWorkload::new(spec, keys.clone(), seed ^ 0xc5);
        let mut base = sharded_ycsb_opts(scale, kind, cache_mb);
        base.observability = observability;
        let opts = ShardedOptions::learned(shards, workload.router_sample(16), base);
        let db = ShardedDb::open_sim(opts, lsm_io::CostModel::default())?;

        // YCSB load phase: batched writes straight into the engine (setup,
        // not measurement — the measured mix goes through the wire).
        let wopts = WriteOptions::default();
        for chunk in workload.keys().chunks(512) {
            let mut batch = WriteBatch::with_capacity(chunk.len());
            for &k in chunk {
                batch.put(k, &value_for_key(k, scale.value_width));
            }
            db.write(batch, &wopts)?;
        }
        db.flush()?;

        let (connector, listener) = MemTransport::endpoint();
        let server = Server::start(db, Arc::new(listener), ServerOptions::default());
        let client = Client::new(connector.connect()?);

        let ops = if matches!(spec, YcsbSpec::E) {
            scale.ops / 10
        } else {
            scale.ops
        };
        let mut reqs = Vec::with_capacity(ops + ops / 2);
        for _ in 0..ops {
            push_requests(&mut reqs, workload.next_op(), scale.value_width);
        }

        let target_rate = match rate {
            Some(r) => r,
            None => {
                // Closed-loop calibration through the same wire: measure
                // what one at-a-time traffic sustains, schedule at 70 %.
                let calib = (reqs.len() / 10).clamp(100, 2_000);
                let t = std::time::Instant::now();
                for i in 0..calib {
                    let id = client.submit(&reqs[i % reqs.len()]).map_err(client_err)?;
                    client.wait(id).map_err(client_err)?;
                }
                let measured = calib as f64 / t.elapsed().as_secs_f64().max(1e-9);
                (0.7 * measured).max(100.0)
            }
        };

        let summary =
            lsm_server::run_open_loop(&client, target_rate, reqs.len(), |i| reqs[i].clone())
                .map_err(client_err)?;
        // Scrape after the measured run so the histograms fold the whole
        // mix; draining the ring here also keeps it from overflowing
        // across mixes.
        metrics = client.metrics().map_err(client_err)?;

        out.push(ServerYcsbRecord {
            workload: spec.name().to_string(),
            index: kind.abbrev().to_string(),
            shards,
            requests: summary.ops as u64,
            target_rate,
            achieved_rate: summary.achieved_rate(),
            p50_us: summary.latency_at(0.50) as f64 / 1e3,
            p99_us: summary.latency_at(0.99) as f64 / 1e3,
            p999_us: summary.latency_at(0.999) as f64 / 1e3,
            mean_us: summary.hist.mean() as f64 / 1e3,
            max_us: summary.hist.max() as f64 / 1e3,
            shed: summary.shed as u64,
            errors: summary.errors as u64,
        });
        server.close()?;
    }
    Ok((out, metrics))
}

// ------------------------------------------------------- live rebalancing

/// One measurement of the live-rebalancing scenario: a skewed insert
/// stream against a 2-shard engine whose initial boundaries were cut for
/// a uniform distribution.
#[derive(Debug, Serialize)]
pub struct RebalanceRecord {
    /// Whether live splitting was enabled.
    pub splits_on: bool,
    /// Per-insert latency, µs (measured CPU + modeled I/O).
    pub avg_insert_us: f64,
    /// Live splits performed.
    pub splits: u64,
    /// Final shard count.
    pub final_shards: usize,
    /// Resident-bytes imbalance (`max/mean - 1`) at the end.
    pub resident_imbalance: f64,
    /// Writer stall time, ms.
    pub stall_ms: f64,
}

/// The rebalance scenario behind the `rebalance` criterion bench: insert
/// `scale.keys` zipfian-density keys (dense near zero, sparse tail) into
/// a 2-shard learned-range engine whose boundary was trained on a
/// *uniform* sample — with live splitting on or off — and report the
/// cost and the final balance. Splits-off measures the cost of the
/// mismatch (one shard swallows the stream); splits-on measures what the
/// online topology pays to fix it.
pub fn rebalance_stream(scale: &Scale, splits_on: bool, seed: u64) -> Result<RebalanceRecord> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let uniform_sample: Vec<u64> = (0..4096u64).map(|i| i << 32).collect();
    let mut opts = ShardedOptions::learned(
        2,
        uniform_sample,
        sharded_ycsb_opts(scale, IndexKind::Pgm, 0),
    );
    if splits_on {
        opts = opts
            .with_max_shards(16)
            .with_split_trigger(0.2, 2 * scale.write_buffer_bytes as u64);
    }
    let db = ShardedDb::open_sim(opts, lsm_io::CostModel::default())?;
    let chooser = RequestDistribution::Zipfian { theta: 0.99 }.chooser(1 << 20);
    let mut rng = StdRng::seed_from_u64(seed);
    let value = vec![7u8; scale.value_width];
    let wall = std::time::Instant::now();
    let mut batch = WriteBatch::with_capacity(64);
    for _ in 0..scale.keys {
        let k = ((chooser.next(&mut rng) as u64) << 24) | rng.gen_range(0..1u64 << 24);
        batch.put(k, &value);
        if batch.len() >= 64 {
            db.write(std::mem::take(&mut batch), &WriteOptions::default())?;
        }
    }
    db.write(batch, &WriteOptions::default())?;
    db.flush()?;
    if splits_on {
        // Quiesce: drive the trigger until no shard is over target — the
        // cost of the drains is part of what this bench measures. (Under
        // a longer-lived stream the worker pool does this on its own;
        // the smoke-scale stream finishes in milliseconds.)
        while db.rebalance()? {}
    }
    let cpu_ns = wall.elapsed().as_nanos() as u64;
    let io = db.shard(0).storage().stats().snapshot();
    let stats = db.stats();
    let sharded = db.sharded_stats();
    let record = RebalanceRecord {
        splits_on,
        avg_insert_us: (cpu_ns + io.sim_total_ns()) as f64 / scale.keys.max(1) as f64 / 1_000.0,
        splits: stats.shard_splits,
        final_shards: db.shard_count(),
        resident_imbalance: sharded.resident_imbalance,
        stall_ms: stats.stall_ns as f64 / 1e6,
    };
    db.close()?;
    Ok(record)
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
