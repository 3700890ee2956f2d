//! From what a run measured to named metrics.

use lsm_tree::sharding::imbalance;

use crate::closed_loop::Phase;
use crate::gen::BATCH;
use crate::inproc::{Counters, InProcRun, SCAN_LEN};
use crate::shard_mixed::MixedRun;
use crate::spec::{self, Source};
use crate::stats::{median, Estimate, Quiet, Window};
use crate::trace::Tracer;

pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub est: Estimate,
    /// A wall-clock end-to-end metric only: the same estimate without the
    /// host calibration, as the clock read it.
    pub uncalibrated: Option<f64>,
    /// A per-layer metric only: where the number comes from.
    pub source: Option<Source>,
}

/// An estimate at the reference host speed, and as the clock read it.
struct Timed {
    at_reference: Estimate,
    uncalibrated: f64,
}

/// What a workload's three operation classes and its tree measured.
struct EndToEnd {
    setup_secs: f64,
    get: OpMetrics,
    put: OpMetrics,
    scan: OpMetrics,
    /// Device bytes written, and bytes stored, by loading `user_bytes`.
    written_bytes: u64,
    stored_bytes: u64,
    user_bytes: u64,
    index_bytes: usize,
    keys: usize,
}

impl EndToEnd {
    /// Every end-to-end metric, in `spec::END_TO_END` order.
    fn metrics(self) -> Vec<Metric> {
        let timed = |t: Timed| (t.at_reference, Some(t.uncalibrated));
        let exact = |v: f64| (Estimate::exact(v), None);
        let values = [
            exact(self.setup_secs),
            timed(self.get.kops),
            timed(self.get.p50_us),
            timed(self.get.model_us),
            timed(self.put.kops),
            timed(self.put.p50_us),
            timed(self.scan.kops),
            timed(self.scan.p50_us),
            timed(self.scan.model_us),
            exact(self.written_bytes as f64 / self.user_bytes as f64),
            exact(self.stored_bytes as f64 / self.user_bytes as f64),
            exact(self.index_bytes as f64 / self.keys as f64),
        ];
        spec::END_TO_END
            .iter()
            .zip(values)
            .map(|(m, (est, uncalibrated))| Metric {
                name: m.name.to_string(),
                unit: m.unit,
                est,
                uncalibrated,
                source: None,
            })
            .collect()
    }
}

struct OpMetrics {
    kops: Timed,
    p50_us: Timed,
    p99_us: Timed,
    model_us: Timed,
}

/// The quiet decile across windows of each per-window number, every
/// window first brought to the reference host speed (`calib`).
/// `per_op` is how many entries one timed call carries.
fn op_metrics(windows: &[Window], per_op: f64) -> OpMetrics {
    let at_reference: Vec<Window> = windows.iter().map(Window::at_reference_speed).collect();
    let quiet = |f: &dyn Fn(&Window) -> f64, q| {
        let over = |ws: &[Window]| Estimate::quiet(&ws.iter().map(f).collect::<Vec<_>>(), q);
        Timed {
            at_reference: over(&at_reference),
            uncalibrated: over(windows).value,
        }
    };
    OpMetrics {
        kops: quiet(&|w| w.kops() * per_op, Quiet::High),
        p50_us: quiet(&|w| w.p50_ns / 1e3, Quiet::Low),
        p99_us: quiet(&|w| w.tail_ns / 1e3, Quiet::Low),
        model_us: quiet(&|w| w.model_us(), Quiet::Low),
    }
}

pub fn inproc_end_to_end(run: &InProcRun) -> Vec<Metric> {
    let rounds: Vec<Window> = run.rounds.iter().map(|r| r.window).collect();
    // Every round writes the same bytes; the first one stands for all.
    let round = &run.rounds[0];
    EndToEnd {
        setup_secs: median(&run.setup_secs),
        get: op_metrics(&run.get.phase.windows, 1.0),
        put: op_metrics(&rounds, BATCH as f64),
        scan: op_metrics(&run.scan.phase.windows, 1.0),
        written_bytes: round.counters.io.write_bytes,
        stored_bytes: round.stored_bytes,
        user_bytes: run.user_bytes,
        index_bytes: run.index_bytes,
        keys: run.keys,
    }
    .metrics()
}

pub fn mixed_end_to_end(run: &MixedRun) -> Vec<Metric> {
    EndToEnd {
        setup_secs: median(&run.setup_secs),
        get: op_metrics(&run.get.windows, 1.0),
        put: op_metrics(&run.put.windows, 1.0),
        scan: op_metrics(&run.scan.windows, 1.0),
        written_bytes: run.preload.io.write_bytes,
        stored_bytes: run.preload_stored_bytes,
        user_bytes: run.user_bytes,
        index_bytes: run.index_bytes,
        keys: run.keys,
    }
    .metrics()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The counters a workload's operations ran up, and how many there were.
pub struct Counted {
    /// Around the GETs; `read_requests` is what their device reads are
    /// divided by (GETs, or GETs + SCANs where the two run interleaved).
    pub get: Counters,
    pub read_requests: f64,
    /// Around the SCANs.
    pub scan: Counters,
    pub scans: f64,
    /// Around the writes.
    pub put: Counters,
    pub entries: f64,
    pub user_bytes: f64,
    pub put_secs: f64,
}

fn counter_metrics(c: &Counted, out: &mut Vec<(&'static str, f64)>) {
    let (g, s, p) = (&c.get.db, &c.scan, &c.put);
    let lookups = g.lookups as f64;
    let table_hits: u64 = g.level_reads.iter().sum();
    let false_positives = g
        .bloom_checks
        .saturating_sub(g.bloom_negatives + table_hits) as f64;
    out.extend([
        (
            "bloom.checks_per_get",
            ratio(g.bloom_checks as f64, lookups),
        ),
        (
            "bloom.negative_share",
            ratio(g.bloom_negatives as f64, g.bloom_checks as f64),
        ),
        (
            "bloom.false_positive_share",
            ratio(false_positives, g.bloom_negatives as f64 + false_positives),
        ),
        (
            "cache.block_hit_share",
            ratio(
                g.cache_block_hits as f64,
                (g.cache_block_hits + g.cache_block_misses) as f64,
            ),
        ),
        (
            "cache.evictions_per_get",
            ratio(g.cache_block_evictions as f64, lookups),
        ),
        (
            "cache.used_share",
            ratio(g.cache_used_bytes as f64, g.cache_capacity_bytes as f64),
        ),
        (
            "io.read_calls_per_get",
            ratio(c.get.io.read_calls as f64, c.read_requests),
        ),
        (
            "io.read_blocks_per_get",
            ratio(c.get.io.read_blocks as f64, c.read_requests),
        ),
        (
            "io.read_model_ns_per_get",
            ratio(c.get.io.sim_read_ns as f64, c.read_requests),
        ),
        (
            "io.read_blocks_per_scan",
            ratio(s.io.read_blocks as f64, c.scans),
        ),
        (
            "io.write_calls_per_kentry",
            ratio(p.io.write_calls as f64 * 1e3, c.entries),
        ),
        (
            "io.write_model_ns_per_entry",
            ratio(p.io.sim_write_ns as f64, c.entries),
        ),
        ("memtable.hit_share", ratio(g.memtable_hits as f64, lookups)),
        (
            "wal.bytes_per_user_byte",
            ratio(p.db.wal_bytes as f64, c.user_bytes),
        ),
        (
            "wal.syncs_per_put",
            ratio(p.db.wal_syncs as f64, p.db.write_batches as f64),
        ),
        (
            "db.group_size",
            ratio(p.db.write_batches as f64, p.db.write_groups as f64),
        ),
        ("db.stall_ms", p.db.stall_ns as f64 / 1e6),
        ("db.flushes", p.db.flushes as f64),
        ("compaction.count", p.db.compactions as f64),
        (
            "compaction.busy_share",
            ratio(p.db.compact_total_ns as f64, c.put_secs * 1e9),
        ),
        (
            "compaction.train_share",
            ratio(p.db.compact_train_ns as f64, p.db.compact_total_ns as f64),
        ),
        (
            "compaction.read_bytes_per_user_byte",
            ratio(p.db.compact_bytes_read as f64, c.user_bytes),
        ),
        (
            "compaction.write_bytes_per_user_byte",
            ratio(p.db.compact_bytes_written as f64, c.user_bytes),
        ),
    ]);
}

fn trace_metrics(t: &Tracer, out: &mut Vec<(&'static str, f64)>) {
    let totals = t.totals();
    let mean = |name: &str| totals.get(name).map_or(0.0, |n| n.mean_ns());
    let mean_self = |name: &str| totals.get(name).map_or(0.0, |n| n.mean_self_ns());
    let count = |name: &str| totals.get(name).map_or(0.0, |n| n.count as f64);
    out.extend([
        ("version.locate_ns", mean("version.locate")),
        (
            "version.tables_probed_per_get",
            ratio(count("sstable.get"), count("db.get")),
        ),
        ("sstable.get_ns", mean("sstable.get")),
        ("sstable.fetch_search_ns", mean("sstable.fetch_search")),
        ("db.get_self_ns", mean_self("db.get")),
        ("db.write_self_ns", mean_self("db.write")),
        ("iter.seek_ns", mean("iter.seek")),
        ("iter.next_ns", mean("iter.next") / SCAN_LEN as f64),
        ("sharding.get_overhead_ns", mean_self("sharding.get")),
        ("server.rtt_self_us", mean_self("rpc.get") / 1e3),
        ("trace.closure_get", t.closure("db.get")),
        ("trace.closure_put", t.closure("db.write")),
        ("trace.closure_rpc", t.closure("rpc.get")),
    ]);
}

/// The tail latencies the callers saw in the untraced windows. Not
/// end-to-end metrics: a p99 cannot be made steady from run to run on a
/// shared host (see README, *Steadiness*).
fn client_tails(
    get: &Phase,
    put_windows: &[Window],
    put_per_op: f64,
    out: &mut Vec<(&'static str, f64)>,
) {
    out.extend([
        (
            "client.get_p99_us",
            op_metrics(&get.windows, 1.0).p99_us.at_reference.value,
        ),
        (
            "client.put_p99_us",
            op_metrics(put_windows, put_per_op)
                .p99_us
                .at_reference
                .value,
        ),
    ]);
}

fn quiet_kops(phase: &Phase) -> Estimate {
    op_metrics(&phase.windows, 1.0).kops.at_reference
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn host_and_overhead(untraced: &Phase, traced: Option<&Phase>, out: &mut Vec<(&'static str, f64)>) {
    let base = quiet_kops(untraced);
    let traced = traced.map_or(0.0, |p| quiet_kops(p).value);
    out.extend([
        ("trace.overhead_share", 1.0 - ratio(traced, base.value)),
        (
            "host.nproc",
            std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64),
        ),
        ("host.window_spread", 1.0 - ratio(base.median, base.value)),
        (
            "host.reference_cost",
            median(&untraced.per_window(|w| w.host.mean)),
        ),
        ("host.peak_rss_mb", peak_rss_mb()),
    ]);
}

/// Every per-layer metric, in `spec::per_layer()` order. A metric no source
/// produced on this workload (a server span on an in-process workload)
/// reads 0.
fn per_layer(sourced: Vec<(&'static str, f64)>, probes: &[(String, f64)]) -> Vec<Metric> {
    spec::per_layer()
        .into_iter()
        .map(|m| {
            let probed = probes.iter().find(|(n, _)| *n == m.name).map(|(_, v)| *v);
            let sourced = sourced.iter().find(|(n, _)| *n == m.name).map(|(_, v)| *v);
            let value = probed.or(sourced).unwrap_or(0.0);
            Metric {
                name: m.name,
                unit: m.unit,
                est: Estimate::exact(value),
                uncalibrated: None,
                source: Some(m.source),
            }
        })
        .collect()
}

pub fn inproc_per_layer(run: &InProcRun, t: &Tracer, probes: &[(String, f64)]) -> Vec<Metric> {
    // The PUT counters are one untraced round's where there is one.
    let round = run
        .rounds
        .iter()
        .find(|r| !r.traced)
        .unwrap_or(&run.rounds[0]);
    let counted = Counted {
        get: run.get.counters,
        read_requests: run.get.phase.attempted as f64,
        scan: run.scan.counters,
        scans: run.scan.phase.attempted as f64,
        put: round.counters,
        entries: run.keys as f64,
        user_bytes: run.user_bytes as f64,
        put_secs: round.window.secs,
    };
    let mut sourced = vec![("iter.sources", run.iter_sources as f64)];
    counter_metrics(&counted, &mut sourced);
    trace_metrics(t, &mut sourced);
    let rounds: Vec<Window> = run.rounds.iter().map(|r| r.window).collect();
    client_tails(&run.get.phase, &rounds, BATCH as f64, &mut sourced);
    host_and_overhead(&run.get.phase, run.traced_get.as_ref(), &mut sourced);
    per_layer(sourced, probes)
}

pub fn mixed_per_layer(run: &MixedRun, t: &Tracer, probes: &[(String, f64)]) -> Vec<Metric> {
    // GETs and SCANs run interleaved: their device reads are one pool.
    let requests = (run.get.attempted + run.scan.attempted) as f64;
    let secs: f64 = run.put.windows.iter().map(|w| w.secs).sum();
    let counted = Counted {
        get: run.read_counters,
        read_requests: requests,
        scan: run.read_counters,
        scans: requests,
        put: run.write_counters,
        entries: run.put.attempted as f64,
        user_bytes: (run.put.attempted * crate::gen::USER_BYTES_PER_ENTRY) as f64,
        put_secs: secs,
    };
    // Beside the writer the median window, not the quiet decile: the
    // reader's quiet windows there are the ones in which the writer stalled.
    let beside = op_metrics(&run.get_beside.windows, 1.0);
    let (alone, beside_kops) = (quiet_kops(&run.get).value, beside.kops.at_reference.median);
    let wire_requests: u64 = run.traced.as_ref().map_or(0, |t| {
        [&t.wire_get, &t.wire_put, &t.wire_get_alone]
            .iter()
            .map(|p| p.attempted)
            .sum()
    });
    let mut sourced = vec![
        ("sharding.entry_imbalance", imbalance(&run.entry_counts)),
        (
            "server.shed_share",
            ratio(run.shed as f64, wire_requests as f64),
        ),
        ("contention.get_kops", beside_kops),
        ("contention.get_p50_us", beside.p50_us.at_reference.median),
        ("contention.slowdown_x", ratio(alone, beside_kops)),
    ];
    if let Some(traced) = &run.traced {
        // Over the wire a run can sit in either of the host's two wake-up
        // regimes and flip between them: the median window, not the quiet
        // decile, which would report whichever regime was faster.
        let p50_us = |p: &Phase| op_metrics(&p.windows, 1.0).p50_us.at_reference.median;
        let (beside, alone) = (p50_us(&traced.wire_get), p50_us(&traced.wire_get_alone));
        sourced.extend([
            ("server.get_p50_us", beside),
            ("server.put_p50_us", p50_us(&traced.wire_put)),
            ("server.get_alone_p50_us", alone),
            ("server.contention_x", ratio(beside, alone)),
        ]);
    }
    counter_metrics(&counted, &mut sourced);
    trace_metrics(t, &mut sourced);
    client_tails(&run.get, &run.put.windows, 1.0, &mut sourced);
    host_and_overhead(
        &run.get,
        run.traced.as_ref().map(|traced| &traced.get),
        &mut sourced,
    );
    per_layer(sourced, probes)
}
