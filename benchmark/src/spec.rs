//! The benchmark's contract in one place: workloads, sizes, and every
//! metric's name, unit, direction and bound. `BENCHMARK.json` at the repo
//! root lists the same names; a unit test keeps the two in step.

use std::time::Duration;

use lsm_workloads::RequestDistribution;

use crate::gen;
use crate::inproc::InProc;
use crate::probes::KINDS;
use crate::shard_mixed::ShardMixed;

/// Seconds one run measures when `--seconds` is not given
/// (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: f64 = 15.0;
/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;
pub const DEFAULT_SEED: u64 = 42;
/// `--smoke` divides key counts by this and measures for `SMOKE_SECONDS`.
pub const SMOKE_DIVISOR: usize = 16;
pub const SMOKE_SECONDS: f64 = 0.6;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "get-hot",
        why: "zipfian gets on a tree that fits the cache: the read CPU path does all the work, device and eviction none",
    },
    Workload {
        name: "get-cold",
        why: "uniform gets on the same tree with data 17x the cache: block misses, evictions and device reads dominate",
    },
    Workload {
        name: "ingest-scan",
        why: "identical load rounds then scans: writer queue, WAL, memtable, flush, table build, index training, compaction, merge iterator",
    },
    Workload {
        name: "shard-mixed",
        why: "a reader, then a durable writer beside it, on a 2-shard engine under background maintenance: routing, merge, group commit, sync, lock contention",
    },
];

pub enum Sizes {
    InProc(InProc),
    Mixed(ShardMixed),
}

/// The fixed sizes of `workload` (key counts divided by `divisor`).
pub fn sizes(workload: &str, divisor: usize) -> Option<Sizes> {
    // 512 Ki entries x 136 B = 68 MiB in 3 levels (4 MiB buffer, 2 MiB tables).
    let tree = InProc {
        keys: 512 * 1024 / divisor,
        write_buffer_bytes: (4 << 20) / divisor,
        sstable_bytes: (2 << 20) / divisor as u64,
        cache_bytes: 0,
        get_dist: RequestDistribution::Uniform,
        load_is_setup: true,
        put_share: 0.0,
        get_share: 0.7,
        scan_share: 0.3,
    };
    Some(match workload {
        "get-hot" => Sizes::InProc(InProc {
            cache_bytes: (192 << 20) / divisor,
            get_dist: gen::zipfian(),
            ..tree
        }),
        "get-cold" => Sizes::InProc(InProc {
            cache_bytes: (4 << 20) / divisor,
            ..tree
        }),
        // 148 Ki entries = 18.5 write buffers: every round ends with a
        // half-full memtable, two L0 tables and two deeper levels.
        "ingest-scan" => Sizes::InProc(InProc {
            keys: 148 * 1024 / divisor,
            write_buffer_bytes: (1 << 20) / divisor,
            sstable_bytes: (512 << 10) / divisor as u64,
            cache_bytes: (2 << 20) / divisor,
            get_dist: RequestDistribution::Uniform,
            load_is_setup: false,
            put_share: 0.55,
            get_share: 0.2,
            scan_share: 0.25,
        }),
        // 256 Ki entries = 34 MiB against an 8 MiB cache. The writer adds
        // ~6 MiB in a run; 256 KiB buffers make that ~10 background flushes
        // and 2 compactions per shard, so maintenance cycles several times
        // beside the reader within the run.
        "shard-mixed" => Sizes::Mixed(ShardMixed {
            keys: 256 * 1024 / divisor,
            write_buffer_bytes: (256 << 10) / divisor,
            sstable_bytes: (256 << 10) / divisor as u64,
            cache_bytes: (8 << 20) / divisor,
            warmup: Duration::from_millis(if divisor == 1 { 500 } else { 100 }),
            alone: Duration::from_millis(if divisor == 1 { 1000 } else { 200 }),
        }),
        _ => return None,
    })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

use Better::{Higher, Lower};

pub const END_TO_END: [EndToEnd; 12] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("get_kops", "kops/s", Higher, 0.25),
    e2e("get_p50_us", "us", Lower, 0.25),
    e2e("get_model_us", "us", Lower, 0.25),
    e2e("put_kops", "kops/s", Higher, 0.25),
    e2e("put_p50_us", "us", Lower, 0.25),
    e2e("scan_kops", "kops/s", Higher, 0.25),
    e2e("scan_p50_us", "us", Lower, 0.25),
    e2e("scan_model_us", "us", Lower, 0.25),
    e2e("write_amp", "ratio", Lower, 0.03),
    e2e("space_amp", "ratio", Lower, 0.03),
    e2e("index_b_per_key", "bytes", Lower, 0.1),
];

/// Where a per-layer number comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Difference of public counters around the untraced windows.
    Counters,
    /// Span time from the traced windows.
    Trace,
    /// Isolated probe of the layer's public function.
    Probe,
}

impl Source {
    pub fn as_str(self) -> &'static str {
        match self {
            Source::Counters => "C",
            Source::Trace => "T",
            Source::Probe => "P",
        }
    }
}

pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    pub source: Source,
}

pub fn per_layer() -> Vec<PerLayer> {
    use Source::{Counters as C, Probe as P, Trace as T};
    let mut out = Vec::new();
    let mut add = |name: &str, unit, better, source| {
        out.push(PerLayer {
            name: name.to_string(),
            unit,
            better,
            source,
        })
    };
    for (metric, unit) in [
        ("predict_ns", "ns"),
        ("build_ns_per_key", "ns"),
        ("bytes_per_key", "bytes"),
        ("bound_len", "entries"),
    ] {
        for (kind, _) in KINDS {
            add(&format!("learned.{metric}.{kind}"), unit, Lower, P);
        }
    }
    for (name, unit, better, source) in [
        ("client.get_p99_us", "us", Lower, C),
        ("client.put_p99_us", "us", Lower, C),
        ("version.locate_ns", "ns", Lower, T),
        ("version.tables_probed_per_get", "count", Lower, T),
        ("bloom.probe_ns", "ns", Lower, P),
        ("bloom.checks_per_get", "count", Lower, C),
        ("bloom.negative_share", "share", Higher, C),
        ("bloom.false_positive_share", "share", Lower, C),
        ("sstable.get_ns", "ns", Lower, T),
        ("sstable.fetch_search_ns", "ns", Lower, T),
        ("sstable.build_ns_per_entry", "ns", Lower, P),
        ("cache.block_hit_share", "share", Higher, C),
        ("cache.evictions_per_get", "count", Lower, C),
        ("cache.used_share", "share", Lower, C),
        ("cache.hit_ns", "ns", Lower, P),
        ("cache.miss_fill_ns", "ns", Lower, P),
        ("io.read_calls_per_get", "count", Lower, C),
        ("io.read_blocks_per_get", "count", Lower, C),
        ("io.read_model_ns_per_get", "ns", Lower, C),
        ("io.read_blocks_per_scan", "count", Lower, C),
        ("io.write_calls_per_kentry", "count", Lower, C),
        ("io.write_model_ns_per_entry", "ns", Lower, C),
        ("memtable.hit_share", "share", Higher, C),
        ("memtable.apply_ns_per_entry", "ns", Lower, P),
        ("memtable.get_ns", "ns", Lower, P),
        ("wal.append_ns_per_entry", "ns", Lower, P),
        ("wal.bytes_per_user_byte", "ratio", Lower, C),
        ("wal.syncs_per_put", "count", Lower, C),
        ("wal.sync_us", "us", Lower, P),
        ("db.get_self_ns", "ns", Lower, T),
        ("db.write_self_ns", "ns", Lower, T),
        ("db.group_size", "count", Higher, C),
        ("db.stall_ms", "ms", Lower, C),
        ("db.flushes", "count", Lower, C),
        ("compaction.count", "count", Lower, C),
        ("compaction.busy_share", "share", Lower, C),
        ("compaction.train_share", "share", Lower, C),
        ("compaction.read_bytes_per_user_byte", "ratio", Lower, C),
        ("compaction.write_bytes_per_user_byte", "ratio", Lower, C),
        ("iter.seek_ns", "ns", Lower, T),
        ("iter.next_ns", "ns", Lower, T),
        ("iter.sources", "count", Lower, C),
        ("sharding.route_ns", "ns", Lower, P),
        ("sharding.get_overhead_ns", "ns", Lower, T),
        ("sharding.entry_imbalance", "share", Lower, C),
        ("contention.get_kops", "kops/s", Higher, C),
        ("contention.get_p50_us", "us", Lower, C),
        ("contention.slowdown_x", "ratio", Lower, C),
        ("protocol.encode_ns", "ns", Lower, P),
        ("protocol.decode_ns", "ns", Lower, P),
        ("server.rtt_self_us", "us", Lower, T),
        ("server.shed_share", "share", Lower, C),
        ("server.get_p50_us", "us", Lower, T),
        ("server.put_p50_us", "us", Lower, T),
        ("server.get_alone_p50_us", "us", Lower, T),
        ("server.contention_x", "ratio", Lower, T),
        ("tier.db.get_ns", "ns", Lower, P),
        ("tier.sharded.get_ns", "ns", Lower, P),
        ("tier.server_mem.get_us", "us", Lower, P),
        ("tier.server_tcp.get_us", "us", Lower, P),
        ("tier.file.get_ns", "ns", Lower, P),
        ("tier.db.get_kops_beside_writer", "kops/s", Higher, P),
        ("obs.overhead_share", "share", Lower, P),
        ("trace.overhead_share", "share", Lower, T),
        ("trace.closure_get", "share", Higher, T),
        ("trace.closure_put", "share", Higher, T),
        ("trace.closure_rpc", "share", Higher, T),
        ("host.nproc", "count", Higher, C),
        ("host.window_spread", "share", Lower, C),
        ("host.reference_cost", "ratio", Lower, P),
        ("host.peak_rss_mb", "MB", Lower, C),
    ] {
        add(name, unit, better, source);
    }
    out
}

/// The contents of `BENCHMARK.json` (`bench spec` prints it).
pub fn benchmark_json() -> serde_json::Value {
    use serde_json::Value;
    let object = |fields: Vec<(&str, Value)>| {
        Value::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    };
    let text = |s: &str| Value::String(s.to_string());
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
        "run",
    ];
    object(vec![
        (
            "command",
            Value::Array(command.into_iter().map(text).collect()),
        ),
        ("paths", Value::Array(vec![text("benchmark")])),
        ("run_seconds", Value::Number(RUN_SECONDS)),
        (
            "workloads",
            Value::Array(
                WORKLOADS
                    .iter()
                    .map(|w| object(vec![("name", text(w.name)), ("why", text(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(
                END_TO_END
                    .iter()
                    .map(|m| {
                        object(vec![
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.as_str())),
                            ("bound", Value::Number(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Array(
                per_layer()
                    .iter()
                    .map(|m| {
                        object(vec![
                            ("name", text(m.name.as_str())),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    /// `BENCHMARK.json` is what `bench spec` prints: it names exactly the
    /// workloads and metrics of this file, within the contract's limits.
    #[test]
    fn benchmark_json_matches_the_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let json: Value = serde_json::from_str(&text).expect("valid JSON");
        assert!(
            json == benchmark_json(),
            "BENCHMARK.json is stale: regenerate it with `bench spec > BENCHMARK.json`"
        );
        assert!(text.len() <= 64 * 1024);
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200));
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(per_layer().len() <= 128);
        assert!((1.0..=60.0).contains(&RUN_SECONDS) && RUN_SECONDS.fract() == 0.0);
    }

    #[test]
    fn every_workload_has_sizes_and_names_are_unique() {
        for w in &WORKLOADS {
            assert!(sizes(w.name, 1).is_some() && sizes(w.name, SMOKE_DIVISOR).is_some());
        }
        assert!(sizes("no-such-workload", 1).is_none());
        let mut all: Vec<String> = END_TO_END.iter().map(|m| m.name.to_string()).collect();
        all.extend(per_layer().into_iter().map(|m| m.name));
        let count = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), count);
        assert!(all.iter().all(|n| n.len() <= 64));
    }
}
