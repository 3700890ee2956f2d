//! Acceptance: the six YCSB mixes end-to-end through the network front
//! end — frame protocol, in-memory transport, reader threads, admission
//! control, worker pool, pipelined client, open-loop latency recording.

use learned_lsm_repro::bench::{runner, Scale};
use learned_lsm_repro::index::IndexKind;
use learned_lsm_repro::workloads::Dataset;

#[test]
fn all_six_ycsb_mixes_run_through_the_server_path() {
    let scale = Scale::smoke();
    let (records, stats, metrics) = runner::ycsb_server(
        &scale,
        Dataset::Random,
        2,
        IndexKind::Pgm,
        0xacce,
        None,
        0,
        false,
    )
    .expect("server ycsb at smoke scale");
    assert!(metrics.is_none(), "no scrape without observability");

    let names: Vec<&str> = records.iter().map(|r| r.workload.as_str()).collect();
    assert_eq!(names, ["A", "B", "C", "D", "E", "F"], "all six mixes ran");

    for r in &records {
        assert!(r.requests > 0, "YCSB-{} drove no requests", r.workload);
        assert_eq!(
            r.errors, 0,
            "YCSB-{} hit non-shed server errors",
            r.workload
        );
        assert!(
            r.achieved_rate > 0.0 && r.target_rate > 0.0,
            "YCSB-{} rates must be positive",
            r.workload
        );
        assert!(
            r.p50_us <= r.p99_us && r.p99_us <= r.p999_us,
            "YCSB-{} quantiles out of order: p50={} p99={} p99.9={}",
            r.workload,
            r.p50_us,
            r.p99_us,
            r.p999_us
        );
        assert!(r.max_us >= r.p999_us, "YCSB-{} max below p99.9", r.workload);
    }

    // Satellite: the sharded-stats report travels through the STATS opcode.
    for field in ["topology_epoch", "shard_ids", "resident_bytes", "lookups"] {
        assert!(
            stats.contains(&format!("\"{field}\"")),
            "stats JSON missing {field}: {stats}"
        );
    }
}

#[test]
fn explicit_rate_is_honored_as_the_schedule() {
    let mut scale = Scale::smoke();
    scale.ops = 400;
    let (records, _, _) = runner::ycsb_server(
        &scale,
        Dataset::Random,
        1,
        IndexKind::Pgm,
        0xbee5,
        Some(20_000.0),
        0,
        false,
    )
    .expect("fixed-rate server ycsb");
    for r in &records {
        assert_eq!(
            r.target_rate, 20_000.0,
            "YCSB-{} ignored --rate",
            r.workload
        );
        assert_eq!(r.errors, 0, "YCSB-{} hit server errors", r.workload);
    }
}
