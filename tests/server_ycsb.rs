//! Acceptance: the six YCSB mixes end-to-end through the network front
//! end — frame protocol, in-memory transport, reader threads, admission
//! control, worker pool and the pipelined client — over a 2-shard engine.

use std::sync::Arc;

use learned_lsm_repro::index::IndexKind;
use learned_lsm_repro::io::CostModel;
use learned_lsm_repro::lsm::{
    Maintenance, Options, ShardedDb, ShardedOptions, WriteBatch, WriteOptions,
};
use learned_lsm_repro::server::protocol::{Request, Response, ServerError};
use learned_lsm_repro::server::{Client, MemTransport, Server, ServerOptions, MAX_SCAN_LIMIT};
use learned_lsm_repro::workloads::{value_for_key, Dataset, Op, YcsbSpec, YcsbWorkload};

const KEYS: usize = 20_000;
const OPS: usize = 2_000;
const VALUE_WIDTH: usize = 32;
/// Requests in flight per window: below the server's window for reads,
/// so a GET or SCAN is never shed by admission control.
const WINDOW: usize = 32;

/// Background maintenance, so writes in the mix meet real flushes,
/// compactions and write pressure.
fn engine_options() -> Options {
    let mut o = Options::default();
    o.index.kind = IndexKind::Pgm;
    o.value_width = VALUE_WIDTH;
    o.write_buffer_bytes = 128 << 10;
    o.sstable_target_bytes = 128 << 10;
    o.maintenance = Maintenance::Background;
    o
}

/// Expand one YCSB op into wire requests. Read-modify-write becomes a GET
/// and then a one-put WRITE_BATCH, as a real client sends it.
fn push_requests(reqs: &mut Vec<Request>, op: Op) {
    let put = |key: u64, value_key: u64| {
        let mut batch = WriteBatch::with_capacity(1);
        batch.put(key, &value_for_key(value_key, VALUE_WIDTH));
        Request::WriteBatch {
            batch,
            durable: false,
        }
    };
    match op {
        Op::Read(k) => reqs.push(Request::Get { key: k }),
        Op::Update(k) | Op::Insert(k) => reqs.push(put(k, k)),
        Op::Scan(k, len) => reqs.push(Request::Scan {
            start: k,
            limit: len.min(MAX_SCAN_LIMIT) as u32,
        }),
        Op::ReadModifyWrite(k) => {
            reqs.push(Request::Get { key: k });
            reqs.push(put(k, k ^ 1));
        }
    }
}

/// A fresh 2-shard engine whose range router is trained on a sample of
/// the workload's keys, loaded with them in batched writes straight into
/// the engine.
fn loaded_engine(workload: &YcsbWorkload) -> ShardedDb {
    let opts = ShardedOptions::learned(2, workload.router_sample(16), engine_options());
    let db = ShardedDb::open_sim(opts, CostModel::default()).expect("open");
    for chunk in workload.keys().chunks(512) {
        let mut batch = WriteBatch::with_capacity(chunk.len());
        for &k in chunk {
            batch.put(k, &value_for_key(k, VALUE_WIDTH));
        }
        db.write(batch, &WriteOptions::default()).expect("load");
    }
    db.flush().expect("flush the load");
    db
}

#[test]
fn all_six_ycsb_mixes_run_through_the_server_path() {
    let keys = Dataset::Random.generate(KEYS, 0xacce);
    let mut metrics = None;
    for spec in YcsbSpec::ALL {
        let name = spec.name();
        let mut workload = YcsbWorkload::new(spec, keys.clone(), 0xacce ^ 0xc5);
        let db = loaded_engine(&workload);
        let (connector, listener) = MemTransport::endpoint();
        let server = Server::start(db, Arc::new(listener), ServerOptions::default());
        let client = Client::new(connector.connect().expect("dial"));

        let ops = if matches!(spec, YcsbSpec::E) {
            OPS / 10
        } else {
            OPS
        };
        let mut reqs = Vec::with_capacity(ops + ops / 2);
        for _ in 0..ops {
            push_requests(&mut reqs, workload.next_op());
        }
        assert!(!reqs.is_empty(), "YCSB-{name} drove no requests");

        // Only the loaded set is checked: pipelining may run a GET of a
        // key inserted in the mix before the PUT that inserts it.
        let loaded = workload.keys();
        for window in reqs.chunks(WINDOW) {
            let ids: Vec<u64> = window
                .iter()
                .map(|r| client.submit(r).expect("submit"))
                .collect();
            for (req, id) in window.iter().zip(ids) {
                let resp = client.wait(id).expect("wait");
                match (req, &resp) {
                    (Request::Get { key }, Response::Value(v)) => assert!(
                        v.is_some() || loaded.binary_search(key).is_err(),
                        "YCSB-{name}: loaded key {key} answered None"
                    ),
                    (Request::Scan { .. }, Response::Entries(_)) => {}
                    (Request::WriteBatch { .. }, Response::Committed { .. }) => {}
                    (
                        Request::WriteBatch { .. },
                        Response::Error(ServerError::RetryAfter { .. }),
                    ) => {}
                    _ => panic!("YCSB-{name}: {req:?} answered {resp:?}"),
                }
            }
        }
        metrics = Some(client.metrics().expect("metrics scrape"));
        server.close().expect("graceful close");
    }

    // The sharded report travels in the METRICS scrape: the epoch, a
    // residency pair per shard, and the engine counters.
    let metrics = metrics.expect("six mixes ran");
    assert!(!metrics.enabled, "no histograms without observability");
    let counter = |name: &str| metrics.counters.iter().find(|(n, _)| n == name);
    assert!(
        counter("topology_epoch").is_some(),
        "{:?}",
        metrics.counters
    );
    assert!(counter("lookups").is_some_and(|(_, v)| *v > 0));
    let resident = metrics
        .counters
        .iter()
        .filter(|(n, _)| n.starts_with("shard") && n.ends_with("_resident_bytes"));
    assert_eq!(resident.count(), 2, "{:?}", metrics.counters);
}
