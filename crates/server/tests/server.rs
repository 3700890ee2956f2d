//! End-to-end tests of the server: every opcode over the in-memory
//! transport, pipelined out-of-order completion, graceful shutdown
//! durability, corrupt-frame handling, admission-control shedding under
//! a stopped engine, and a TCP smoke test.

use std::io::{Read, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lsm_io::{MemStorage, Storage};
use lsm_server::protocol::{encode_request, MIN_FRAME};
use lsm_server::{
    tcp_connect, Client, ClientError, MemTransport, Request, Response, Server, ServerError,
    ServerOptions, TcpTransport,
};
use lsm_tree::sharding::ShardedDb;
use lsm_tree::{EventKind, Maintenance, Options, ShardedOptions, WriteBatch, WritePressure};
use rand::{RngCore, SeedableRng, StdRng};

/// `shards` range shards cut inside the small keys every test here writes
/// (two shards: at 4), so both hold data and a batch over keys 3 and 4
/// crosses the cut.
fn sharded(shards: usize, base: Options) -> ShardedOptions {
    ShardedOptions::learned(shards, (0..8).collect(), base)
}

fn mem_server(shards: usize) -> (Server, lsm_server::MemConnector) {
    let db = ShardedDb::open_memory(sharded(shards, Options::small_for_tests())).expect("open");
    let (connector, listener) = MemTransport::endpoint();
    let server = Server::start(db, Arc::new(listener), ServerOptions::default());
    (server, connector)
}

fn mem_server_with_obs(shards: usize) -> (Server, lsm_server::MemConnector) {
    let mut base = Options::small_for_tests();
    base.observability = true;
    let db = ShardedDb::open_memory(sharded(shards, base)).expect("open");
    let (connector, listener) = MemTransport::endpoint();
    let server = Server::start(db, Arc::new(listener), ServerOptions::default());
    (server, connector)
}

#[test]
fn every_opcode_roundtrips() {
    let (server, connector) = mem_server(2);
    let client = Client::new(connector.connect().expect("dial"));

    assert_eq!(client.get(1).expect("get missing"), None);
    let seq1 = client.put(1, b"one", false).expect("put");
    let seq2 = client.put(2, b"two", true).expect("durable put");
    assert!(seq2 > seq1, "commit sequences advance");
    assert_eq!(client.get(1).expect("get"), Some(b"one".to_vec()));

    let mut batch = WriteBatch::new();
    batch.put(3, b"three").put(4, b"four").delete(1);
    client.write_batch(batch, false).expect("batch");
    assert_eq!(client.get(1).expect("get deleted"), None);

    let pairs = client.scan(0, 10).expect("scan");
    assert_eq!(
        pairs.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
        vec![2, 3, 4]
    );

    // A wire SCAN is counted as one scan.
    let scans = || {
        let snap = client.metrics().expect("metrics");
        let scans = snap.counters.iter().find(|(n, _)| n == "scans");
        scans.map(|(_, v)| *v).expect("scans counter")
    };
    let before = scans();
    let pairs = client.scan(3, 10).expect("scan from a cut");
    assert_eq!(
        pairs.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
        vec![3, 4]
    );
    assert_eq!(scans(), before + 1);

    client.delete(2, false).expect("delete");
    assert_eq!(client.get(2).expect("get"), None);

    let snap = client.metrics().expect("metrics");
    let has = |name: &str| snap.counters.iter().any(|(n, _)| n == name);
    assert!(
        has("topology_epoch") && has("shard0_resident_bytes") && has("shard1_resident_bytes"),
        "the scrape should carry the sharded report: {:?}",
        snap.counters
    );

    server.close().expect("close");
}

#[test]
fn metrics_opcode_scrapes_histograms_and_events() {
    let (server, connector) = mem_server_with_obs(2);
    let client = Client::new(connector.connect().expect("dial"));

    for k in 0..500u64 {
        client.put(k, &[0xAB; 32], false).expect("put");
    }
    for k in (0..500u64).step_by(7) {
        client.get(k).expect("get");
    }
    client.scan(0, 64).expect("scan");

    let snap = client.metrics().expect("metrics");
    assert!(snap.enabled, "observability was requested at open");
    let counter = |name: &str| {
        snap.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("counter {name} missing"))
    };
    assert_eq!(counter("write_batches"), 500);
    assert!(counter("lookups") >= 72);
    // Per-op histograms recorded per shard and folded across shards:
    // the fold's count is the sum of the shard counts, and quantiles
    // are populated (merge of distributions, not averages).
    assert_eq!(snap.shards.len(), 2);
    let shard_writes: u64 = snap.shards.iter().map(|s| s.write.count).sum();
    assert_eq!(snap.total.write.count, shard_writes);
    assert_eq!(snap.total.write.count, 500);
    assert!(snap.total.write.p99_ns >= snap.total.write.p50_ns);
    assert!(snap.total.get.count >= 72);
    assert_eq!(snap.total.scan.count, 1);
    // The 500 writes crossed several flushes under small_for_tests, so
    // the event timeline must carry at least one paired flush span.
    let begins: Vec<_> = snap
        .events
        .iter()
        .filter(|e| e.kind == EventKind::FlushBegin)
        .collect();
    assert!(!begins.is_empty(), "expected flush events in the timeline");
    for b in &begins {
        assert!(
            snap.events
                .iter()
                .any(|e| e.kind == EventKind::FlushEnd && e.span == b.span),
            "flush span {} must close",
            b.span
        );
    }
    let text = snap.render_text();
    assert!(text.contains("lsm_op_latency_ns{op=\"write\",shard=\"all\",quantile=\"0.99\"}"));
    assert!(text.contains("kind=flush_begin"));

    // A second scrape sees a drained event buffer: events go to exactly one
    // consumer, while histograms and counters persist.
    let again = client.metrics().expect("metrics again");
    assert_eq!(again.total.write.count, 500);
    assert!(
        again
            .events
            .iter()
            .all(|e| !begins.iter().any(|b| b.span == e.span)),
        "drained events must not reappear"
    );

    server.close().expect("close");
}

#[test]
fn metrics_with_observability_off_reports_counters_only() {
    let (server, connector) = mem_server(1);
    let client = Client::new(connector.connect().expect("dial"));
    client.put(1, b"x", false).expect("put");
    let snap = client.metrics().expect("metrics");
    assert!(!snap.enabled);
    assert!(snap
        .counters
        .iter()
        .any(|(n, v)| n == "write_batches" && *v == 1));
    assert_eq!(snap.total.write.count, 0);
    assert!(snap.events.is_empty());
    let text = snap.render_text();
    assert!(text.contains("lsm_observability_enabled 0"));
    assert!(
        !text.contains("lsm_op_latency_ns{"),
        "no quantiles when off"
    );
    server.close().expect("close");
}

/// The one scrape carries the engine's counters and the sharding layer's
/// residency report. On a quiesced server (synchronous maintenance, one
/// client) the report equals `sharded_stats()`, and every name the retired
/// STATS JSON carried is a counter, less the two ratios (each a function of
/// carried counters).
#[test]
fn metrics_carries_the_sharded_report() {
    let (server, connector) = mem_server(2);
    let client = Client::new(connector.connect().expect("dial"));
    // Enough writes to flush and compact, so per-level counters scrape too.
    for k in 0..2_000u64 {
        client.put(k % 700, &[0xCD; 32], k % 64 == 0).expect("put");
    }
    for k in (0..700u64).step_by(5) {
        client.get(k).expect("get");
    }
    client.scan(0, 32).expect("scan");

    let metrics = client.metrics().expect("metrics");
    let names: Vec<&str> = metrics.counters.iter().map(|(n, _)| n.as_str()).collect();
    let counter = |name: &str| {
        let found = metrics.counters.iter().find(|(n, _)| n == name);
        found
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("{name} missing from {names:?}"))
    };
    let scraped_per_level = |wire: &str| {
        let is_level = |n: &&str| n.starts_with("level") && n.ends_with(wire);
        names.iter().any(is_level)
    };
    assert!(
        scraped_per_level("_reads") && scraped_per_level("_compact_bytes_written"),
        "the workload should reach the per-level counters: {names:?}"
    );
    // Every name of the STATS JSON this scrape replaced, less the two
    // ratios, the three per-shard lists (`shard_ids`, `resident_bytes`,
    // `resident_entries`), which are now one pair per shard, checked below,
    // and `subcompactions`, a counter since removed.
    const PARENT_KEYS: [&str; 15] = [
        "topology_epoch",
        "live_commit_markers",
        "lookups",
        "write_batches",
        "write_entries",
        "wal_syncs",
        "flushes",
        "compactions",
        "flush_bytes_written",
        "compact_bytes_read",
        "compact_bytes_written",
        "scans",
        "stall_slowdowns",
        "stall_stops",
        "shard_splits",
    ];
    for key in PARENT_KEYS {
        counter(key);
    }
    assert_eq!(counter("write_batches"), 2_000);
    assert_eq!(counter("shard_splits"), 0);
    assert!(counter("flush_bytes_written") > 0 && counter("compact_bytes_written") > 0);

    // Both shards' residency pairs, in routing order, right after the
    // report's two scalars, and equal to the engine's own report.
    let report = server.db().sharded_stats();
    assert_eq!(report.shard_ids.len(), 2);
    let at = names
        .iter()
        .position(|n| *n == "topology_epoch")
        .expect("epoch");
    let mut expected = vec![
        ("topology_epoch".to_string(), report.topology_epoch),
        (
            "live_commit_markers".to_string(),
            report.live_commit_markers as u64,
        ),
    ];
    for (pos, id) in report.shard_ids.iter().enumerate() {
        assert!(report.resident_bytes[pos] > 0, "shard {id} holds data");
        expected.push((
            format!("shard{id}_resident_bytes"),
            report.resident_bytes[pos],
        ));
        expected.push((
            format!("shard{id}_resident_entries"),
            report.resident_entries[pos],
        ));
    }
    assert_eq!(metrics.counters[at..], expected[..]);
    server.close().expect("close");
}

#[test]
fn metrics_interleave_consistently_under_pipelining() {
    let (server, connector) = mem_server_with_obs(2);
    let client = Client::new(connector.connect().expect("dial"));

    // Alternate writes with pipelined METRICS and SCAN submissions; the
    // two response kinds must answer out of order without cross-talk, and
    // each snapshot's write counter must be consistent with the writes
    // acknowledged before it was submitted (monotone, bounded by total).
    let mut probes: Vec<(u64, bool, u64)> = Vec::new(); // (id, is_metrics, acked_before)
    let mut acked = 0u64;
    for round in 0..20u64 {
        for k in 0..10u64 {
            client.put(round * 10 + k, b"v", false).expect("put");
            acked += 1;
        }
        let scan = Request::Scan {
            start: 0,
            limit: 1_000,
        };
        probes.push((client.submit(&scan).expect("submit scan"), false, acked));
        probes.push((
            client.submit(&Request::Metrics).expect("submit metrics"),
            true,
            acked,
        ));
    }
    let total = acked;
    let mut scans = 0u64;
    let mut last_metrics = 0u64;
    for (id, is_metrics, floor) in probes.into_iter().rev() {
        match (is_metrics, client.wait(id).expect("wait")) {
            (true, Response::Metrics(snap)) => {
                assert!(snap.enabled);
                let batches = snap
                    .counters
                    .iter()
                    .find(|(n, _)| n == "write_batches")
                    .map(|(_, v)| *v)
                    .expect("write_batches");
                assert!(
                    batches >= floor && batches <= total,
                    "metrics saw {batches}, acked floor {floor}, total {total}"
                );
                last_metrics = last_metrics.max(batches);
            }
            (false, Response::Entries(pairs)) => {
                assert!(
                    pairs.len() as u64 >= floor && pairs.len() as u64 <= total,
                    "scan saw {} keys, acked floor {floor}, total {total}",
                    pairs.len()
                );
                scans += 1;
            }
            (_, other) => panic!("probe answered {other:?}"),
        }
    }
    assert_eq!(scans, 20, "every SCAN probe answered as entries");
    assert_eq!(
        last_metrics, total,
        "the final metrics scrape saw every write"
    );
    server.close().expect("close");
}

#[test]
fn pipelined_responses_match_out_of_order_waits() {
    let (server, connector) = mem_server(2);
    let client = Client::new(connector.connect().expect("dial"));

    // Fill the store, then submit a burst of gets without waiting and
    // collect the responses in reverse submission order: the stash must
    // hand every id its own answer.
    for k in 0..50u64 {
        client
            .put(k, format!("v{k}").as_bytes(), false)
            .expect("put");
    }
    let ids: Vec<(u64, u64)> = (0..50u64)
        .map(|k| (k, client.submit(&Request::Get { key: k }).expect("submit")))
        .collect();
    for (k, id) in ids.into_iter().rev() {
        match client.wait(id).expect("wait") {
            Response::Value(Some(v)) => assert_eq!(v, format!("v{k}").into_bytes()),
            other => panic!("get {k} answered {other:?}"),
        }
    }
    server.close().expect("close");
}

#[test]
fn graceful_close_persists_every_acknowledged_durable_write() {
    let storage: Arc<dyn Storage> = Arc::new(MemStorage::new());
    let opts = || sharded(2, Options::small_for_tests());
    let db = ShardedDb::open(Arc::clone(&storage), opts()).expect("open");
    let (connector, listener) = MemTransport::endpoint();
    let server = Server::start(db, Arc::new(listener), ServerOptions::default());
    let client = Client::new(connector.connect().expect("dial"));

    for k in 0..200u64 {
        client
            .put(k, format!("durable-{k}").as_bytes(), true)
            .expect("acknowledged durable put");
    }
    // Acknowledged means applied: close drains in-flight work, then
    // releases the engine cleanly.
    server.close().expect("graceful close");

    let reopened = ShardedDb::open(storage, opts()).expect("reopen");
    for k in 0..200u64 {
        assert_eq!(
            reopened.get(k).expect("get"),
            Some(format!("durable-{k}").into_bytes()),
            "acknowledged write to key {k} must survive close + reopen"
        );
    }
    reopened.close().expect("close reopened");
}

#[test]
fn close_answers_in_flight_requests_before_releasing_the_engine() {
    let (server, connector) = mem_server(1);
    let client = Arc::new(Client::new(connector.connect().expect("dial")));
    // One round trip first: the connection must be accepted and its reader
    // registered before `close` starts, or this races thread start-up (a
    // connection still in the accept queue at close is refused, by design)
    // instead of testing the drain.
    assert_eq!(client.get(0).expect("warm-up get"), None);

    // Pipeline a pile of writes, then close concurrently. The in-memory
    // pipe delivers buffered frames before EOF, so the server reads all
    // of them even mid-shutdown — each must get a typed conclusion
    // (Committed if admitted before the drain began, ShuttingDown if
    // after), never silence or a torn frame.
    let ids: Vec<u64> = (0..100u64)
        .map(|k| {
            let mut batch = WriteBatch::new();
            batch.put(k, &[b'x'; 16]);
            client
                .submit(&Request::WriteBatch {
                    batch,
                    durable: false,
                })
                .expect("submit")
        })
        .collect();
    let closer = std::thread::spawn(move || server.close().expect("close"));
    let mut concluded = 0;
    for id in ids {
        match client.wait(id) {
            Ok(Response::Committed { .. }) | Ok(Response::Error(ServerError::ShuttingDown(_))) => {
                concluded += 1
            }
            Ok(other) => panic!("unexpected response {other:?}"),
            Err(e) => panic!("unexpected client error {e}"),
        }
    }
    closer.join().expect("closer panicked");
    assert_eq!(concluded, 100, "every request gets a typed conclusion");
}

/// A connection accepted just before `close` must still be EOFed by it: the
/// acceptor registers the connection before it spawns the reader, and
/// `close` joins the acceptor before it sweeps. (The reader used to
/// register itself; a `close` that swept in between then joined a reader
/// nobody would ever wake.) The client keeps its end open throughout, so
/// only `close` can end the reader.
#[test]
fn close_right_after_connect_never_hangs() {
    for round in 0..200u32 {
        let (server, connector) = mem_server(1);
        let _open = connector.connect().expect("dial");
        // Vary where in accept → spawn → first read the close lands.
        for _ in 0..round % 8 {
            std::thread::yield_now();
        }
        let (done, closed) = std::sync::mpsc::channel();
        std::thread::spawn(move || done.send(server.close()));
        closed
            .recv_timeout(Duration::from_secs(20))
            .unwrap_or_else(|_| panic!("round {round}: Server::close hung"))
            .expect("close");
    }
}

#[test]
fn corrupt_frames_get_typed_errors_or_clean_disconnects() {
    let (server, connector) = mem_server(1);

    // Unknown opcode, intact framing: typed BAD_REQUEST, connection
    // survives. 0x07 is the retired STATS an old client may still send;
    // 0x02 and 0x03 the retired single-key PUT (flags, key 1, value "v")
    // and DELETE (flags, key 1).
    let put: &[u8] = &[0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, b'v'];
    let delete: &[u8] = &[0, 1, 0, 0, 0, 0, 0, 0, 0];
    for (opcode, payload) in [
        (0x6f, &[0x00][..]),
        (0x07, &[][..]),
        (0x02, put),
        (0x03, delete),
    ] {
        let conn = connector.connect().expect("dial");
        let mut w = conn.writer;
        let mut body = Vec::new();
        body.extend_from_slice(&((MIN_FRAME + payload.len()) as u32).to_le_bytes());
        body.extend_from_slice(&77u64.to_le_bytes());
        body.push(opcode);
        body.extend_from_slice(payload);
        w.write_all(&body).expect("send");
        let client = Client::from_halves(conn.reader, w);
        match client.wait(77) {
            Ok(Response::Error(ServerError::BadRequest(m))) => {
                assert!(m.contains("unknown opcode"), "{m}")
            }
            other => panic!("opcode {opcode:#04x} answered {other:?}"),
        }
        // Still serviceable afterwards.
        let id = client.submit(&Request::Get { key: 0 }).expect("submit");
        assert!(matches!(client.wait(id), Ok(Response::Value(None))));
    }

    // Garbage payload under a valid opcode: typed BAD_REQUEST.
    {
        let conn = connector.connect().expect("dial");
        let mut w = conn.writer;
        let mut payload = vec![0u8]; // flags
        payload.extend_from_slice(&1u32.to_le_bytes()); // count
        payload.push(0); // put
        payload.extend_from_slice(&1u64.to_le_bytes());
        payload.extend_from_slice(&u32::MAX.to_le_bytes()); // value-length lie
        let mut body = Vec::new();
        body.extend_from_slice(&((MIN_FRAME + payload.len()) as u32).to_le_bytes());
        body.extend_from_slice(&5u64.to_le_bytes());
        body.push(0x04); // WRITE_BATCH
        body.extend_from_slice(&payload);
        w.write_all(&body).expect("send");
        let client = Client::from_halves(conn.reader, w);
        match client.wait(5) {
            Ok(Response::Error(ServerError::BadRequest(_))) => {}
            other => panic!("garbage payload answered {other:?}"),
        }
    }

    // Oversized declared length: framing is untrustworthy, the server
    // must disconnect (EOF on our read side), not hang or panic.
    {
        let conn = connector.connect().expect("dial");
        let mut w = conn.writer;
        w.write_all(&u32::MAX.to_le_bytes()).expect("send");
        // The server may hang up as soon as it has read the length.
        let _ = w.write_all(&[0u8; 64]);
        let mut r = conn.reader;
        let mut buf = [0u8; 16];
        assert_eq!(r.read(&mut buf).expect("read"), 0, "expected clean EOF");
    }

    // Truncated frame then writer close: server must just drop the
    // connection.
    {
        let conn = connector.connect().expect("dial");
        let teardown = conn.both_shutdown_handle();
        let mut w = conn.writer;
        let mut body = Vec::new();
        body.extend_from_slice(&100u32.to_le_bytes());
        body.extend_from_slice(&[1, 2, 3]); // 3 of the declared 100 bytes
        w.write_all(&body).expect("send");
        teardown();
    }

    // Seeded random garbage: whatever happens per connection, the server
    // neither panics nor wedges.
    let mut rng = StdRng::seed_from_u64(0xF00D);
    for _ in 0..32 {
        let conn = connector.connect().expect("dial");
        let teardown = conn.both_shutdown_handle();
        let mut w = conn.writer;
        let n = (rng.next_u64() % 256 + 1) as usize;
        let mut junk = vec![0u8; n];
        for b in &mut junk {
            *b = rng.next_u64() as u8;
        }
        let _ = w.write_all(&junk);
        teardown();
    }

    // After all that abuse a fresh connection still works end to end.
    let client = Client::new(connector.connect().expect("dial"));
    client.put(9, b"alive", false).expect("put");
    assert_eq!(client.get(9).expect("get"), Some(b"alive".to_vec()));
    server.close().expect("close");
}

#[test]
fn stopped_engine_sheds_writes_with_retry_after_instead_of_stalling() {
    // Background maintenance with flushes paused: applied writes pile up
    // memtables until the engine would hard-stall its writers. The
    // server must convert that into RETRY_AFTER sheds at the edge.
    let mut base = Options::small_for_tests();
    base.maintenance = Maintenance::background();
    let db = ShardedDb::open_memory(sharded(1, base)).expect("open");
    let (connector, listener) = MemTransport::endpoint();
    let server = Server::start(db, Arc::new(listener), ServerOptions::default());
    server.db().pause_flushes();

    let client = Client::new(connector.connect().expect("dial"));
    // Must fit the 32-byte table value slot of `small_for_tests`, or the
    // resumed flush itself would fail.
    let value = vec![0xABu8; 32];

    // Closed-loop writes (one at a time, so no request can be admitted
    // before the pressure it causes is visible): the write buffer is
    // 16 KiB in test options, so a few hundred 32-byte puts fill the
    // active memtable and the (paused) immutable queue. The put that
    // would have stalled inside the engine must come back as a typed
    // RETRY_AFTER within the deadline instead — shed, not stall.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut shed = 0u64;
    let mut committed = 0u64;
    let mut key = 0u64;
    while shed == 0 {
        assert!(
            Instant::now() < deadline,
            "no RETRY_AFTER shed observed ({committed} puts committed)"
        );
        match client.put(key, &value, false) {
            Ok(_) => committed += 1,
            Err(ClientError::Remote(ServerError::RetryAfter { ms })) => {
                assert!(ms > 0, "retry hint must be positive");
                shed += 1;
            }
            Err(e) => panic!("unexpected put failure: {e}"),
        }
        key += 1;
    }
    assert!(committed > 0, "puts before the stop must succeed");
    assert!(server.shed_count() > 0, "server must count its sheds");
    // A read meets no write pressure: it is admitted while writes shed.
    assert_eq!(server.db().write_pressure(), WritePressure::Stop);
    assert_eq!(
        client.get(0).expect("get while stopped"),
        Some(value.clone())
    );

    // Un-pause: the engine drains, and retrying eventually succeeds — a
    // shed was a backoff signal, not a failure.
    server.db().resume_flushes();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match client.put(u64::MAX, b"after", false) {
            Ok(_) => break,
            Err(ClientError::Remote(ServerError::RetryAfter { ms })) => {
                assert!(
                    Instant::now() < deadline,
                    "engine never recovered after resume_flushes"
                );
                std::thread::sleep(Duration::from_millis(u64::from(ms).max(5)));
            }
            Err(e) => panic!("post-recovery put failed: {e}"),
        }
    }
    assert_eq!(
        client.get(u64::MAX).expect("get"),
        Some(b"after".to_vec()),
        "recovered write must be readable"
    );
    server.close().expect("close");
}

#[test]
fn tcp_transport_smoke() {
    let db = ShardedDb::open_memory(sharded(2, Options::small_for_tests())).expect("open");
    let transport = TcpTransport::bind("127.0.0.1:0").expect("bind");
    let addr = transport.local_addr().to_string();
    let server = Server::start(db, Arc::new(transport), ServerOptions::default());

    let client = Client::new(tcp_connect(&addr).expect("dial"));
    client.put(42, b"over tcp", true).expect("put");
    assert_eq!(client.get(42).expect("get"), Some(b"over tcp".to_vec()));
    assert_eq!(client.scan(0, 10).expect("scan").len(), 1);
    server.close().expect("close");
}

#[test]
fn requests_after_frame_cap_are_rejected_not_buffered() {
    // A frame larger than the server cap must kill the connection before
    // the server allocates for it.
    let db = ShardedDb::open_memory(sharded(1, Options::small_for_tests())).expect("open");
    let (connector, listener) = MemTransport::endpoint();
    let server = Server::start(db, Arc::new(listener), ServerOptions { max_frame: 1 << 10 });
    let conn = connector.connect().expect("dial");
    let mut w = conn.writer;
    let mut batch = WriteBatch::new();
    batch.put(1, &[0u8; 4 << 10]);
    let mut buf = Vec::new();
    encode_request(
        &mut buf,
        1,
        &Request::WriteBatch {
            batch,
            durable: false,
        },
    );
    w.write_all(&buf).expect("send");
    let mut r = conn.reader;
    let mut byte = [0u8; 1];
    assert_eq!(r.read(&mut byte).expect("read"), 0, "expected disconnect");
    server.close().expect("close");
}
