//! `shard-mixed`: a reader, then the reader beside a durable writer, each
//! on its own thread, against a 2-shard learned-range `ShardedDb` under
//! background maintenance.
//!
//! The only workload with shard routing, the cross-shard merge, group
//! commit + realized sync, background flushes and compactions, and
//! reader-vs-writer lock contention on the path. Closed-loop callers.
//!
//! What is end-to-end here is what repeats from run to run: the reader's
//! GETs and SCANs while it runs alone, and the writer's durable PUTs while
//! the reader runs beside it. The reader's numbers *beside* the writer are
//! per-layer (`contention.*`): they swing by 2–3× between runs of the same
//! commit, because they are set by how the writer's 100 µs sync sleeps
//! happen to line up with the reader.
//!
//! The engine sits behind a `Server` on loopback TCP, but the end-to-end
//! numbers are taken in process, through `Server::db()`: on a shared 2-vCPU
//! host a single-outstanding request over a socket measures how fast the
//! hypervisor wakes a sleeping thread, which sits in one of two regimes per
//! run (GET p50 36 µs or 90–130 µs). The traced run drives the same two
//! streams over the wire as well and reports the server's numbers as
//! per-layer metrics (`server.*`).

use std::sync::Arc;
use std::time::{Duration, Instant};

use lsm_io::{CostModel, SimStorage, Storage};
use lsm_server::protocol::{
    decode_request, decode_response, encode_request, encode_response, read_frame, Request,
    Response, DEFAULT_MAX_FRAME,
};
use lsm_server::{tcp_connect, Client, Server, ServerOptions, TcpTransport};
use lsm_tree::{Maintenance, ShardedDb, ShardedOptions, WriteBatch, WriteOptions};
use lsm_workloads::value_for_key;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::calib::{Calibrator, Cost};
use crate::closed_loop::{closed_loop, Phase};
use crate::gen::{self, Data, VALUE_LEN};
use crate::inproc::{
    engine_options, stored_bytes, Counters, BURST_EVERY, REOPEN_SAMPLE, SCAN_LEN, STREAM_LEN,
};
use crate::trace::Tracer;

pub const SHARDS: usize = 2;
/// Realized latency of every WAL sync (an NVMe FLUSH), nanoseconds.
pub const SYNC_NS: u64 = 100_000;
/// Share of the reader's requests that are SCANs; the rest are GETs.
pub const SCAN_SHARE: f64 = 0.05;
/// High bit of a read-stream entry: this request is a SCAN.
const SCAN_FLAG: u32 = 1 << 31;
/// Window length in process: ≈9 k GETs, ≈450 SCANs and ≈300 PUTs each.
pub const WINDOW: Duration = Duration::from_millis(50);
/// Window length over the wire (≈2 k GETs and ≈1.5 k PUTs each).
pub const WIRE_WINDOW: Duration = Duration::from_millis(500);

#[derive(Debug, Clone)]
pub struct ShardMixed {
    pub keys: usize,
    pub write_buffer_bytes: usize,
    pub sstable_bytes: u64,
    pub cache_bytes: usize,
    /// The reader runs this long before the measured windows (set-up).
    pub warmup: Duration,
    /// A traced run only: how long the wire-level reader then runs alone.
    pub alone: Duration,
}

/// The value the writer's `stamp`-th operation stores under `key`: the
/// key's deterministic payload with the stamp in its first 8 bytes.
pub fn stamped_value(key: u64, stamp: u64) -> Vec<u8> {
    let mut v = value_for_key(key, VALUE_LEN);
    v[..8].copy_from_slice(&stamp.to_le_bytes());
    v
}

/// The stamp of a stored value, if the value is a valid one for `key`.
pub fn stamp_of(key: u64, value: &[u8]) -> Option<u64> {
    (value.len() == VALUE_LEN && value[8..] == value_for_key(key, VALUE_LEN)[8..])
        .then(|| u64::from_le_bytes(value[..8].try_into().expect("8 bytes")))
}

fn sharded_options(cfg: &ShardMixed, data: &Data, maintenance: Maintenance) -> ShardedOptions {
    let mut base = engine_options(cfg.write_buffer_bytes, cfg.sstable_bytes, cfg.cache_bytes);
    base.maintenance = maintenance;
    // Every 64th key: plenty for two balanced range cuts.
    let sample = data.keys.iter().step_by(64).copied().collect();
    ShardedOptions::learned(SHARDS, sample, base)
}

/// A preloaded engine behind a server, with one connection per caller.
pub struct Served {
    pub data: Data,
    pub reads: Vec<u32>,
    pub writes: Vec<u32>,
    pub storage: Arc<SimStorage>,
    pub server: Server,
    pub reader: Client,
    pub writer: Client,
    /// Device and engine counters of the preload (fresh device: absolute).
    pub preload: Counters,
    pub preload_stored_bytes: u64,
    pub index_bytes: usize,
    pub preload_failed: u64,
}

pub fn merged_counters(db: &ShardedDb, storage: &SimStorage) -> Counters {
    Counters {
        db: db.stats(),
        io: storage.stats().snapshot(),
    }
}

/// Generate inputs, preload under synchronous maintenance (so the tree and
/// its device counts repeat exactly), reopen under background maintenance,
/// start the server and dial both connections.
///
/// Calibration bursts run along the way, every `BURST_EVERY` preload
/// batches; their costs go to `hosts`.
pub fn set_up(
    cfg: &ShardMixed,
    seed: u64,
    calib: &mut Calibrator,
    hosts: &mut Vec<Cost>,
) -> Served {
    let data = Data::generate(cfg.keys, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x72);
    let reads = gen::stream(&data, gen::zipfian(), STREAM_LEN, seed ^ 0x67)
        .into_iter()
        .map(|pos| {
            if rng.gen::<f64>() < SCAN_SHARE {
                pos | SCAN_FLAG
            } else {
                pos
            }
        })
        .collect();
    let writes = gen::stream(&data, gen::zipfian(), STREAM_LEN, seed ^ 0x77);

    let storage = Arc::new(SimStorage::new(CostModel::with_sync_latency(SYNC_NS)));
    let dyn_storage = Arc::clone(&storage) as Arc<dyn Storage>;
    let db = ShardedDb::open(
        Arc::clone(&dyn_storage),
        sharded_options(cfg, &data, Maintenance::Synchronous),
    )
    .expect("open on an empty device");
    let wopts = WriteOptions::default();
    let mut preload_failed = 0;
    for (i, chunk) in data.order.chunks(gen::BATCH).enumerate() {
        let mut batch = WriteBatch::with_capacity(chunk.len());
        for &pos in chunk {
            let key = data.keys[pos as usize];
            batch.put(key, &stamped_value(key, 0));
        }
        preload_failed += u64::from(db.write(batch, &wopts).is_err());
        if (i + 1) % BURST_EVERY == 0 {
            hosts.push(calib.burst());
        }
    }
    db.flush().expect("flush");
    let preload = merged_counters(&db, &storage);
    let preload_stored_bytes = stored_bytes(storage.as_ref());
    db.close().expect("close after preload");

    let db = ShardedDb::open(
        dyn_storage,
        sharded_options(cfg, &data, Maintenance::background()),
    )
    .expect("reopen under background maintenance");
    let index_bytes = (0..db.shard_count())
        .map(|s| db.shard(s).index_memory_bytes())
        .sum();
    let listener = TcpTransport::bind("127.0.0.1:0").expect("bind loopback");
    let server = Server::start(db, Arc::new(listener), ServerOptions::default());
    let dial = || Client::new(tcp_connect(&server.addr()).expect("dial loopback"));
    let (reader, writer) = (dial(), dial());
    Served {
        data,
        reads,
        writes,
        storage,
        server,
        reader,
        writer,
        preload,
        preload_stored_bytes,
        index_bytes,
        preload_failed,
    }
}

/// How a caller reaches the engine: a function call or a connection.
#[derive(Clone, Copy)]
pub enum Link<'a> {
    Direct(&'a ShardedDb),
    Wire(&'a Client),
}

type Pairs = Vec<(u64, Vec<u8>)>;

impl Link<'_> {
    /// `None`: the call failed or was refused.
    fn get(&self, key: u64) -> Option<Option<Vec<u8>>> {
        match self {
            Link::Direct(db) => db.get(key).ok(),
            Link::Wire(client) => client.get(key).ok(),
        }
    }

    fn scan(&self, start: u64) -> Option<Pairs> {
        match self {
            Link::Direct(db) => db.scan(start, SCAN_LEN).ok(),
            Link::Wire(client) => client.scan(start, SCAN_LEN as u32).ok(),
        }
    }

    fn put_durable(&self, key: u64, value: &[u8]) -> bool {
        match self {
            Link::Direct(db) => {
                let mut batch = WriteBatch::with_capacity(1);
                batch.put(key, value);
                db.write(batch, &WriteOptions::durable()).is_ok()
            }
            Link::Wire(client) => client.put(key, value, true).is_ok(),
        }
    }
}

/// What the reader and the writer remember to check results against.
pub struct Ledger {
    /// Highest stamp the reader has seen per key position: a key's stamp
    /// must never go backwards.
    pub seen: Vec<u64>,
    /// Last acknowledged stamp per key position (0: never written).
    pub acked: Vec<u64>,
    /// Writer operations issued so far (the next stamp is `issued + 1`).
    pub issued: u64,
}

impl Ledger {
    pub fn new(keys: usize) -> Ledger {
        Ledger {
            seen: vec![0; keys],
            acked: vec![0; keys],
            issued: 0,
        }
    }
}

fn check_entry(seen: &mut [u64], pos: usize, key: u64, value: &[u8]) -> bool {
    match stamp_of(key, value) {
        Some(stamp) if stamp >= seen[pos] => {
            seen[pos] = stamp;
            true
        }
        _ => false,
    }
}

pub const GET: usize = 0;
pub const SCAN: usize = 1;

/// One verified reader request: `(class, correct)`. A value must be valid
/// for its key and carry a stamp no older than the last one seen; a scan
/// must also be strictly ascending and of the expected length.
fn read_op(link: Link<'_>, data: &Data, seen: &mut [u64], entry: u32) -> (usize, bool) {
    let pos = (entry & !SCAN_FLAG) as usize;
    let key = data.keys[pos];
    if entry & SCAN_FLAG == 0 {
        let ok = matches!(link.get(key), Some(Some(v)) if check_entry(seen, pos, key, &v));
        return (GET, ok);
    }
    let expected = &data.keys[pos..(pos + SCAN_LEN).min(data.keys.len())];
    let ok = link.scan(key).is_some_and(|out| {
        out.len() == expected.len()
            && out
                .iter()
                .zip(expected)
                .enumerate()
                .all(|(j, ((k, v), want))| k == want && check_entry(seen, pos + j, *k, v))
    });
    (SCAN, ok)
}

/// One durable single-key PUT carrying the writer's next stamp.
fn write_op(link: Link<'_>, data: &Data, acked: &mut [u64], issued: &mut u64, pos: u32) -> bool {
    let pos = pos as usize;
    let key = data.keys[pos];
    *issued += 1;
    let ok = link.put_durable(key, &stamped_value(key, *issued));
    if ok {
        acked[pos] = *issued;
    }
    ok
}

/// Drive the reader and, if `write` is given, the writer beside it, for
/// `windows` shared windows. `read`/`write` perform the i-th request of
/// their stream. The reader's thread runs the calibration bursts; the
/// writer's windows take their `host` from the reader's window of the same
/// index.
fn drive(
    served: &Served,
    calib: &mut Calibrator,
    windows: usize,
    window_len: Duration,
    read: impl FnMut(u64) -> (usize, bool),
    write: Option<impl FnMut(u64) -> (usize, bool) + Send>,
) -> ([Phase; 2], Phase) {
    let io = served.storage.stats();
    let start = Instant::now();
    let Some(write) = write else {
        let reads = closed_loop(io, Some(calib), start, windows, window_len, read);
        return (reads, Phase::default());
    };
    std::thread::scope(|s| {
        let w = s.spawn(move || {
            let [put]: [Phase; 1] = closed_loop(io, None, start, windows, window_len, write);
            put
        });
        let reads: [Phase; 2] = closed_loop(io, Some(calib), start, windows, window_len, read);
        let mut put = w.join().expect("writer thread");
        for w in &mut put.windows {
            if let Some(beside) = reads[GET].windows.iter().find(|r| r.index == w.index) {
                w.host = beside.host;
            }
        }
        (reads, put)
    })
}

/// Who runs in a segment, how they reach the engine, and for how long.
struct Segment {
    wire: bool,
    /// Whether the writer runs beside the reader.
    writer: bool,
    windows: usize,
    window_len: Duration,
    /// Where in the op streams the segment starts, so that no segment
    /// replays requests the cache has just seen.
    offset: usize,
}

impl Segment {
    fn lasting(seconds: f64, wire: bool, writer: bool, offset: usize) -> Segment {
        let window_len = if wire { WIRE_WINDOW } else { WINDOW };
        Segment {
            wire,
            writer,
            windows: ((seconds / window_len.as_secs_f64()) as usize).max(1),
            window_len,
            offset,
        }
    }
}

/// Drive the callers through their streams, checking every result against
/// the ledger. With a tracer, one reader GET in `trace::SAMPLE` is recorded
/// as a root span and re-issued layer by layer.
fn drive_checked(
    served: &Served,
    calib: &mut Calibrator,
    ledger: &mut Ledger,
    segment: &Segment,
    mut tracer: Option<&mut Tracer>,
) -> ([Phase; 2], Phase) {
    let Ledger {
        seen,
        acked,
        issued,
    } = ledger;
    let db = served.server.db();
    let (reader, writer) = if segment.wire {
        (Link::Wire(&served.reader), Link::Wire(&served.writer))
    } else {
        (Link::Direct(db), Link::Direct(db))
    };
    let at = |stream: &[u32], i: u64| stream[(segment.offset + i as usize) % stream.len()];
    drive(
        served,
        calib,
        segment.windows,
        segment.window_len,
        |i| {
            let entry = at(&served.reads, i);
            let t = match tracer.as_deref_mut() {
                Some(t) if entry & SCAN_FLAG == 0 && Tracer::samples(i) => t,
                _ => return read_op(reader, &served.data, seen, entry),
            };
            let key = served.data.keys[entry as usize];
            t.begin_op();
            t.call_then_shadow(
                if segment.wire {
                    "rpc.get"
                } else {
                    "sharding.get"
                },
                || read_op(reader, &served.data, seen, entry),
                |t, _| {
                    if segment.wire {
                        shadow_rpc(t, db, key)
                    } else {
                        shadow_sharded_get(t, db, key)
                    }
                },
            )
        },
        segment.writer.then_some(|i| {
            let pos = at(&served.writes, i);
            (0, write_op(writer, &served.data, acked, issued, pos))
        }),
    )
}

/// The pieces of `ShardedDb::get`: `ShardRouter::shard_of`, then `Db::get`
/// on the owning shard.
fn shadow_sharded_get(t: &mut Tracer, db: &ShardedDb, key: u64) {
    let routing = db.routing();
    let shard = t.span("sharding.route", || routing.router().shard_of(key));
    let shard = db.shard(shard);
    t.span("shard.get", || shard.get(key)).ok();
}

/// Re-issue a GET request layer by layer: the codec on both sides, and
/// `ShardedDb::get` on the served engine with its own pieces.
fn shadow_rpc(t: &mut Tracer, db: &ShardedDb, key: u64) {
    let mut frame = Vec::new();
    t.span("protocol.encode_request", || {
        encode_request(&mut frame, 1, &Request::Get { key })
    });
    t.span("protocol.decode_request", || {
        read_frame(&mut frame.as_slice(), DEFAULT_MAX_FRAME)
            .ok()
            .and_then(|(_, opcode, payload)| decode_request(opcode, &payload).ok())
    });
    let value = t.call_then_shadow(
        "sharding.get",
        || db.get(key),
        |t, _| shadow_sharded_get(t, db, key),
    );
    let response = Response::Value(value.ok().flatten());
    frame.clear();
    t.span("protocol.encode_response", || {
        encode_response(&mut frame, 1, &response)
    });
    t.span("protocol.decode_response", || {
        read_frame(&mut frame.as_slice(), DEFAULT_MAX_FRAME)
            .ok()
            .and_then(|(_, status, payload)| decode_response(status, &payload).ok())
    });
}

/// Close the server, reopen the engine on the same device and verify every
/// `REOPEN_SAMPLE`-th written key holds its last acknowledged stamp.
fn reopen_check(cfg: &ShardMixed, served: Served, ledger: &Ledger) -> (u64, u64) {
    let Served {
        data,
        storage,
        server,
        reader,
        writer,
        ..
    } = served;
    drop((reader, writer));
    let mut failed = u64::from(server.close().is_err());
    let db = ShardedDb::open(
        storage as Arc<dyn Storage>,
        sharded_options(cfg, &data, Maintenance::Synchronous),
    )
    .expect("reopen after close");
    let mut checked = 1;
    let written = ledger
        .acked
        .iter()
        .enumerate()
        .filter(|(_, &stamp)| stamp > 0);
    for (pos, &stamp) in written.step_by(REOPEN_SAMPLE) {
        let key = data.keys[pos];
        let ok = matches!(db.get(key), Ok(Some(v)) if stamp_of(key, &v) == Some(stamp));
        checked += 1;
        failed += u64::from(!ok);
    }
    (checked, failed)
}

/// What the traced run adds: the reader alone in process with spans, both
/// callers over the wire with spans, and the wire-level reader alone.
pub struct TracedPhases {
    pub get: Phase,
    pub wire_get: Phase,
    pub wire_put: Phase,
    pub wire_get_alone: Phase,
}

pub struct MixedRun {
    pub setup_secs: Vec<f64>,
    pub keys: usize,
    pub user_bytes: u64,
    pub inputs_hash: u64,
    pub preload: Counters,
    pub preload_stored_bytes: u64,
    pub index_bytes: usize,
    /// The reader alone, and the counters around it.
    pub get: Phase,
    pub scan: Phase,
    pub read_counters: Counters,
    /// The writer beside the reader, the reader's GETs beside the writer,
    /// and the counters around both.
    pub put: Phase,
    pub get_beside: Phase,
    pub write_counters: Counters,
    pub traced: Option<TracedPhases>,
    pub shed: usize,
    pub entry_counts: Vec<u64>,
    pub setup_failed: u64,
    pub reopen_checked: u64,
    pub reopen_failed: u64,
}

/// Share of the run the reader runs alone; the writer joins for the rest.
const ALONE_SHARE: f64 = 0.5;

/// Set up `setup_repeats` times (the last one is measured on), drive the
/// reader alone and then beside the writer, in process, then check a reopen.
///
/// With a tracer each of the two segments is split: the first half exactly
/// as in an untraced run (the counters and the baseline come from it), the
/// second with spans — the reader alone in process, then both callers over
/// the wire — and last the wire-level reader alone for `cfg.alone`.
pub fn run(
    cfg: &ShardMixed,
    seed: u64,
    seconds: f64,
    setup_repeats: usize,
    calib: &mut Calibrator,
    tracer: Option<&mut Tracer>,
) -> MixedRun {
    let mut setup_secs = Vec::new();
    let mut setup_failed = 0;
    let mut state: Option<(Served, Ledger)> = None;
    for _ in 0..setup_repeats {
        if let Some((served, _)) = state.take() {
            let Served {
                server,
                reader,
                writer,
                ..
            } = served;
            drop((reader, writer));
            server.close().expect("close a set-up repeat");
        }
        let mut hosts = vec![calib.burst()];
        let t0 = Instant::now();
        let served = set_up(cfg, seed, calib, &mut hosts);
        hosts.push(calib.burst());
        let mut ledger = Ledger::new(cfg.keys);
        // Only the reader warms up: how much a writer gets done in a fixed
        // time depends on the host, and the reader's windows must start
        // from the same tree every time — the preloaded one.
        let warmup = Segment::lasting(cfg.warmup.as_secs_f64(), false, false, STREAM_LEN / 2);
        let ([get, scan], _) = drive_checked(&served, calib, &mut ledger, &warmup, None);
        setup_failed += served.preload_failed + get.failed + scan.failed;
        let secs = t0.elapsed().as_secs_f64();
        hosts.push(calib.burst());
        // Like every wall-clock total, at the reference host speed.
        setup_secs.push(secs / Cost::median(&hosts).mean);
        state = Some((served, ledger));
    }
    let (served, mut ledger) = state.expect("at least one set-up");
    let counters = || merged_counters(served.server.db(), &served.storage);

    let halves = if tracer.is_some() { 2.0 } else { 1.0 };
    let alone_secs = seconds * ALONE_SHARE / halves;
    let beside_secs = seconds * (1.0 - ALONE_SHARE) / halves;

    let before = counters();
    let alone = Segment::lasting(alone_secs, false, false, 0);
    let ([get, scan], _) = drive_checked(&served, calib, &mut ledger, &alone, None);
    let read_counters = counters().since(&before);

    let before = counters();
    let beside = Segment::lasting(beside_secs, false, true, STREAM_LEN / 4);
    let ([get_beside, _], put) = drive_checked(&served, calib, &mut ledger, &beside, None);
    let write_counters = counters().since(&before);

    let traced = tracer.map(|t| {
        let alone = Segment::lasting(alone_secs, false, false, STREAM_LEN / 8);
        let ([traced_get, _], _) =
            drive_checked(&served, calib, &mut ledger, &alone, Some(&mut *t));
        let wire = Segment::lasting(beside_secs, true, true, STREAM_LEN / 8 * 3);
        let ([wire_get, _], wire_put) = drive_checked(&served, calib, &mut ledger, &wire, Some(t));
        let alone = Segment::lasting(cfg.alone.as_secs_f64(), true, false, STREAM_LEN / 8 * 5);
        let ([wire_get_alone, _], _) = drive_checked(&served, calib, &mut ledger, &alone, None);
        TracedPhases {
            get: traced_get,
            wire_get,
            wire_put,
            wire_get_alone,
        }
    });

    let shed = served.server.shed_count();
    let entry_counts = served.server.db().shard_entry_counts();
    let (preload, preload_stored_bytes, index_bytes) = (
        served.preload,
        served.preload_stored_bytes,
        served.index_bytes,
    );
    let user_bytes = served.data.user_bytes();
    let inputs_hash = gen::inputs_hash(&[&served.data.order, &served.reads, &served.writes]);
    let (reopen_checked, reopen_failed) = reopen_check(cfg, served, &ledger);

    MixedRun {
        setup_secs,
        keys: cfg.keys,
        user_bytes,
        inputs_hash,
        preload,
        preload_stored_bytes,
        index_bytes,
        get,
        scan,
        read_counters,
        put,
        get_beside,
        write_counters,
        traced,
        shed,
        entry_counts,
        setup_failed,
        reopen_checked,
        reopen_failed,
    }
}
