//! Isolated probes (source **P**): one layer's public function, called in a
//! tight loop on inputs made from the seed, away from the workloads. They
//! run inside every traced run and do not depend on the workload.

use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use learned_index::{IndexConfig, IndexKind};
use lsm_io::{CostModel, FileStorage, MemStorage, SimStorage, Storage};
use lsm_server::protocol::{
    decode_request, decode_response, encode_request, encode_response, read_frame, Request,
    Response, DEFAULT_MAX_FRAME,
};
use lsm_server::{tcp_connect, Client, MemTransport, Server, ServerOptions, TcpTransport};
use lsm_tree::bloom::BloomFilter;
use lsm_tree::memtable::MemTable;
use lsm_tree::sstable::TableBuilder;
use lsm_tree::wal::WalWriter;
use lsm_tree::{
    BlockCache, BlockKey, Db, Entry, IndexChoice, ShardRouter, ShardedDb, ShardedOptions,
    ShardingPolicy, WriteOptions,
};
use lsm_workloads::value_for_key;

use crate::gen::{self, Data, VALUE_LEN};
use crate::inproc::{engine_options, POSITION_BOUNDARY};
use crate::shard_mixed::SYNC_NS;

/// Keys of the learned-index, bloom, memtable and tier probes.
pub const PROBE_KEYS: usize = 64 * 1024;
/// GETs of the tier slice per `PROBE_KEYS` keys (zipfian, cache-resident).
pub const TIER_GETS: usize = 10_000;
const REPEATS: usize = 3;

/// `(metric suffix, kind)` of the seven table indexes.
pub const KINDS: [(&str, IndexKind); 7] = [
    ("fp", IndexKind::FencePointers),
    ("ft", IndexKind::FitingTree),
    ("plr", IndexKind::Plr),
    ("plex", IndexKind::Plex),
    ("rs", IndexKind::RadixSpline),
    ("rmi", IndexKind::Rmi),
    ("pgm", IndexKind::Pgm),
];

/// Nanoseconds per call of `f` over `n` calls; the quietest of `REPEATS`.
fn ns_per<T>(n: usize, mut f: impl FnMut(usize) -> T) -> f64 {
    (0..REPEATS)
        .map(|_| {
            let t0 = Instant::now();
            for i in 0..n {
                black_box(f(black_box(i)));
            }
            t0.elapsed().as_nanos() as f64 / n as f64
        })
        .fold(f64::INFINITY, f64::min)
}

type Out = Vec<(String, f64)>;

fn learned(data: &Data, out: &mut Out) {
    let config = IndexConfig::with_position_boundary(POSITION_BOUNDARY);
    let n = data.keys.len();
    for (suffix, kind) in KINDS {
        let build_ns = ns_per(1, |_| kind.build(&data.keys, &config));
        let index = kind.build(&data.keys, &config);
        let predict_ns = ns_per(n, |i| index.predict(data.keys[data.order[i] as usize]));
        let bound: usize = data.keys.iter().map(|&k| index.predict(k).len()).sum();
        out.push((format!("learned.predict_ns.{suffix}"), predict_ns));
        out.push((
            format!("learned.build_ns_per_key.{suffix}"),
            build_ns / n as f64,
        ));
        out.push((
            format!("learned.bytes_per_key.{suffix}"),
            index.size_bytes() as f64 / n as f64,
        ));
        out.push((
            format!("learned.bound_len.{suffix}"),
            bound as f64 / n as f64,
        ));
    }
}

fn bloom_and_sstable(data: &Data, out: &mut Out) {
    let n = data.keys.len();
    let bloom = BloomFilter::build(&data.keys, 10);
    let probe_ns = ns_per(n, |i| bloom.may_contain(data.keys[data.order[i] as usize]));
    out.push(("bloom.probe_ns".into(), probe_ns));

    let entries: Vec<Entry> = data
        .keys
        .iter()
        .map(|&k| Entry::put(k, 1, value_for_key(k, VALUE_LEN)))
        .collect();
    let build_ns = ns_per(1, |_| {
        let storage = MemStorage::new();
        let mut builder = TableBuilder::new(
            storage.create("probe.sst").expect("create"),
            "probe.sst".into(),
            IndexChoice::with_boundary(IndexKind::Pgm, POSITION_BOUNDARY),
            VALUE_LEN,
            10,
        );
        for e in &entries {
            builder.add(e).expect("ascending keys");
        }
        builder.finish().expect("finish")
    });
    out.push(("sstable.build_ns_per_entry".into(), build_ns / n as f64));
}

fn cache(out: &mut Out) {
    const BLOCKS: usize = 1024;
    let block = Arc::new(vec![7u8; 4096]);
    let key = |i: usize| BlockKey {
        table_id: 1,
        block_no: i as u64,
    };
    let resident = BlockCache::new(2 * BLOCKS * 4096);
    for i in 0..BLOCKS {
        resident.insert(key(i), Arc::clone(&block));
    }
    // A multiplicative stride visits the resident blocks out of order.
    let hit_ns = ns_per(64 * BLOCKS, |i| resident.get(key(i * 769 % BLOCKS)));
    out.push(("cache.hit_ns".into(), hit_ns));

    // Every insert into a full cache evicts: the per-block miss path.
    let full = BlockCache::new(BLOCKS * 4096);
    let mut next = 0;
    let miss_fill_ns = ns_per(16 * BLOCKS, |_| {
        next += 1;
        full.insert(key(next), Arc::clone(&block));
    });
    out.push(("cache.miss_fill_ns".into(), miss_fill_ns));
}

fn memtable_and_wal(data: &Data, out: &mut Out) {
    let batches = data.batches();
    let n = data.keys.len();
    let mem = MemTable::new();
    let t0 = Instant::now();
    let mut seq = 1;
    for b in &batches {
        mem.apply_batch(b.ops(), seq);
        seq += b.len() as u64;
    }
    let apply_ns = t0.elapsed().as_nanos() as f64 / n as f64;
    out.push(("memtable.apply_ns_per_entry".into(), apply_ns));
    let get_ns = ns_per(n, |i| {
        mem.get(data.keys[data.order[i] as usize], u64::MAX)
            .is_some()
    });
    out.push(("memtable.get_ns".into(), get_ns));

    let append_ns = ns_per(1, |_| {
        let mut wal = WalWriter::create(&MemStorage::new(), "probe.wal").expect("create");
        let mut seq = 1;
        for b in &batches {
            wal.append_batch(seq, b.ops()).expect("append");
            seq += b.len() as u64;
        }
    });
    out.push(("wal.append_ns_per_entry".into(), append_ns / n as f64));

    // Realized sync: the modeled latency plus whatever the sleep overshoots.
    let device = SimStorage::new(CostModel::with_sync_latency(SYNC_NS));
    let mut wal = WalWriter::create(&device, "probe.wal").expect("create");
    let sync_ns = ns_per(200, |_| wal.sync().expect("sync"));
    out.push(("wal.sync_us".into(), sync_ns / 1e3));
}

fn routing_and_codec(data: &Data, out: &mut Out) {
    let n = data.keys.len();
    let router = ShardRouter::train(
        2,
        &ShardingPolicy::LearnedRange {
            sample: data.keys.iter().step_by(64).copied().collect(),
            epsilon: 32,
        },
    );
    let route_ns = ns_per(n, |i| router.shard_of(data.keys[data.order[i] as usize]));
    out.push(("sharding.route_ns".into(), route_ns));

    // One GET exchange: the request and the 100-byte value response.
    let response = Response::Value(Some(value_for_key(1, VALUE_LEN)));
    let mut frame = Vec::with_capacity(256);
    let encode_ns = ns_per(n, |i| {
        frame.clear();
        encode_request(&mut frame, i as u64, &Request::Get { key: data.keys[i] });
        encode_response(&mut frame, i as u64, &response);
        frame.len()
    });
    out.push(("protocol.encode_ns".into(), encode_ns));
    let decode_ns = ns_per(n, |_| {
        let mut wire = frame.as_slice();
        let (_, opcode, payload) = read_frame(&mut wire, DEFAULT_MAX_FRAME).expect("request");
        let request = decode_request(opcode, &payload).expect("request body");
        let (_, status, payload) = read_frame(&mut wire, DEFAULT_MAX_FRAME).expect("response");
        (
            request,
            decode_response(status, &payload).expect("response body"),
        )
    });
    out.push(("protocol.decode_ns".into(), decode_ns));
}

// -------------------------------------------------------------------- tiers

fn tier_options() -> lsm_tree::Options {
    engine_options(1 << 20, 512 << 10, 64 << 20)
}

fn load(data: &Data, mut write: impl FnMut(lsm_tree::WriteBatch)) {
    for batch in data.batches() {
        write(batch);
    }
}

fn loaded_db(data: &Data, storage: Arc<dyn Storage>, observability: bool) -> Db {
    let mut opts = tier_options();
    opts.observability = observability;
    let db = Db::open(storage, opts).expect("open");
    load(data, |b| {
        db.write(b, &WriteOptions::default()).expect("load");
    });
    db.flush().expect("flush");
    db
}

fn loaded_sharded(data: &Data) -> ShardedDb {
    let sample = data.keys.iter().step_by(64).copied().collect();
    let db = ShardedDb::open_sim(
        ShardedOptions::learned(2, sample, tier_options()),
        CostModel::default(),
    )
    .expect("open");
    load(data, |b| {
        db.write(b, &WriteOptions::default()).expect("load");
    });
    db.flush().expect("flush");
    db
}

/// Mean ns per GET over one pass of the slice. Every value is checked.
/// Callers pass over the slice once beforehand to fill the cache.
fn slice_ns(slice: &[u64], mut get: impl FnMut(u64) -> Option<Vec<u8>>) -> f64 {
    let t0 = Instant::now();
    for &key in slice {
        assert!(
            get(key) == Some(value_for_key(key, VALUE_LEN)),
            "tier probe read a wrong value for key {key}"
        );
    }
    t0.elapsed().as_nanos() as f64 / slice.len() as f64
}

fn sim() -> Arc<dyn Storage> {
    Arc::new(SimStorage::new(CostModel::default()))
}

fn tiers(data: &Data, seed: u64, scratch: &Path, beside: Duration, out: &mut Out) {
    let gets = TIER_GETS * data.keys.len() / PROBE_KEYS;
    let slice: Vec<u64> = gen::stream(data, gen::zipfian(), gets, seed ^ 0x74)
        .into_iter()
        .map(|pos| data.keys[pos as usize])
        .collect();

    let warm_db = |db: &Db| slice_ns(&slice, |k| db.get(k).expect("get"));
    let warm_sharded = |db: &ShardedDb| slice_ns(&slice, |k| db.get(k).expect("get"));

    let db = loaded_db(data, sim(), false);
    warm_db(&db);
    let off_ns = warm_db(&db);
    out.push(("tier.db.get_ns".into(), off_ns));
    let observed = loaded_db(data, sim(), true);
    warm_db(&observed);
    let on_ns = warm_db(&observed);
    out.push(("obs.overhead_share".into(), 1.0 - off_ns / on_ns));
    drop((db, observed));

    let sharded = loaded_sharded(data);
    warm_sharded(&sharded);
    out.push(("tier.sharded.get_ns".into(), warm_sharded(&sharded)));

    let (connector, listener) = MemTransport::endpoint();
    let server = Server::start(sharded, Arc::new(listener), ServerOptions::default());
    let client = Client::new(connector.connect().expect("dial"));
    let ns = slice_ns(&slice, |k| client.get(k).expect("get"));
    out.push(("tier.server_mem.get_us".into(), ns / 1e3));
    drop(client);
    server.close().expect("close");

    let sharded = loaded_sharded(data);
    warm_sharded(&sharded);
    let listener = TcpTransport::bind("127.0.0.1:0").expect("bind loopback");
    let server = Server::start(sharded, Arc::new(listener), ServerOptions::default());
    let client = Client::new(tcp_connect(&server.addr()).expect("dial loopback"));
    let ns = slice_ns(&slice, |k| client.get(k).expect("get"));
    out.push(("tier.server_tcp.get_us".into(), ns / 1e3));
    drop(client);
    server.close().expect("close");

    // Real files: the sandbox's file system, not a device.
    let dir = scratch.join(format!("tier-file-{}", std::process::id()));
    let files = Arc::new(FileStorage::new(&dir).expect("scratch directory"));
    let db = loaded_db(data, files, false);
    warm_db(&db);
    out.push(("tier.file.get_ns".into(), warm_db(&db)));
    drop(db);
    std::fs::remove_dir_all(&dir).expect("remove scratch directory");

    // One reader beside one durable writer on the same `Db`.
    let device = Arc::new(SimStorage::new(CostModel::with_sync_latency(SYNC_NS)));
    let db = loaded_db(data, device, false);
    warm_db(&db);
    let stop = AtomicBool::new(false);
    let gets = std::thread::scope(|s| {
        s.spawn(|| {
            // Rewrites loaded values, so the reader's checks keep holding.
            for &key in slice.iter().cycle() {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let mut batch = lsm_tree::WriteBatch::with_capacity(1);
                batch.put(key, &value_for_key(key, VALUE_LEN));
                db.write(batch, &WriteOptions::durable())
                    .expect("durable put");
            }
        });
        let t0 = Instant::now();
        let mut gets = 0u64;
        for &key in slice.iter().cycle() {
            if t0.elapsed() >= beside {
                break;
            }
            assert!(db.get(key).expect("get") == Some(value_for_key(key, VALUE_LEN)));
            gets += 1;
        }
        stop.store(true, Ordering::Relaxed);
        gets as f64 / t0.elapsed().as_secs_f64()
    });
    out.push(("tier.db.get_kops_beside_writer".into(), gets / 1e3));
}

/// Run every probe. `scratch` is a directory inside the checkout for the
/// real-file tier; `beside` is how long the reader-beside-writer probe runs.
pub fn run(seed: u64, keys: usize, scratch: &Path, beside: Duration) -> Out {
    let data = Data::generate(keys, seed);
    let mut out = Vec::new();
    learned(&data, &mut out);
    bloom_and_sstable(&data, &mut out);
    cache(&mut out);
    memtable_and_wal(&data, &mut out);
    routing_and_codec(&data, &mut out);
    tiers(&data, seed, scratch, beside, &mut out);
    out
}
