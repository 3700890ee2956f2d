//! The wire protocol: length-prefixed binary frames, one request or
//! response per frame, symmetric in both directions.
//!
//! ## Frame layout
//!
//! ```text
//! u32 LE   len      — bytes that follow (id + tag + payload); ≥ 9
//! u64 LE   id       — request id, echoed verbatim in the response
//! u8       tag      — opcode (request) or status (response)
//! [u8]     payload  — tag-specific body, all integers little-endian
//! ```
//!
//! Request ids are chosen by the client (monotonically increasing in the
//! shipped [`Client`](crate::Client)); the server echoes them, never
//! interprets them, and may answer out of order — that is what makes
//! per-connection pipelining work.
//!
//! ## Opcodes and payloads
//!
//! | opcode              | request payload                                   |
//! |---------------------|---------------------------------------------------|
//! | `GET` (0x01)        | `key u64`                                         |
//! | `WRITE_BATCH`(0x04) | `flags u8, count u32, count × entry`              |
//! | `SCAN` (0x05)       | `start u64, limit u32`                            |
//! | `METRICS` (0x08)    | (empty)                                           |
//!
//! Every write is a `WRITE_BATCH`, decoded straight into the engine's
//! [`WriteBatch`]: a single put or delete is a batch of one. A batch
//! `entry` is `kind u8` (0 = put, 1 = delete), `key u64`, and for puts
//! `vlen u32, value`. `flags` bit 0 requests a durable (synced) commit
//! before the acknowledgement. Opcodes 0x02 and 0x03 (the retired
//! single-key `PUT` and `DELETE`), 0x06 and 0x07 (a retired
//! `SNAPSHOT_SCAN` and `STATS`) are unknown: `ERR_BAD_REQUEST`, and the
//! connection stays usable.
//!
//! ## Status codes and payloads
//!
//! | status                    | response payload                          |
//! |---------------------------|-------------------------------------------|
//! | `OK_VALUE` (0x00)         | `present u8, [vlen u32, value]`           |
//! | `OK_COMMITTED` (0x01)     | `seq u64`                                 |
//! | `OK_ENTRIES` (0x02)       | `count u32, count × (key u64, vlen u32, value)` |
//! | `OK_METRICS` (0x04)       | `enabled u8, dropped u64, count u32, count × (nlen u32, name, value u64), total, shards u32, shards × latencies, events u32, events × event` |
//! | `ERR_RETRY_AFTER` (0x10)  | `retry_ms u32` — shed by admission control: back off and resend |
//! | `ERR_POISONED` (0x11)     | `mlen u32, msg` — a cross-shard commit failed mid-way; the engine refuses writes until reopened |
//! | `ERR_BAD_REQUEST` (0x12)  | `mlen u32, msg` — unknown opcode or malformed payload |
//! | `ERR_SERVER` (0x13)       | `mlen u32, msg` — engine I/O or corruption error |
//! | `ERR_SHUTTING_DOWN` (0x14)| `mlen u32, msg` — the server is draining; the connection will close |
//!
//! An `OK_METRICS` payload is a [`MetricsSnapshot`]'s fields in order.
//! `latencies` (and `total`) is `shard u16` then four summaries — write,
//! sync wait, get, scan — of seven `u64` each (count, mean, max, p50, p90,
//! p99, p99.9); an `event` is `ts u64, span u64, a u64, b u64, kind u8,
//! shard u16`. The counters are every engine counter, then, from a sharded
//! engine, `topology_epoch`, `live_commit_markers` and per shard in routing
//! order `shard{id}_resident_bytes` / `shard{id}_resident_entries`.
//!
//! Frames are written and read through the workspace's one byte codec,
//! [`lsm_tree::codec`] (the engine's WAL, table footer and index payloads
//! use the same one): every length is bounds-checked by its `Reader`, and
//! every declared count goes through `Reader::count`, which checks it
//! against the bytes left in the payload before anything is reserved for
//! it — so a lie is a typed error, never a large allocation.
//!
//! Framing violations (a declared length above the server's cap, or a
//! stream that ends mid-frame) are not answerable — the stream can no
//! longer be trusted — so the peer disconnects instead of responding.

use std::io::{self, Read, Write};

use lsm_obs::{Event, EventKind, HistSummary, MetricsSnapshot, OpLatencies};
use lsm_tree::codec::{put_bytes, put_u16, put_u32, put_u64, DecodeError, Reader};
use lsm_tree::{EntryKind, WriteBatch};

/// Smallest legal frame body: id (8) + tag (1).
pub const MIN_FRAME: usize = 9;

/// Default ceiling on a frame body; the server
/// ([`ServerOptions::max_frame`](crate::ServerOptions)) and the client
/// both default to it.
pub const DEFAULT_MAX_FRAME: usize = 8 << 20;

/// Request flag bit 0: sync the WAL before acknowledging.
pub const FLAG_DURABLE: u8 = 1;

// ------------------------------------------------------------- tag bytes

pub const OP_GET: u8 = 0x01;
pub const OP_WRITE_BATCH: u8 = 0x04;
pub const OP_SCAN: u8 = 0x05;
pub const OP_METRICS: u8 = 0x08;

pub const ST_OK_VALUE: u8 = 0x00;
pub const ST_OK_COMMITTED: u8 = 0x01;
pub const ST_OK_ENTRIES: u8 = 0x02;
pub const ST_OK_METRICS: u8 = 0x04;
pub const ST_ERR_RETRY_AFTER: u8 = 0x10;
pub const ST_ERR_POISONED: u8 = 0x11;
pub const ST_ERR_BAD_REQUEST: u8 = 0x12;
pub const ST_ERR_SERVER: u8 = 0x13;
pub const ST_ERR_SHUTTING_DOWN: u8 = 0x14;

// ---------------------------------------------------------------- types

/// A decoded request frame body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    Get {
        key: u64,
    },
    /// Every write: applied atomically by one `ShardedDb::write`.
    WriteBatch {
        batch: WriteBatch,
        durable: bool,
    },
    Scan {
        start: u64,
        limit: u32,
    },
    Metrics,
}

impl Request {
    /// Whether this request mutates the database — the class admission
    /// control sheds under write backpressure.
    pub fn is_write(&self) -> bool {
        matches!(self, Request::WriteBatch { .. })
    }
}

/// A typed server-side error, carried in an error-status response frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerError {
    /// Shed by admission control; retry after the given backoff.
    RetryAfter { ms: u32 },
    /// The engine is poisoned by a failed cross-shard commit; writes are
    /// refused until the database is reopened.
    Poisoned(String),
    /// Unknown opcode or malformed payload.
    BadRequest(String),
    /// Engine I/O or corruption error.
    Server(String),
    /// The server is draining for shutdown.
    ShuttingDown(String),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::RetryAfter { ms } => write!(f, "retry after {ms} ms"),
            ServerError::Poisoned(m) => write!(f, "engine poisoned: {m}"),
            ServerError::BadRequest(m) => write!(f, "bad request: {m}"),
            ServerError::Server(m) => write!(f, "server error: {m}"),
            ServerError::ShuttingDown(m) => write!(f, "shutting down: {m}"),
        }
    }
}

/// A decoded response frame body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// `GET` result.
    Value(Option<Vec<u8>>),
    /// Write acknowledgement: the last sequence number of the commit.
    Committed { seq: u64 },
    /// `SCAN` result.
    Entries(Vec<(u64, Vec<u8>)>),
    /// `METRICS` result: counters, latency quantiles and the recent
    /// event timeline (see [`MetricsSnapshot`]).
    Metrics(Box<MetricsSnapshot>),
    /// Any error status.
    Error(ServerError),
}

/// Why a frame could not be read; distinguishes "peer went away cleanly"
/// from "the stream is garbage".
#[derive(Debug)]
pub enum FrameError {
    /// Clean EOF on a frame boundary — the peer closed.
    Closed,
    /// The stream died mid-frame (truncated length prefix or body).
    Truncated,
    /// The declared length is below [`MIN_FRAME`] or above the cap —
    /// framing can no longer be trusted.
    BadLength(u32),
    /// Underlying transport error.
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Truncated => write!(f, "stream truncated mid-frame"),
            FrameError::BadLength(n) => write!(f, "bad frame length {n}"),
            FrameError::Io(e) => write!(f, "io: {e}"),
        }
    }
}

impl From<FrameError> for io::Error {
    fn from(e: FrameError) -> io::Error {
        match e {
            FrameError::Io(e) => e,
            FrameError::Closed => io::Error::new(io::ErrorKind::UnexpectedEof, "closed"),
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

// ------------------------------------------------------------- encoding

/// Wire bytes of one encoded [`OpLatencies`]: shard tag + 4 × 7 `u64`.
const LATENCIES_BYTES: usize = 2 + 4 * 7 * 8;
/// Wire bytes of one encoded [`Event`].
const EVENT_BYTES: usize = 4 * 8 + 1 + 2;

fn put_latencies(out: &mut Vec<u8>, l: &OpLatencies) {
    put_u16(out, l.shard);
    for s in [&l.write, &l.sync_wait, &l.get, &l.scan] {
        for v in [
            s.count, s.mean_ns, s.max_ns, s.p50_ns, s.p90_ns, s.p99_ns, s.p999_ns,
        ] {
            put_u64(out, v);
        }
    }
}

fn put_metrics(out: &mut Vec<u8>, snap: &MetricsSnapshot) {
    out.push(snap.enabled as u8);
    put_u64(out, snap.dropped_events);
    put_u32(out, snap.counters.len() as u32);
    for (name, value) in &snap.counters {
        put_bytes(out, name.as_bytes());
        put_u64(out, *value);
    }
    put_latencies(out, &snap.total);
    put_u32(out, snap.shards.len() as u32);
    for l in &snap.shards {
        put_latencies(out, l);
    }
    put_u32(out, snap.events.len() as u32);
    for e in &snap.events {
        for v in [e.ts_ns, e.span, e.a, e.b] {
            put_u64(out, v);
        }
        out.push(e.kind as u8);
        put_u16(out, e.shard);
    }
}

/// Encode one frame (either direction) into `out`.
fn encode_frame(out: &mut Vec<u8>, id: u64, tag: u8, payload: &[u8]) {
    put_u32(out, (8 + 1 + payload.len()) as u32);
    put_u64(out, id);
    out.push(tag);
    out.extend_from_slice(payload);
}

/// Encode a request frame.
pub fn encode_request(out: &mut Vec<u8>, id: u64, req: &Request) {
    let mut p = Vec::new();
    let tag = match req {
        Request::Get { key } => {
            put_u64(&mut p, *key);
            OP_GET
        }
        Request::WriteBatch { batch, durable } => {
            p.push(if *durable { FLAG_DURABLE } else { 0 });
            put_u32(&mut p, batch.len() as u32);
            for op in batch.ops() {
                match op.kind {
                    EntryKind::Put => {
                        p.push(0);
                        put_u64(&mut p, op.key);
                        put_bytes(&mut p, &op.value);
                    }
                    EntryKind::Delete => {
                        p.push(1);
                        put_u64(&mut p, op.key);
                    }
                }
            }
            OP_WRITE_BATCH
        }
        Request::Scan { start, limit } => {
            put_u64(&mut p, *start);
            put_u32(&mut p, *limit);
            OP_SCAN
        }
        Request::Metrics => OP_METRICS,
    };
    encode_frame(out, id, tag, &p);
}

/// Encode a response frame.
pub fn encode_response(out: &mut Vec<u8>, id: u64, resp: &Response) {
    let mut p = Vec::new();
    let tag = match resp {
        Response::Value(v) => {
            match v {
                Some(v) => {
                    p.push(1);
                    put_bytes(&mut p, v);
                }
                None => p.push(0),
            }
            ST_OK_VALUE
        }
        Response::Committed { seq } => {
            put_u64(&mut p, *seq);
            ST_OK_COMMITTED
        }
        Response::Entries(pairs) => {
            put_u32(&mut p, pairs.len() as u32);
            for (k, v) in pairs {
                put_u64(&mut p, *k);
                put_bytes(&mut p, v);
            }
            ST_OK_ENTRIES
        }
        Response::Metrics(snap) => {
            put_metrics(&mut p, snap);
            ST_OK_METRICS
        }
        Response::Error(e) => match e {
            ServerError::RetryAfter { ms } => {
                put_u32(&mut p, *ms);
                ST_ERR_RETRY_AFTER
            }
            ServerError::Poisoned(m) => {
                put_bytes(&mut p, m.as_bytes());
                ST_ERR_POISONED
            }
            ServerError::BadRequest(m) => {
                put_bytes(&mut p, m.as_bytes());
                ST_ERR_BAD_REQUEST
            }
            ServerError::Server(m) => {
                put_bytes(&mut p, m.as_bytes());
                ST_ERR_SERVER
            }
            ServerError::ShuttingDown(m) => {
                put_bytes(&mut p, m.as_bytes());
                ST_ERR_SHUTTING_DOWN
            }
        },
    };
    encode_frame(out, id, tag, &p);
}

// ------------------------------------------------------------- decoding

/// A payload decode's failure: a [`DecodeError`] from the codec, or a
/// message naming a value the protocol does not define.
type Decoded<T> = Result<T, Box<dyn std::error::Error>>;

fn latencies(r: &mut Reader<'_>) -> Result<OpLatencies, DecodeError> {
    let shard = r.u16("latencies shard")?;
    let mut summary = || -> Result<HistSummary, DecodeError> {
        let mut field = || r.u64("latency summary");
        Ok(HistSummary {
            count: field()?,
            mean_ns: field()?,
            max_ns: field()?,
            p50_ns: field()?,
            p90_ns: field()?,
            p99_ns: field()?,
            p999_ns: field()?,
        })
    };
    Ok(OpLatencies {
        shard,
        write: summary()?,
        sync_wait: summary()?,
        get: summary()?,
        scan: summary()?,
    })
}

fn metrics(r: &mut Reader<'_>) -> Decoded<MetricsSnapshot> {
    let enabled = match r.u8("metrics enabled flag")? {
        0 => false,
        1 => true,
        other => return Err(format!("metrics enabled flag must be 0/1, got {other}").into()),
    };
    let dropped_events = r.u64("metrics dropped events")?;
    let n = r.count("metrics counter count", 4 + 8)?;
    let mut counters = Vec::with_capacity(n);
    for _ in 0..n {
        let name = std::str::from_utf8(r.bytes("metrics counter name")?)
            .map_err(|_| "metrics counter name is not UTF-8")?;
        counters.push((name.to_owned(), r.u64("metrics counter value")?));
    }
    let total = latencies(r)?;
    let n = r.count("metrics shard count", LATENCIES_BYTES)?;
    let mut shards = Vec::with_capacity(n);
    for _ in 0..n {
        shards.push(latencies(r)?);
    }
    let n = r.count("metrics event count", EVENT_BYTES)?;
    let mut events = Vec::with_capacity(n);
    for _ in 0..n {
        let mut word = || r.u64("metrics event");
        let [ts_ns, span, a, b] = [word()?, word()?, word()?, word()?];
        let kind = r.u8("metrics event kind")?;
        let kind =
            EventKind::from_u8(kind).ok_or_else(|| format!("metrics event kind {kind} unknown"))?;
        events.push(Event {
            ts_ns,
            span,
            a,
            b,
            kind,
            shard: r.u16("metrics event shard")?,
        });
    }
    Ok(MetricsSnapshot {
        enabled,
        counters,
        total,
        shards,
        events,
        dropped_events,
    })
}

/// Decode a request payload. `Err` carries a human-readable reason for
/// the `ERR_BAD_REQUEST` response.
pub fn decode_request(opcode: u8, payload: &[u8]) -> Result<Request, String> {
    request(opcode, payload).map_err(|e| e.to_string())
}

fn request(opcode: u8, payload: &[u8]) -> Decoded<Request> {
    let mut r = Reader::new(payload);
    let req = match opcode {
        OP_GET => Request::Get {
            key: r.u64("get key")?,
        },
        OP_WRITE_BATCH => {
            let flags = r.u8("batch flags")?;
            // The smallest entry is a delete: kind + key.
            let count = r.count("batch count", 1 + 8)?;
            let mut batch = WriteBatch::with_capacity(count);
            for _ in 0..count {
                match r.u8("batch entry kind")? {
                    0 => batch.put(r.u64("batch key")?, r.bytes("batch value")?),
                    1 => batch.delete(r.u64("batch key")?),
                    k => return Err(format!("unknown batch entry kind {k}").into()),
                };
            }
            Request::WriteBatch {
                batch,
                durable: flags & FLAG_DURABLE != 0,
            }
        }
        OP_SCAN => Request::Scan {
            start: r.u64("scan start")?,
            limit: r.u32("scan limit")?,
        },
        OP_METRICS => Request::Metrics,
        op => return Err(format!("unknown opcode 0x{op:02x}").into()),
    };
    r.finish()?;
    Ok(req)
}

/// Decode a response payload.
pub fn decode_response(status: u8, payload: &[u8]) -> Result<Response, String> {
    response(status, payload).map_err(|e| e.to_string())
}

fn response(status: u8, payload: &[u8]) -> Decoded<Response> {
    let mut r = Reader::new(payload);
    let resp = match status {
        ST_OK_VALUE => Response::Value(match r.u8("value present")? {
            0 => None,
            _ => Some(r.bytes("value")?.to_vec()),
        }),
        ST_OK_COMMITTED => Response::Committed {
            seq: r.u64("committed seq")?,
        },
        ST_OK_ENTRIES => {
            // The smallest pair is a key and an empty value's length.
            let count = r.count("entry count", 8 + 4)?;
            let mut pairs = Vec::with_capacity(count);
            for _ in 0..count {
                let k = r.u64("entry key")?;
                pairs.push((k, r.bytes("entry value")?.to_vec()));
            }
            Response::Entries(pairs)
        }
        ST_OK_METRICS => Response::Metrics(Box::new(metrics(&mut r)?)),
        ST_ERR_RETRY_AFTER => Response::Error(ServerError::RetryAfter {
            ms: r.u32("retry ms")?,
        }),
        ST_ERR_POISONED => Response::Error(ServerError::Poisoned(msg(&mut r)?)),
        ST_ERR_BAD_REQUEST => Response::Error(ServerError::BadRequest(msg(&mut r)?)),
        ST_ERR_SERVER => Response::Error(ServerError::Server(msg(&mut r)?)),
        ST_ERR_SHUTTING_DOWN => Response::Error(ServerError::ShuttingDown(msg(&mut r)?)),
        s => return Err(format!("unknown status 0x{s:02x}").into()),
    };
    r.finish()?;
    Ok(resp)
}

fn msg(r: &mut Reader<'_>) -> Decoded<String> {
    let m =
        std::str::from_utf8(r.bytes("error message")?).map_err(|_| "error message is not UTF-8")?;
    Ok(m.to_owned())
}

// --------------------------------------------------------------- framing

/// Read one frame: `(id, tag, payload)`.
pub fn read_frame(r: &mut dyn Read, max_frame: usize) -> Result<(u64, u8, Vec<u8>), FrameError> {
    let mut len_buf = [0u8; 4];
    match read_exact_or_eof(r, &mut len_buf) {
        Ok(true) => {}
        Ok(false) => return Err(FrameError::Closed),
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Err(FrameError::Truncated),
        Err(e) => return Err(FrameError::Io(e)),
    }
    let len = Reader::new(&len_buf)
        .u32("frame length")
        .expect("four bytes hold a u32");
    if (len as usize) < MIN_FRAME || len as usize > max_frame {
        return Err(FrameError::BadLength(len));
    }
    let mut body = vec![0u8; len as usize];
    match r.read_exact(&mut body) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Err(FrameError::Truncated),
        Err(e) => return Err(FrameError::Io(e)),
    }
    let mut header = Reader::new(&body);
    let id = header.u64("frame id").expect("MIN_FRAME covers the id");
    let tag = header.u8("frame tag").expect("MIN_FRAME covers the tag");
    body.drain(..MIN_FRAME);
    Ok((id, tag, body))
}

/// `read_exact`, but a clean EOF before the *first* byte returns
/// `Ok(false)` instead of an error (frame-boundary close).
fn read_exact_or_eof(r: &mut dyn Read, buf: &mut [u8]) -> io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(false),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof mid-frame",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Encode and write one frame, flushing the writer.
pub fn write_frame(w: &mut dyn Write, buf: &[u8]) -> io::Result<()> {
    w.write_all(buf)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsm_obs::EngineObs;

    fn roundtrip_req(req: Request) {
        let mut buf = Vec::new();
        encode_request(&mut buf, 42, &req);
        let mut r = &buf[..];
        let (id, tag, payload) = read_frame(&mut r, DEFAULT_MAX_FRAME).expect("frame");
        assert_eq!(id, 42);
        assert_eq!(decode_request(tag, &payload).expect("decode"), req);
    }

    /// Encode `resp` as a frame and read it back: `(status, payload)`.
    fn response_payload(resp: &Response) -> (u8, Vec<u8>) {
        let mut buf = Vec::new();
        encode_response(&mut buf, 7, resp);
        let mut r = &buf[..];
        let (id, tag, payload) = read_frame(&mut r, DEFAULT_MAX_FRAME).expect("frame");
        assert_eq!(id, 7);
        (tag, payload)
    }

    fn roundtrip_resp(resp: Response) {
        let (tag, payload) = response_payload(&resp);
        assert_eq!(decode_response(tag, &payload).expect("decode"), resp);
    }

    /// A scrape with counters, a fold, one shard's summary and a span's
    /// two events.
    fn sample_snapshot() -> MetricsSnapshot {
        let obs = EngineObs::solo(2);
        obs.ops.write.record(1_000);
        obs.ops.write.record(2_000);
        obs.ops.get.record(500);
        let span = obs.span();
        obs.emit(EventKind::FlushBegin, span, 0, 0);
        obs.emit(EventKind::FlushEnd, span, 128, 9_999);
        let counters = vec![("lookups".into(), 7), ("flushes".into(), 1)];
        MetricsSnapshot::collect(counters, Some(obs.observer()), [&obs])
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_req(Request::Get { key: u64::MAX });
        let mut batch = WriteBatch::new();
        batch.put(3, &[0xab; 100]).delete(4).put(5, &[]);
        roundtrip_req(Request::WriteBatch {
            batch,
            durable: true,
        });
        roundtrip_req(Request::WriteBatch {
            batch: WriteBatch::new(),
            durable: false,
        });
        roundtrip_req(Request::Scan {
            start: 0,
            limit: 10,
        });
        roundtrip_req(Request::Metrics);
    }

    /// The WRITE_BATCH frame of a put and a delete, byte for byte: the
    /// layout the retired single-key opcodes folded into, unchanged.
    #[test]
    fn write_batch_frame_bytes_are_pinned() {
        let mut batch = WriteBatch::new();
        batch.put(7, b"hi").delete(9);
        let req = Request::WriteBatch {
            batch,
            durable: true,
        };
        let mut buf = Vec::new();
        encode_request(&mut buf, 5, &req);
        #[rustfmt::skip]
        let expected: &[u8] = &[
            38, 0, 0, 0,                    // len: id + tag + payload
            5, 0, 0, 0, 0, 0, 0, 0,         // id
            OP_WRITE_BATCH,                 // tag 0x04
            FLAG_DURABLE,                   // flags
            2, 0, 0, 0,                     // count
            0, 7, 0, 0, 0, 0, 0, 0, 0,      // put, key 7
            2, 0, 0, 0, b'h', b'i',         // vlen, value
            1, 9, 0, 0, 0, 0, 0, 0, 0,      // delete, key 9
        ];
        assert_eq!(buf, expected);
        assert_eq!(
            decode_request(OP_WRITE_BATCH, &expected[4 + MIN_FRAME..]),
            Ok(req)
        );
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_resp(Response::Value(None));
        roundtrip_resp(Response::Value(Some(b"x".to_vec())));
        roundtrip_resp(Response::Committed { seq: 99 });
        roundtrip_resp(Response::Entries(vec![(1, b"a".to_vec()), (2, Vec::new())]));
        roundtrip_resp(Response::Entries(Vec::new()));
        roundtrip_resp(Response::Metrics(Box::default()));
        roundtrip_resp(Response::Metrics(Box::new(MetricsSnapshot {
            enabled: true,
            counters: vec![("flushes".into(), 3)],
            dropped_events: 9,
            ..MetricsSnapshot::default()
        })));
        roundtrip_resp(Response::Error(ServerError::RetryAfter { ms: 20 }));
        roundtrip_resp(Response::Error(ServerError::Poisoned("p".into())));
        roundtrip_resp(Response::Error(ServerError::BadRequest("b".into())));
        roundtrip_resp(Response::Error(ServerError::Server("s".into())));
        roundtrip_resp(Response::Error(ServerError::ShuttingDown("d".into())));
    }

    #[test]
    fn framing_violations_are_typed() {
        // Truncated length prefix.
        let mut r: &[u8] = &[1, 0];
        assert!(matches!(
            read_frame(&mut r, DEFAULT_MAX_FRAME),
            Err(FrameError::Truncated)
        ));
        // Oversized declared length.
        let mut buf = Vec::new();
        buf.extend_from_slice(&(1u32 << 30).to_le_bytes());
        let mut r = &buf[..];
        assert!(matches!(
            read_frame(&mut r, DEFAULT_MAX_FRAME),
            Err(FrameError::BadLength(_))
        ));
        // Undersized declared length (cannot even hold id + tag).
        let mut buf = Vec::new();
        buf.extend_from_slice(&3u32.to_le_bytes());
        buf.extend_from_slice(&[0, 0, 0]);
        let mut r = &buf[..];
        assert!(matches!(
            read_frame(&mut r, DEFAULT_MAX_FRAME),
            Err(FrameError::BadLength(3))
        ));
        // Clean EOF on a boundary.
        let mut r: &[u8] = &[];
        assert!(matches!(
            read_frame(&mut r, DEFAULT_MAX_FRAME),
            Err(FrameError::Closed)
        ));
        // Body shorter than declared.
        let mut buf = Vec::new();
        buf.extend_from_slice(&100u32.to_le_bytes());
        buf.extend_from_slice(&[0u8; 20]);
        let mut r = &buf[..];
        assert!(matches!(
            read_frame(&mut r, DEFAULT_MAX_FRAME),
            Err(FrameError::Truncated)
        ));
    }

    #[test]
    fn garbage_payloads_decode_to_errors_not_panics() {
        // Declared value length overruns the payload.
        let mut p = vec![0u8]; // flags
        p.extend_from_slice(&1u32.to_le_bytes()); // count
        p.push(0); // put
        p.extend_from_slice(&1u64.to_le_bytes());
        p.extend_from_slice(&u32::MAX.to_le_bytes()); // vlen lie
        assert!(decode_request(OP_WRITE_BATCH, &p).is_err());
        // Unknown opcode.
        assert!(decode_request(0x7f, &[]).is_err());
        // Trailing junk.
        let mut buf = Vec::new();
        encode_request(&mut buf, 1, &Request::Get { key: 5 });
        let mut r = &buf[..];
        let (_, tag, mut payload) = read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap();
        payload.push(0xee);
        assert!(decode_request(tag, &payload).is_err());
        // Batch count lie.
        let mut p = vec![0u8];
        p.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_request(OP_WRITE_BATCH, &p).is_err());
        // METRICS takes no payload: junk is trailing bytes, not a panic.
        assert!(decode_request(OP_METRICS, &[1, 2, 3]).is_err());
        // The retired PUT, DELETE, SNAPSHOT_SCAN and STATS opcodes are
        // unknown.
        for op in [0x02u8, 0x03, 0x06, 0x07] {
            assert!(decode_request(op, &[])
                .unwrap_err()
                .contains(&format!("unknown opcode 0x{op:02x}")));
        }
    }

    #[test]
    fn snapshot_roundtrips() {
        let snap = sample_snapshot();
        assert_eq!(snap.events.len(), 2);
        assert_eq!(snap.events[0].span, snap.events[1].span);
        roundtrip_resp(Response::Metrics(Box::new(snap)));
    }

    #[test]
    fn disabled_snapshot_roundtrips() {
        let mut snap = MetricsSnapshot::default();
        snap.counters.push(("write_batches".into(), 42));
        roundtrip_resp(Response::Metrics(Box::new(snap)));
    }

    #[test]
    fn corrupt_payloads_are_typed_errors_never_panics() {
        let (tag, payload) = response_payload(&Response::Metrics(Box::new(sample_snapshot())));
        assert_eq!(tag, ST_OK_METRICS);
        let decode = |p: &[u8]| decode_response(ST_OK_METRICS, p);

        // Every truncation point fails cleanly.
        for cut in 0..payload.len() {
            assert!(
                decode(&payload[..cut]).is_err(),
                "truncation at {cut} must not decode"
            );
        }
        // Trailing junk is rejected.
        let mut long = payload.clone();
        long.push(0);
        assert!(decode(&long).is_err());
        // A counter-count lie (after `enabled u8, dropped u64`) is refused
        // by the guard before anything is reserved.
        let mut lied = payload.clone();
        lied[9..13].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode(&lied).unwrap_err().contains("overruns payload"));
        // A bad enabled flag is typed.
        let mut bad = payload.clone();
        bad[0] = 7;
        assert!(decode(&bad).unwrap_err().contains("enabled flag"));
        // Seeded byte flips: decode either succeeds or errors, never
        // panics (structural fields may survive a payload-word flip).
        let mut seed = 0x9e3779b97f4a7c15u64;
        for _ in 0..2_000 {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let mut fuzzed = payload.clone();
            let at = (seed >> 33) as usize % fuzzed.len();
            fuzzed[at] ^= (seed >> 17) as u8 | 1;
            let _ = decode(&fuzzed);
        }
    }
}
