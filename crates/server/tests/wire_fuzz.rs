//! Bit rot on the wire: one encoded frame of every request kind and every
//! response kind — among them a `METRICS` response with counters, two
//! shards' summaries and events — cut at every length and hit by seeded
//! single-byte flips (every bit of the length prefix, then 2 000 flips
//! anywhere per frame). Each result goes through `read_frame`, then
//! `decode_request` or `decode_response`.
//!
//! Every outcome must be a typed `FrameError`, a typed `Err` or an `Ok` —
//! never a panic — and no allocation on the way may exceed what the bytes
//! that arrived can justify: the largest in-memory element per wire byte
//! is a batch op (40 bytes for at least 9 on the wire; the 18 bytes of
//! frame header, flags and count cover the excess over 4× at the sizes
//! here), so no single allocation may pass `RESERVE_FACTOR` × the frame,
//! plus room for an error message. `read_frame` reserves the declared body
//! up to its cap; the cap here is the intact frame's body, as a server's is
//! its largest legal frame, so a length flip upward is `BadLength`, never a
//! reserve.
//!
//! The wire carries no checksum (the transport under a frame is trusted
//! to deliver the bytes sent), so a flip may decode to another valid
//! value: an `Ok` is an accepted outcome, and only the unflipped frames
//! must round-trip exactly.
//!
//! This file holds one test: it installs a counting global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use lsm_obs::{EngineObs, EventKind, MetricsSnapshot, Observer};
use lsm_server::protocol::{
    decode_request, decode_response, encode_request, encode_response, read_frame,
};
use lsm_server::{Request, Response, ServerError};
use lsm_tree::WriteBatch;
use rand::{RngCore, SeedableRng, StdRng};

/// Largest single allocation per frame byte a decode may make.
const RESERVE_FACTOR: usize = 4;
/// Allowance for a typed error's message.
const MESSAGE_BYTES: usize = 128;
/// Seeded flips per frame, beyond the length prefix's 32 single-bit ones.
const FLIPS: u64 = 2_000;
/// Flip `n` of every frame draws its byte and mask from
/// `StdRng::seed_from_u64(BASE_SEED + n)`.
const BASE_SEED: u64 = 0x5eed_0000;

struct Counting;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
        }
    });
}

// SAFETY: every call is forwarded unchanged to `System`; the bookkeeping
// touches only const-initialized thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Names the frame and seed of a failing case when the test panics, so
/// the case replays from this file alone.
struct Replay<'a> {
    frame: &'a str,
    case: String,
}

impl Drop for Replay<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("wire fuzz failed on frame {}: {}", self.frame, self.case);
        }
    }
}

fn metrics_snapshot() -> MetricsSnapshot {
    let observer = Arc::new(Observer::new(64));
    let shards = [3u16, 7].map(|id| EngineObs::new(Arc::clone(&observer), id));
    for (i, obs) in (1u64..).zip(&shards) {
        for v in 1..=50u64 {
            obs.ops.write.record(v * 1_000 * i);
            obs.ops.get.record(v * 300);
        }
        obs.ops.sync_wait.record(90_000);
        obs.ops.scan.record(12_345);
        let span = obs.span();
        obs.emit(EventKind::FlushBegin, span, 0, 0);
        obs.emit(EventKind::FlushEnd, span, 4_096, 77_000);
    }
    let counters = [
        ("lookups", 12_000),
        ("level1_reads", 4_321),
        ("topology_epoch", 2),
        ("shard3_resident_bytes", 1 << 20),
        ("shard3_resident_entries", 9_000),
        ("shard7_resident_bytes", 3 << 19),
        ("shard7_resident_entries", 12_500),
    ];
    let counters = counters.map(|(n, v)| (n.to_string(), v)).to_vec();
    MetricsSnapshot::collect(counters, Some(&*observer), &shards)
}

fn requests() -> Vec<(&'static str, Request)> {
    let write = |batch: &mut WriteBatch, durable| Request::WriteBatch {
        batch: std::mem::take(batch),
        durable,
    };
    vec![
        ("GET", Request::Get { key: 0xfeed }),
        (
            "WRITE_BATCH put",
            write(WriteBatch::new().put(1, b"value"), true),
        ),
        (
            "WRITE_BATCH delete",
            write(WriteBatch::new().delete(2), false),
        ),
        (
            "WRITE_BATCH",
            write(
                WriteBatch::new().put(3, &[0xab; 24]).delete(4).put(5, &[]),
                true,
            ),
        ),
        (
            "SCAN",
            Request::Scan {
                start: 10,
                limit: 64,
            },
        ),
        ("METRICS", Request::Metrics),
    ]
}

fn responses() -> Vec<(&'static str, Response)> {
    let snap = metrics_snapshot();
    assert_eq!(snap.shards.len(), 2);
    assert_eq!(snap.events.len(), 4);
    vec![
        ("OK_VALUE none", Response::Value(None)),
        ("OK_VALUE", Response::Value(Some(b"found".to_vec()))),
        ("OK_COMMITTED", Response::Committed { seq: 99 }),
        (
            "OK_ENTRIES",
            Response::Entries(vec![(1, b"a".to_vec()), (2, Vec::new()), (3, vec![7; 9])]),
        ),
        (
            "OK_ENTRIES one",
            Response::Entries(vec![(4, b"d".to_vec())]),
        ),
        ("OK_METRICS", Response::Metrics(Box::new(snap))),
        ("OK_METRICS off", Response::Metrics(Box::default())),
        (
            "ERR_RETRY_AFTER",
            Response::Error(ServerError::RetryAfter { ms: 2 }),
        ),
        (
            "ERR_POISONED",
            Response::Error(ServerError::Poisoned("p".into())),
        ),
        (
            "ERR_BAD_REQUEST",
            Response::Error(ServerError::BadRequest("unknown opcode 0x07".into())),
        ),
        (
            "ERR_SERVER",
            Response::Error(ServerError::Server("io".into())),
        ),
        (
            "ERR_SHUTTING_DOWN",
            Response::Error(ServerError::ShuttingDown("draining".into())),
        ),
    ]
}

/// Read one frame from `bytes` (capped at the intact frame's body) and
/// decode it; returns the decoded value, if any, and the largest single
/// allocation made on the way.
fn read_back<T>(
    bytes: &[u8],
    cap: usize,
    decode: fn(u8, &[u8]) -> Result<T, String>,
) -> (Option<(u64, T)>, usize) {
    LARGEST.with(|l| l.set(0));
    ARMED.with(|a| a.set(true));
    let out = match read_frame(&mut &bytes[..], cap) {
        Ok((id, tag, payload)) => decode(tag, &payload).ok().map(|v| (id, v)),
        Err(_) => None,
    };
    ARMED.with(|a| a.set(false));
    (out, LARGEST.with(Cell::get))
}

fn fuzz<T: PartialEq + std::fmt::Debug>(
    name: &str,
    frame: &[u8],
    id: u64,
    value: &T,
    decode: fn(u8, &[u8]) -> Result<T, String>,
) {
    let cap = frame.len() - 4;
    let budget = RESERVE_FACTOR * frame.len() + MESSAGE_BYTES;
    let mut replay = Replay {
        frame: name,
        case: "intact".into(),
    };
    let (intact, _) = read_back(frame, cap, decode);
    let (got_id, got) = intact.expect("an intact frame decodes");
    assert_eq!((got_id, &got), (id, value), "{name} must round-trip");

    for cut in 0..frame.len() {
        replay.case = format!("truncated to {cut} bytes");
        let (out, largest) = read_back(&frame[..cut], cap, decode);
        assert!(out.is_none(), "{name}: a cut frame decoded");
        assert!(largest <= budget, "{name}: {largest} B reserved, cut {cut}");
    }

    let prefix = (0..32u64).map(|bit| ("length prefix".to_string(), bit / 8, 1u8 << (bit % 8)));
    let seeded = (BASE_SEED..BASE_SEED + FLIPS).map(|seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        let at = rng.next_u64() % frame.len() as u64;
        (format!("seed {seed:#x}"), at, rng.next_u64() as u8 | 1)
    });
    for (label, at, mask) in prefix.chain(seeded) {
        replay.case = format!("{label}: byte {at} ^= {mask:#04x}");
        let mut flipped = frame.to_vec();
        flipped[at as usize] ^= mask;
        let (_, largest) = read_back(&flipped, cap, decode);
        assert!(
            largest <= budget,
            "{name}: {largest} B reserved for a {} B frame ({})",
            frame.len(),
            replay.case
        );
    }
}

#[test]
fn flipped_and_cut_frames_decode_to_typed_errors_or_values() {
    for (n, (name, req)) in requests().into_iter().enumerate() {
        let mut frame = Vec::new();
        encode_request(&mut frame, n as u64, &req);
        fuzz(name, &frame, n as u64, &req, decode_request);
    }
    for (n, (name, resp)) in responses().into_iter().enumerate() {
        let mut frame = Vec::new();
        encode_response(&mut frame, n as u64, &resp);
        fuzz(name, &frame, n as u64, &resp, decode_response);
    }
}
