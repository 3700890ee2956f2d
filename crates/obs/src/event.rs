//! Structured engine events.
//!
//! An [`Event`] is a fixed-size, `Copy` record: no strings, no heap —
//! the emit path must never allocate. What an event *means* is carried
//! by its [`EventKind`] plus two kind-specific payload words (`a`, `b`),
//! documented per variant. Begin/end pairs (flush, compaction, stall)
//! share a nonzero span id so a consumer can stitch
//! durations back together even when other shards' events interleave.

use std::sync::OnceLock;
use std::time::Instant;

/// Monotonic nanoseconds since the first observability call in this
/// process. One process-wide anchor keeps timestamps comparable across
/// shards and threads (an `Instant` itself cannot be shipped over a
/// wire or printed).
pub fn now_ns() -> u64 {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    let anchor = *ANCHOR.get_or_init(Instant::now);
    Instant::now().duration_since(anchor).as_nanos() as u64
}

/// What happened. The `a`/`b` payload meanings are per variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// A commit group was appended to the WAL. `a` = batches fused into
    /// the group, `b` = WAL bytes appended (0 on a shard, which logs
    /// nothing: its sharded owner's log holds the batch).
    WriteGroupCommit = 1,
    /// The group's WAL record was synced — or, tagged [`GLOBAL_SHARD`], a
    /// sharded database's log record. `a` = sync wall time (ns).
    WalSync = 2,
    /// The active memtable was frozen onto the immutable queue.
    /// `a` = resulting queue depth.
    MemtableRotation = 3,
    /// A flush started (spanned; paired with [`EventKind::FlushEnd`]).
    FlushBegin = 4,
    /// A flush finished. `a` = entries written, `b` = wall time (ns).
    FlushEnd = 5,
    /// A compaction started (spanned). `a` = source level.
    CompactionBegin = 6,
    /// A compaction finished. `a` = bytes read, `b` = bytes written.
    CompactionEnd = 7,
    /// A writer entered backpressure (spanned). `a` = 0 for a slowdown
    /// delay, 1 for a hard stop.
    StallBegin = 8,
    /// The writer resumed. `a` as in begin, `b` = stalled wall time (ns).
    StallEnd = 9,
    // Codes 10 to 12 named the retired live split's begin, dual-write and
    // cutover, and code 13 the retired commit-marker log's checkpoint;
    // none is reused.
    /// The server shed a request with `RETRY_AFTER` at admission.
    /// `a` = 1 if the shed request was a write.
    ServerShed = 14,
    // Codes 15 and 16 named the retired sub-range merge spans; they are
    // not reused, so an old timeline never decodes as another kind.
}

impl EventKind {
    /// Stable lower-case name, used by the text renderings.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::WriteGroupCommit => "write_group_commit",
            EventKind::WalSync => "wal_sync",
            EventKind::MemtableRotation => "memtable_rotation",
            EventKind::FlushBegin => "flush_begin",
            EventKind::FlushEnd => "flush_end",
            EventKind::CompactionBegin => "compaction_begin",
            EventKind::CompactionEnd => "compaction_end",
            EventKind::StallBegin => "stall_begin",
            EventKind::StallEnd => "stall_end",
            EventKind::ServerShed => "server_shed",
        }
    }

    /// Inverse of the `repr(u8)` discriminant — for wire decoding.
    pub fn from_u8(v: u8) -> Option<EventKind> {
        Some(match v {
            1 => EventKind::WriteGroupCommit,
            2 => EventKind::WalSync,
            3 => EventKind::MemtableRotation,
            4 => EventKind::FlushBegin,
            5 => EventKind::FlushEnd,
            6 => EventKind::CompactionBegin,
            7 => EventKind::CompactionEnd,
            8 => EventKind::StallBegin,
            9 => EventKind::StallEnd,
            14 => EventKind::ServerShed,
            _ => return None,
        })
    }
}

/// One engine event: fixed-size, `Copy`, allocation-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Monotonic timestamp from [`now_ns`].
    pub ts_ns: u64,
    /// Nonzero for spanned events; begin and end of one logical operation
    /// share the same id. 0 for instantaneous events.
    pub span: u64,
    /// Kind-specific payload words (see [`EventKind`]).
    pub a: u64,
    /// Second payload word.
    pub b: u64,
    /// What happened.
    pub kind: EventKind,
    /// Stable shard id of the emitting shard (`u16::MAX` for
    /// engine-global emitters like the server edge).
    pub shard: u16,
}

/// The shard tag used by emitters that are not any one shard.
pub const GLOBAL_SHARD: u16 = u16::MAX;

impl Event {
    /// Render as one stable, grep-friendly text line (the format
    /// `obs_dump` prints and the metrics-smoke CI step asserts on).
    pub fn render(&self) -> String {
        format!(
            "event ts_us={:>10} shard={:>3} span={:>4} kind={} a={} b={}",
            self.ts_ns / 1_000,
            if self.shard == GLOBAL_SHARD {
                "-".to_string()
            } else {
                self.shard.to_string()
            },
            self.span,
            self.kind.name(),
            self.a,
            self.b,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn now_ns_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }

    #[test]
    fn kind_roundtrips_through_u8() {
        for v in 0..=u8::MAX {
            if let Some(k) = EventKind::from_u8(v) {
                assert_eq!(k as u8, v);
                assert!(!k.name().is_empty());
            }
        }
        // 10 to 13, 15 and 16 are retired codes, never reused.
        for unassigned in [0, 10, 11, 12, 13, 15, 16, 17] {
            assert_eq!(EventKind::from_u8(unassigned), None);
        }
    }

    #[test]
    fn render_is_stable() {
        let e = Event {
            ts_ns: 1_234_000,
            span: 7,
            a: 1,
            b: 2,
            kind: EventKind::FlushBegin,
            shard: 3,
        };
        let line = e.render();
        assert!(line.starts_with("event "));
        assert!(line.contains("kind=flush_begin"));
        assert!(line.contains("span=   7"));
    }
}
