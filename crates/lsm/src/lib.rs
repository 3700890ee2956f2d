//! A LevelDB-style LSM-tree engine with pluggable table indexes.
//!
//! This is the testbed substrate of the paper: a leveled LSM-tree (size
//! ratio `T`, default 10) with a write buffer, per-table Bloom filters
//! (10 bits/key), partial compaction at SSTable granularity, and — the point
//! of the exercise — a *pluggable index* per SSTable: classical fence
//! pointers or any of the six learned indexes from the `learned-index`
//! crate, selected via [`Options::index`] — or, at
//! [`IndexGranularity::Level`], one model per sorted level kept in the
//! [`version::Version`].
//!
//! Design points mirrored from LevelDB because the paper relies on them:
//!
//! * immutable SSTables, created only by flushes and compactions — which is
//!   exactly why non-updatable learned indexes fit (Section 2.2);
//! * L0 tables may overlap (each is one flushed buffer); L1+ levels are
//!   sorted runs partitioned into non-overlapping files;
//! * partial compaction: one file (plus next-level overlap) merges at a time;
//! * fixed-width on-disk entries so a position predicted by a learned model
//!   converts to a byte offset with one multiply (the data-clustered layout
//!   of Section 3).
//!
//! ## The public API quartet
//!
//! The engine exposes LevelDB's four-piece interface:
//!
//! * [`WriteBatch`] + [`Db::write`]`(batch, &`[`WriteOptions`]`)` — the single
//!   write entry point. A batch joins the writer queue, receives one
//!   contiguous sequence range, and is framed inside **one** CRC-framed WAL
//!   record — possibly fused with other concurrently queued batches
//!   (pipelined group commit; see [`db`]'s module docs); recovery applies a
//!   record all-or-nothing. `put`/`delete`/`put_batch` are thin wrappers.
//! * [`Snapshot`] — an RAII handle pinning a point-in-time view across
//!   concurrent writes, flushes and compactions.
//! * [`ReadOptions`] — per-read knobs (`snapshot`, `fill_cache`) for
//!   [`Db::get_with`] / [`Db::iter_with`].
//! * [`WriteOptions`] — the per-write knob (`sync`).
//!
//! ```
//! use lsm_tree::{Db, Options, ReadOptions, WriteBatch, WriteOptions};
//! use learned_index::IndexKind;
//!
//! let mut opts = Options::small_for_tests();
//! opts.index.kind = IndexKind::Pgm;
//! let db = Db::open_memory(opts).unwrap();
//!
//! // Group commit: both writes land atomically, in one WAL record.
//! let mut batch = WriteBatch::new();
//! batch.put(42, b"hello");
//! batch.put(43, b"world");
//! db.write(batch, &WriteOptions::default()).unwrap();
//!
//! // A snapshot pins this state across later writes.
//! let snap = db.snapshot();
//! db.put(42, b"changed").unwrap();
//! assert_eq!(db.get(42).unwrap().as_deref(), Some(&b"changed"[..]));
//! assert_eq!(
//!     db.get_with(42, &ReadOptions::at(&snap)).unwrap().as_deref(),
//!     Some(&b"hello"[..]),
//! );
//! ```

pub mod batch;
pub mod bloom;
pub mod cache;
pub mod compaction;
pub mod db;
pub mod iter;
pub mod memtable;
pub mod options;
pub mod scheduler;
mod sealed;
pub mod sharding;
pub mod skiplist;
pub mod snapshot;
pub mod sstable;
pub mod stats;
pub mod types;
pub mod version;
pub mod wal;

pub use batch::{BatchOp, WriteBatch};
pub use cache::{BlockCache, BlockKey, CacheStats};
pub use db::{Db, WritePressure};
pub use iter::DbIterator;
pub use options::{
    IndexChoice, IndexGranularity, Maintenance, Options, ReadOptions, SearchStrategy,
    ShardedOptions, ShardingPolicy, WriteOptions,
};
pub use sharding::{
    RecoveryReport, RoutingState, ShardRouter, ShardedDb, ShardedDbIterator, ShardedSnapshot,
    ShardedStats, Topology,
};
pub use snapshot::Snapshot;
pub use stats::{CompactionBreakdown, DbStats, StatsSnapshot};
// Observability vocabulary (spans, histograms, the scrapeable snapshot)
// lives in `lsm-obs`; re-exported so engine users need no extra dep.
pub use lsm_obs::{Event, EventKind, MetricsSnapshot, Observer, GLOBAL_SHARD};
pub use types::{Entry, EntryKind, InternalKey, SeqNo};

use std::fmt;

/// Errors surfaced by the engine.
#[derive(Debug)]
pub enum Error {
    /// Underlying storage failure.
    Io(std::io::Error),
    /// A persisted structure failed validation.
    Corruption(String),
    /// The operation could not be served right now and should be retried
    /// by the caller — e.g. an unpinned read whose routing topology kept
    /// changing underneath it. Nothing is corrupt and no data was lost;
    /// a front end maps this to its retry-after backoff.
    Unavailable(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Io(e) => write!(f, "io error: {e}"),
            Error::Corruption(msg) => write!(f, "corruption: {msg}"),
            Error::Unavailable(msg) => write!(f, "unavailable: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

impl From<learned_index::codec::DecodeError> for Error {
    fn from(e: learned_index::codec::DecodeError) -> Self {
        Error::Corruption(format!("index decode: {e}"))
    }
}

/// [`Error`] carries `std::io::Error` and so is not `Clone`; a group
/// failure must be delivered to every member, and a background failure to
/// every later `flush` and `close`, so approximate.
pub(crate) fn clone_error(e: &Error) -> Error {
    match e {
        Error::Io(io) => Error::Io(std::io::Error::new(io.kind(), io.to_string())),
        Error::Corruption(msg) => Error::Corruption(msg.clone()),
        Error::Unavailable(msg) => Error::Unavailable(msg.clone()),
    }
}

/// Engine result type.
pub type Result<T> = std::result::Result<T, Error>;
