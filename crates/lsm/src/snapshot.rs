//! RAII read snapshots.
//!
//! A [`Snapshot`] is a pinned point-in-time view of the database
//! (LevelDB's `GetSnapshot`/`ReleaseSnapshot`, made RAII). It captures
//! three things at creation:
//!
//! * the **sequence ceiling** — writes after the snapshot are invisible;
//! * the **level structure** — an `Arc` of the copy-on-write [`Version`],
//!   which keeps every pre-snapshot SSTable reader alive even after later
//!   compactions replace and unlink those files;
//! * the **memtable stack** — a shared handle to the active write buffer
//!   (the concurrent skiplist, see [`crate::memtable::MemRun`]) plus shared
//!   handles to every queued immutable memtable (background maintenance).
//!   The live buffer keeps receiving entries after the snapshot, but they
//!   carry sequence numbers above the ceiling and are filtered at read
//!   time; the `Arc` keeps the buffer alive across later rotations, so a
//!   flush (which rebuilds the buffer and dedups versions into an SSTable)
//!   cannot disturb the snapshot's view of unflushed writes.
//!
//! Reads through the handle (`Db::get_with` / `Db::iter_with` with
//! [`crate::ReadOptions::at`]) therefore return identical results no matter
//! how many writes, flushes or compactions happen concurrently. Dropping
//! the handle releases every pin.
//!
//! A snapshot's sequence ceiling is usually the instance's own latest
//! sequence, but the sharding layer pins every shard at one shared *fence*
//! sequence instead (`Db::snapshot_at`): the per-shard pins all read at the
//! same globally published ceiling, which is what makes a
//! [`crate::sharding::ShardedSnapshot`] a coherent cut across shards.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::memtable::MemRun;
use crate::types::SeqNo;
use crate::version::Version;

/// Shared registry of live snapshot sequence numbers (multiset: several
/// snapshots may pin the same sequence). The engine uses it for
/// observability ([`crate::Db::live_snapshots`]) and as the hook for any
/// future watermark-based garbage collection.
#[derive(Debug, Default)]
pub(crate) struct SnapshotList {
    live: Mutex<BTreeMap<SeqNo, usize>>,
}

impl SnapshotList {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Register a snapshot pinning `seq` over `version` + the memtable
    /// stack `mems` (newest first: the live buffer handle, then queued
    /// immutable memtables newest to oldest).
    pub(crate) fn acquire(
        self: &Arc<Self>,
        seq: SeqNo,
        version: Arc<Version>,
        mems: Vec<MemRun>,
    ) -> Snapshot {
        *self.live.lock().entry(seq).or_insert(0) += 1;
        Snapshot {
            seq,
            version,
            mems,
            list: Arc::clone(self),
        }
    }

    /// Number of live snapshot handles.
    pub(crate) fn len(&self) -> usize {
        self.live.lock().values().sum()
    }

    fn release(&self, seq: SeqNo) {
        let mut live = self.live.lock();
        if let Some(count) = live.get_mut(&seq) {
            *count -= 1;
            if *count == 0 {
                live.remove(&seq);
            }
        }
    }
}

/// A pinned point-in-time view of the database. Obtained from
/// [`crate::Db::snapshot`]; dropping the handle releases the pin.
///
/// ```rust
/// use lsm_tree::{Db, Options, ReadOptions};
///
/// let db = Db::open_memory(Options::small_for_tests()).unwrap();
/// db.put(7, b"before").unwrap();
///
/// let snap = db.snapshot();
/// db.put(7, b"after").unwrap();
/// db.delete(8).unwrap();
///
/// // Current reads see the later write; the snapshot does not — and
/// // keeps not seeing it across any flushes or compactions that run
/// // while the handle is alive.
/// assert_eq!(db.get(7).unwrap().as_deref(), Some(&b"after"[..]));
/// assert_eq!(
///     db.get_with(7, &ReadOptions::at(&snap)).unwrap().as_deref(),
///     Some(&b"before"[..]),
/// );
/// assert!(snap.seq() < db.latest_seq());
/// ```
#[derive(Debug)]
pub struct Snapshot {
    seq: SeqNo,
    version: Arc<Version>,
    /// Memtable stack at creation (newest first), each run in internal-key
    /// order: the live buffer handle, then any queued immutable memtables.
    mems: Vec<MemRun>,
    list: Arc<SnapshotList>,
}

impl Snapshot {
    /// The sequence number reads through this snapshot observe.
    pub fn seq(&self) -> SeqNo {
        self.seq
    }

    /// The pinned level structure.
    pub(crate) fn version(&self) -> &Arc<Version> {
        &self.version
    }

    /// The pinned memtable stack, newest run first (each in internal-key
    /// order).
    pub(crate) fn mems(&self) -> &[MemRun] {
        &self.mems
    }
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        self.list.release(self.seq);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pin(list: &Arc<SnapshotList>, seq: SeqNo) -> Snapshot {
        list.acquire(
            seq,
            Arc::new(Version::new(2)),
            vec![MemRun::Frozen(Arc::new(Vec::new()))],
        )
    }

    #[test]
    fn len_tracks_live_handles() {
        let list = SnapshotList::new();
        let a = pin(&list, 10);
        let b = pin(&list, 5);
        let c = pin(&list, 5);
        assert_eq!(list.len(), 3);
        drop(b);
        assert_eq!(list.len(), 2, "duplicate pin still live");
        drop(c);
        assert_eq!(a.seq(), 10);
        drop(a);
        assert_eq!(list.len(), 0);
    }
}
