//! The read view, and RAII snapshots of it.
//!
//! A `ReadView` is what a read resolves through, immutable once built: the
//! **memtable stack** — a shared handle to the live write buffer (the
//! concurrent skiplist, see [`crate::memtable::MemTable`]), then the queued
//! sealed buffers, newest first, each the same kind of handle — and the
//! **level structure**, an
//! `Arc` of the copy-on-write [`Version`]. The engine publishes a fresh
//! view whenever either changes and a read clones the current `Arc`: it
//! holds no engine lock while it searches. `get`, iterators and snapshots
//! all go through `ReadView::get` / `ReadView::iter`.
//!
//! **View first, ceiling second.** A read sees the entries of its view with
//! `seq <= ceiling` and must load the view *before* the published ceiling.
//! In the other order a flush between the two loads may replace the buffer
//! by an L0 table, which keeps only the newest version of each key — one
//! above the ceiling already loaded — and the read would skip it and return
//! an older version than it was entitled to. A view older than its ceiling
//! is harmless: what it lacks is newer than all it holds.
//!
//! A [`Snapshot`] is a pinned point-in-time view of the database
//! (LevelDB's `GetSnapshot`/`ReleaseSnapshot`, made RAII): the view current
//! at creation plus the **sequence ceiling** then published. The live
//! buffer keeps receiving entries, but above the ceiling, so they are
//! filtered at read time; the view's `Arc`s keep the buffer alive across
//! rotations and flushes and every pre-snapshot SSTable reader alive after
//! compactions unlink the files. Reads through the handle (`Db::get_with` /
//! `Db::iter_with` with [`crate::ReadOptions::at`]) therefore return
//! identical results whatever runs concurrently; dropping it releases
//! every pin.
//!
//! The sharding layer pins every shard at one shared *fence* sequence
//! instead of the shard's own ceiling (`Db::snapshot_at`), which is what
//! makes a [`crate::sharding::ShardedSnapshot`] a coherent cut across shards.
//! There a view older than the fence is *not* harmless — another shard may
//! show the batch it lacks — so every view is loaded before the fence and
//! re-checked after it (the sharding module's *Visibility*).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::memtable::MemTable;
use crate::stats::DbStats;
use crate::types::SeqNo;
use crate::version::Version;
use crate::Result;

/// What reads resolve through — see the module docs.
#[derive(Debug)]
pub(crate) struct ReadView {
    /// Newest buffer first: the live one, then the immutable queue.
    pub(crate) mems: Vec<MemTable>,
    pub(crate) version: Arc<Version>,
}

impl ReadView {
    /// The newest value of `key` at or below `seq`: the one point lookup.
    pub(crate) fn get(
        &self,
        key: u64,
        seq: SeqNo,
        fill_cache: bool,
        stats: &DbStats,
    ) -> Result<Option<Vec<u8>>> {
        for mem in &self.mems {
            if let Some(hit) = mem.get(key, seq) {
                stats.memtable_hits.fetch_add(1, Ordering::Relaxed);
                return Ok(hit.map(<[u8]>::to_vec));
            }
        }
        let found = self.version.get_opts(key, seq, stats, fill_cache)?;
        Ok(found.flatten())
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
    view: Arc<ReadView>,
    /// The owning engine's count of live handles ([`crate::Db::live_snapshots`]).
    live: Arc<AtomicUsize>,
}

impl Snapshot {
    /// Pin `view` at `seq`, counted in `live` until dropped.
    pub(crate) fn pin(seq: SeqNo, view: Arc<ReadView>, live: &Arc<AtomicUsize>) -> Snapshot {
        live.fetch_add(1, Ordering::Relaxed);
        let live = Arc::clone(live);
        Snapshot { seq, view, live }
    }

    /// A second handle on the same view and ceiling, counted on its own.
    pub(crate) fn repin(&self) -> Snapshot {
        Snapshot::pin(self.seq, Arc::clone(&self.view), &self.live)
    }

    /// The sequence number reads through this snapshot observe.
    pub fn seq(&self) -> SeqNo {
        self.seq
    }

    /// The pinned view.
    pub(crate) fn view(&self) -> &Arc<ReadView> {
        &self.view
    }
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        self.live.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pin(live: &Arc<AtomicUsize>, seq: SeqNo) -> Snapshot {
        let view = ReadView {
            mems: vec![MemTable::new()],
            version: Arc::new(Version::new(2)),
        };
        Snapshot::pin(seq, Arc::new(view), live)
    }

    #[test]
    fn len_tracks_live_handles() {
        let live = Arc::new(AtomicUsize::new(0));
        let len = || live.load(Ordering::Relaxed);
        let a = pin(&live, 10);
        let b = pin(&live, 5);
        let c = pin(&live, 5);
        assert_eq!(len(), 3);
        drop(b);
        assert_eq!(len(), 2, "duplicate pin still live");
        drop(c);
        assert_eq!(a.seq(), 10);
        drop(a);
        assert_eq!(len(), 0);
    }
}
