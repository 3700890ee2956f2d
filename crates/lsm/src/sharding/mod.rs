//! Sharded engine: many [`Db`] shards behind one `Db`-shaped facade, over
//! a routing topology fixed when the database is created.
//!
//! [`ShardedDb`] range-partitions the key space across `N` independent
//! LSM-trees — every shard owns one contiguous key range — and exposes
//! the same `write`/`get`/`iter`/`snapshot` surface as a single [`Db`]:
//!
//! * **Learned range routing** ([`router`]) — what is learned is the
//!   shard boundaries: they are cut at the quantiles of a sampled key
//!   distribution, so each shard holds an ≈equal share of the data even on
//!   heavily skewed key spaces. Routing is one binary search over those
//!   few cuts. With no usable sample the cuts are equal-width slices of the
//!   key space, and they stay so.
//! * **A sealed topology** ([`topology`]) — the shard set is persisted at
//!   creation as a CRC-sealed `SHARDING-<epoch>` file, like the per-shard
//!   manifests. A reopen adopts whatever the sealed topology says — the
//!   shard count is a property of the *data*, not of the open call —, and
//!   nothing changes it while the database is open. Every shard has a
//!   *stable id* (its `shard-<id>/` directory). Stores that an earlier
//!   build split online open too: their topology names non-contiguous ids
//!   at a later epoch, and the open sweeps what a crashed split left.
//! * **Cross-shard atomic batches** ([`split_batch`]) — a [`WriteBatch`] is
//!   put in routing order and joins the database's one writer queue, the
//!   one a lone [`Db`] runs: the whole batch gets one contiguous global
//!   sequence range (each shard a sub-range) inside one record in the
//!   database's one log — its group's, which concurrent batches share —,
//!   and the queue's one published ceiling (the *fence*) advances only
//!   after every shard has applied. Snapshots and scans read at the
//!   published fence, pinned without the commit lock (see *Visibility*), so
//!   a multi-shard batch is **all-or-nothing visible** to every multi-key
//!   view.
//! * **Coherent snapshots** ([`ShardedSnapshot`]) — one RAII handle
//!   capturing every shard at the same published fence.
//! * **Concatenated scans** ([`merge`]) — shards own disjoint ranges in
//!   routing order, so a global scan is the per-shard snapshot-consistent
//!   iterators one after another, each opened only when the scan reaches
//!   its shard (one more sorted level of the paper's `NewLevelIter`).
//! * **One shared worker pool** — under [`Maintenance::Background`] one
//!   flush and one compaction worker serve the whole engine: a single
//!   `scheduler` pool round-robins flush/compaction steps across all
//!   shards.
//! * **One log, replayed once** — each shard keeps its manifest and tables
//!   in its own `shard-<id>/` directory (`lsm_io::PrefixedStorage`) and
//!   no log of its own; the database's one log lives at the root, and
//!   [`ShardedDb::open`] replays it into the shards before the fence
//!   resumes (see below).
//!
//! ## Crash atomicity: one log
//!
//! The database keeps one log of `NNNNNN.wal` files at its root — the same
//! log a lone [`Db`] keeps (`crate::log`), rotated once its active file
//! holds a write buffer's bytes — and one writer queue for it. A group
//! commit appends one record holding its batches, each batch's ops in
//! routing order — op `i` at `first + i`, so each shard's part sits at its
//! sub-range — and syncs it once when any batch asks; only then do the
//! shards apply their parts, logging nothing themselves. The record is
//! each batch's commit point: a torn or CRC-corrupt frame is no record, so
//! a reopen replays the whole batch or none of it (RocksDB makes
//! cross-column-family batches atomic the same way, with one WAL every
//! family shares).
//!
//! A shard's manifest records `flushed <seq>`, as a lone `Db`'s does: every
//! op routed to it at or below `seq` is in its tables. [`ShardedDb::open`] opens every shard from
//! its tables, replays the log once — each op routed by key through the
//! sealed topology and applied only above its shard's `flushed` —,
//! keeps each file that held such an op as it lies (a file that held none
//! goes), and resumes the sequence at the highest seen. A log file is retired
//! once no shard holds an unflushed op at or below its last sequence; once
//! the live files pass a constant multiple of the write buffer, the shard
//! holding the oldest unflushed op is flushed, so a shard that stops
//! taking writes cannot pin the log.
//!
//! With `sync = false`, "crash" means the storage-operation prefix model
//! the harness tests; `WriteOptions::durable` syncs the record before the
//! batch is acknowledged.

//! ## Visibility (in-process)
//!
//! The fence makes cross-shard batches atomically visible **to multi-key
//! views** — snapshots and scans. No read takes the commit lock, which a
//! durable writer holds across its WAL sync. A pin loads, in order, each
//! shard's published view, then the fence `F`; it then re-checks each view
//! (`Arc::ptr_eq`) and retries if one moved, which only an install does.
//! Its invariant:
//!
//! > **Every entry ≤ `F` is in the pinned views, and no version ≤ `F` was
//! > dropped for one above `F`.**
//!
//! The first half holds because the views were still the published ones
//! when `F` was loaded, and the fence publishes a batch only after every
//! shard applied it to a buffer a published view already holds: its parts
//! are registered under each shard's tree lock, which an install also
//! holds. The second holds because a shard flushes only entries
//! the fence has published: a flush keeps a key's newest version only, so
//! a buffer holding `k@old ≤ F` and an unpublished `k@new > F` must not
//! reach a table. Every seal of a shard's buffer first waits for the fence
//! to cover the shard's last claimed sequence (`quiesce` reads the one
//! fence), and every synchronous-mode inline flush runs after its write
//! published (`Db::flush_deferred`).
//!
//! Bare point [`ShardedDb::get`]s read the owning shard's latest applied
//! state and make no cross-key promise (two separate `get`s are not a
//! cut, with or without sharding; use a [`ShardedSnapshot`] for one). A
//! failed log append or sync fails its group and uses its range up, as a
//! lone `Db`'s does, so no *later* commit reissues it — and a reopen
//! replays it whole if its record landed, and not at all if it did not.
//!
//! [`WriteBatch`]: crate::batch::WriteBatch
//! [`Maintenance::Background`]: crate::options::Maintenance::Background

mod commit_path;
pub mod merge;
mod open;
pub mod router;
mod stats;
pub mod topology;

pub use commit_path::{split_batch, LOG_BOUND_BUFFERS};
pub use merge::ShardedDbIterator;
pub use open::RecoveryReport;
pub use router::{imbalance, ShardRouter};
pub use stats::ShardedStats;
pub use topology::Topology;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use crate::cache::BlockCache;
use crate::db::{CommitLock, Db, WriterQueue};
use crate::log::Log;
use crate::options::{ReadOptions, ShardedOptions};
use crate::scheduler::{BgError, MaintSignal, Scheduler};
use crate::snapshot::Snapshot;
use crate::stats::DbStats;
use crate::types::SeqNo;
use crate::Result;
use lsm_obs::Observer;

/// The sealed topology materialized in memory: the router over its
/// boundary set and the open shard handles in routing order. Fixed for the
/// life of the open database.
pub struct RoutingState {
    epoch: u64,
    /// Stable shard ids in routing order (`ids[pos]` owns range slot
    /// `pos`; its directory is `shard-<id>/`).
    ids: Vec<u16>,
    router: ShardRouter,
    shards: Vec<Arc<Db>>,
}

impl RoutingState {
    /// The epoch of the sealed topology this state materializes.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The router over the sealed boundaries.
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// Stable shard ids in routing order.
    pub fn shard_ids(&self) -> &[u16] {
        &self.ids
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    fn shard(&self, pos: usize) -> &Arc<Db> {
        &self.shards[pos]
    }
}

impl std::fmt::Debug for RoutingState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RoutingState")
            .field("epoch", &self.epoch)
            .field("ids", &self.ids)
            .field("router", &self.router)
            .finish()
    }
}

/// A coherent point-in-time view across every shard: all per-shard
/// [`Snapshot`]s are pinned at the **same** published fence sequence, so a
/// cross-shard batch is either entirely inside or entirely outside the
/// view. Obtained from [`ShardedDb::snapshot`]; dropping releases every
/// per-shard pin.
#[derive(Debug)]
pub struct ShardedSnapshot {
    seq: SeqNo,
    state: Arc<RoutingState>,
    pins: Vec<Snapshot>,
}

impl ShardedSnapshot {
    /// The fence sequence every shard of this snapshot reads at.
    pub fn seq(&self) -> SeqNo {
        self.seq
    }

    pub(crate) fn shard(&self, i: usize) -> &Snapshot {
        &self.pins[i]
    }

    /// A second handle on the same pins, counted as live on its own.
    fn repin(&self) -> ShardedSnapshot {
        ShardedSnapshot {
            seq: self.seq,
            state: Arc::clone(&self.state),
            pins: self.pins.iter().map(Snapshot::repin).collect(),
        }
    }
}

/// Shared engine state behind [`ShardedDb`]: everything the foreground
/// API and the shared worker pool both touch (the sharding-layer analogue
/// of [`crate::db::DbCore`]).
struct ShardedCore {
    opts: ShardedOptions,
    /// The sealed topology's routing state; snapshots hold it too.
    state: Arc<RoutingState>,
    /// The database's one writer queue and its ceiling — the fence —, which
    /// every shard reads: a batch is published once every shard it lands
    /// in applied it.
    writers: Arc<WriterQueue>,
    /// The last sequence claimed, stored under the commit lock.
    claimed: AtomicU64,
    /// The commit lock: serializes claims — the log's records are in claim
    /// order because of it — and the log's upkeep. Shared with every shard
    /// so even a flush through [`ShardedDb::shard`] runs beside no claim.
    commit_lock: Arc<CommitLock>,
    /// The database's one log. Appends happen under the commit lock; the
    /// mutex only satisfies `&self` mutability.
    log: Mutex<Log>,
    /// What the open found.
    recovery: RecoveryReport,
    /// Shared wakeup channel: every shard's rotations/installs bump it,
    /// the global workers and stalled writers wait on it.
    signal: Arc<MaintSignal>,
    shutdown: Arc<AtomicBool>,
    /// The sharding layer's own counters (the log's appends, bytes and
    /// syncs), merged into [`ShardedDb::stats`] alongside the per-shard
    /// blocks.
    own_stats: DbStats,
    /// The shared event sink when `opts.base.observability` is on. Every
    /// shard's [`lsm_obs::EngineObs`] emits into this one bounded event
    /// buffer; the sharding layer's own events (the log's syncs and group
    /// commits) are tagged [`lsm_obs::GLOBAL_SHARD`].
    observer: Option<Arc<Observer>>,
    /// The engine cache shared by every shard — one byte budget for the
    /// whole topology. `None` when caching is off.
    cache: Option<Arc<BlockCache>>,
    /// The sharding layer's own standing background error (the log's
    /// upkeep after a commit) — never a commit error, those surface
    /// directly.
    bg_error: BgError,
}

/// An open sharded database. See the [module docs](self) for the design.
pub struct ShardedDb {
    core: Arc<ShardedCore>,
    /// The single shared worker pool (background maintenance only).
    scheduler: Option<Scheduler>,
}

impl ShardedDb {
    // -------------------------------------------------------------- reads

    /// Point lookup at the owning shard's latest applied state.
    ///
    /// A single-key read touches exactly one shard, so cross-shard
    /// atomicity cannot be observed through it; *multi*-key consistency
    /// (the all-or-nothing view of a cross-shard batch) is what
    /// [`ShardedDb::snapshot`] / [`ShardedDb::iter`] provide.
    pub fn get(&self, key: u64) -> Result<Option<Vec<u8>>> {
        let state = &self.core.state;
        (state.shard(state.router.shard_of(key))).get_with(key, &ReadOptions::new())
    }

    /// Point lookup through a pinned [`ShardedSnapshot`].
    pub fn get_at(&self, key: u64, snapshot: &ShardedSnapshot) -> Result<Option<Vec<u8>>> {
        let pos = snapshot.state.router.shard_of(key);
        snapshot
            .state
            .shard(pos)
            .get_with(key, &ReadOptions::at(snapshot.shard(pos)))
    }

    /// Acquire a coherent snapshot: every shard pinned at the same
    /// published fence.
    ///
    /// No lock is taken, so acquiring one never waits for a writer's sync:
    /// every shard's view, then the fence are loaded, and the pin is
    /// retried if a view moved meanwhile (see *Visibility* in the
    /// [module docs](self) for why each pinned view then holds exactly the
    /// batches at or below the fence).
    pub fn snapshot(&self) -> ShardedSnapshot {
        let state = &self.core.state;
        loop {
            let views: Vec<_> = state.shards.iter().map(|d| d.view()).collect();
            let seq = self.core.writers.visible();
            let settled = (state.shards.iter().zip(&views)).all(|(d, v)| Arc::ptr_eq(&d.view(), v));
            if settled {
                let pins = state.shards.iter().zip(views);
                return ShardedSnapshot {
                    seq,
                    pins: pins.map(|(d, v)| d.snapshot_at(seq, v)).collect(),
                    state: Arc::clone(state),
                };
            }
        }
    }

    /// Number of live per-shard snapshot handles (each
    /// [`ShardedSnapshot`] holds one per shard).
    pub fn live_snapshots(&self) -> usize {
        let shards = self.core.state.shards.iter();
        shards.map(|d| d.live_snapshots()).sum()
    }

    /// Globally ordered scan over the latest published state. The iterator
    /// owns a coherent [`ShardedSnapshot`] for its lifetime (counted in
    /// [`ShardedDb::live_snapshots`]), so the scan is stable and
    /// cut-consistent.
    pub fn iter(&self) -> Result<ShardedDbIterator> {
        Ok(ShardedDbIterator::new(self.snapshot()))
    }

    /// Globally ordered scan through a pinned [`ShardedSnapshot`]. The
    /// iterator holds pins of its own, so it may outlive `snapshot`.
    pub fn iter_at(&self, snapshot: &ShardedSnapshot) -> Result<ShardedDbIterator> {
        Ok(ShardedDbIterator::new(snapshot.repin()))
    }

    /// Range lookup: up to `limit` live pairs with key ≥ `start`, in global
    /// key order.
    pub fn scan(&self, start: u64, limit: usize) -> Result<Vec<(u64, Vec<u8>)>> {
        let started = self.core.observer.as_ref().map(|_| Instant::now());
        let snapshot = self.snapshot();
        // Attribute the scan to the shard owning its start key, so the
        // merged stats still count it exactly once.
        let owner = Arc::clone(snapshot.state.shard(snapshot.state.router.shard_of(start)));
        let mut it = ShardedDbIterator::new(snapshot);
        it.seek(start)?;
        let out = it.collect_up_to(limit)?;
        let stats = owner.stats();
        stats.scans.fetch_add(1, Ordering::Relaxed);
        stats
            .scan_entries
            .fetch_add(out.len() as u64, Ordering::Relaxed);
        if let (Some(obs), Some(started)) = (owner.observability(), started) {
            obs.ops.scan.record(started.elapsed().as_nanos() as u64);
        }
        Ok(out)
    }

    // ------------------------------------------------- flush / maintenance

    /// Flush every shard's memtable (and, under background maintenance,
    /// wait for the queues to drain), then retire the log files no shard
    /// needs any more.
    pub fn flush(&self) -> Result<()> {
        let core = &self.core;
        Db::flush_all(Some(&core.commit_lock), || core.state.shards.clone())?;
        let _commit = core.commit_lock.lock();
        core.maintain_log()
    }

    fn each_shard(&self, f: impl Fn(&Db)) {
        self.core.state.shards.iter().for_each(|d| f(d));
    }

    /// Block until every shard's eligible background maintenance is done.
    pub fn wait_for_maintenance(&self) {
        self.each_shard(Db::wait_for_maintenance);
    }

    /// Pause background flushes on every shard (testing/ops hook).
    pub fn pause_flushes(&self) {
        self.each_shard(Db::pause_flushes);
    }

    /// Resume background flushes on every shard.
    pub fn resume_flushes(&self) {
        self.each_shard(Db::resume_flushes);
    }

    /// Pause background compactions on every shard.
    pub fn pause_compactions(&self) {
        self.each_shard(Db::pause_compactions);
    }

    /// Resume background compactions on every shard.
    pub fn resume_compactions(&self) {
        self.each_shard(Db::resume_compactions);
    }

    /// The most recent background error: a shard worker's, or the
    /// sharding layer's own (the log's upkeep).
    pub fn background_error(&self) -> Option<String> {
        if let Some(e) = self.core.bg_error.get() {
            return Some(e);
        }
        (self.core.state.shards.iter()).find_map(|d| d.background_error())
    }

    /// Drain the shared pool and close every shard, surfacing any
    /// background error.
    pub fn close(mut self) -> Result<()> {
        self.shutdown_pool();
        self.core.bg_error.to_result()?;
        // The pool is drained, so there is nothing left to wait for:
        // `finish_flush` hands back a shard's standing flush error (or,
        // under synchronous maintenance, retries what a failed inline flush
        // left queued), and `standing_error` a failing compaction's.
        self.core.state.shards.iter().try_for_each(|d| {
            d.finish_flush()?;
            d.standing_error()
        })
    }

    fn shutdown_pool(&mut self) {
        if let Some(scheduler) = self.scheduler.take() {
            scheduler.shutdown(&self.core.signal, &self.core.shutdown);
        }
    }

    // ------------------------------------------------------- introspection

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.core.state.shards()
    }

    /// The epoch of the sealed topology.
    pub fn topology_epoch(&self) -> u64 {
        self.core.state.epoch
    }

    /// The routing state (epoch, router, stable ids).
    pub fn routing(&self) -> &RoutingState {
        &self.core.state
    }

    /// One shard's engine by routing position (read-only introspection).
    /// Its [`Db::write`] is refused: a write that bypassed the database's
    /// log would be lost by a crash. Its [`Db::flush`] serializes against
    /// commits.
    pub fn shard(&self, pos: usize) -> Arc<Db> {
        Arc::clone(self.core.state.shard(pos))
    }

    /// Entries resident per shard (tables + active memtable, including
    /// versions) — the balance the router is graded on.
    pub fn shard_entry_counts(&self) -> Vec<u64> {
        let shards = self.core.state.shards.iter();
        shards
            .map(|d| {
                let v = d.version();
                let tables: u64 = (0..v.levels.len()).map(|l| v.level_entries(l)).sum();
                tables + d.memtable_len() as u64
            })
            .collect()
    }

    /// Last sequence number published by the ceiling.
    pub fn latest_visible_seq(&self) -> SeqNo {
        self.core.writers.visible()
    }

    /// What the open found: the topology epoch it resumed at and the
    /// orphaned shard directories it swept.
    pub fn recovery_report(&self) -> RecoveryReport {
        self.core.recovery
    }

    /// The engine cache shared by every shard, when caching is on.
    pub fn cache(&self) -> Option<&Arc<BlockCache>> {
        self.core.cache.as_ref()
    }

    /// The shared event observer when `opts.base.observability` is on —
    /// front ends emit their own events (admission sheds) into it so the
    /// drained timeline covers the whole stack.
    pub fn observer(&self) -> Option<&Arc<Observer>> {
        self.core.observer.as_ref()
    }

    /// The worst [`WritePressure`](crate::WritePressure) across the
    /// shards — a cross-shard batch stalls on its most pressured
    /// participant, so this is what a front end's admission control should
    /// consult before accepting a write.
    pub fn write_pressure(&self) -> crate::WritePressure {
        let shards = self.core.state.shards.iter();
        (shards.map(|d| d.write_pressure()).max()).unwrap_or(crate::WritePressure::Clear)
    }
}

impl Drop for ShardedDb {
    fn drop(&mut self) {
        self.shutdown_pool();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::Options;
    use crate::Error;

    /// `close` hands back a shard worker's failure as the variant it was: a
    /// full device under the shutdown drain's flush is an I/O error.
    #[test]
    fn close_reports_a_shard_workers_io_failure_as_io() {
        let (storage, faults) = lsm_io::FaultStorage::wrap(Arc::new(lsm_io::MemStorage::new()));
        let mut base = Options::small_for_tests();
        base.maintenance = crate::options::Maintenance::background();
        let opts = ShardedOptions::learned(2, (0..200).collect(), base);
        let db = ShardedDb::open(storage, opts).expect("open");
        db.pause_flushes();
        for k in 0..200u64 {
            db.put(k, b"queued").expect("put");
        }
        // Paused: every shard's buffer is rotated and left queued for the
        // drain, which then meets the failure on a worker thread.
        db.flush().expect("rotate");
        faults.fail_writes_after(0);
        assert!(matches!(db.close(), Err(Error::Io(_))));
    }

    /// A shard's failing compaction is not a sharded flush's error — the
    /// flush did flush and returns `Ok` — but `close` still reports it. The
    /// shard's L0→L1 merge fails reading its poisoned L1 input.
    #[test]
    fn close_reports_a_shards_standing_compaction_error() {
        let (storage, faults) = lsm_io::FaultStorage::wrap(Arc::new(lsm_io::MemStorage::new()));
        let mut base = Options::small_for_tests();
        base.sstable_target_bytes = 1 << 20;
        base.maintenance = crate::options::Maintenance::background();
        let db = ShardedDb::open(storage, ShardedOptions::learned(1, vec![], base)).expect("open");
        let load = |round: u64| {
            for k in 0..300u64 {
                db.put(k, &round.to_le_bytes()).expect("put");
            }
            db.flush()
        };
        for round in 0..2 {
            load(round).expect("flush");
        }
        db.wait_for_maintenance();
        let version = db.shard(0).version();
        let [l1] = version.levels[1].as_slice() else {
            panic!("one L1 table: {}", version.levels[1].len());
        };
        db.pause_compactions();
        let dir = Topology::shard_dir(db.routing().ids[0]);
        faults.poison(&format!("{dir}{}", l1.meta.name));
        for round in 2..4 {
            load(round).expect("flush");
        }
        db.resume_compactions();
        let deadline = Instant::now() + std::time::Duration::from_secs(30);
        while db.background_error().is_none() {
            assert!(Instant::now() < deadline, "the compaction never failed");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        db.pause_compactions();
        assert!(load(4).is_ok(), "a flush that flushed returns Ok");
        let closed = db.close();
        assert!(matches!(closed, Err(Error::Io(_))), "{closed:?}");
    }
}
