//! Sharded engine: many [`Db`] shards behind one `Db`-shaped facade, with
//! a routing topology that changes **online**.
//!
//! [`ShardedDb`] range-partitions the key space across `N` independent
//! LSM-trees — every shard owns one contiguous key range — and exposes
//! the same `write`/`get`/`iter`/`snapshot` surface as a single [`Db`]:
//!
//! * **Learned range routing** ([`router`]) — what is learned is the
//!   shard boundaries: they are cut at the quantiles of a sampled key
//!   distribution, so each shard holds an ≈equal share of the data even on
//!   heavily skewed key spaces. Routing is one binary search over those
//!   few cuts. With no usable sample the first cuts are equal-width and
//!   splitting (below) re-learns them.
//! * **Epoch'd routing topology** ([`topology`]) — the shard set itself is
//!   a versioned, crash-atomically persisted artifact (`SHARDING-<epoch>`,
//!   CRC-sealed like the per-shard manifests). A reopen adopts whatever
//!   the last sealed topology says — the shard count is a property of the
//!   *data*, not of the open call — and a live **split** (below) replaces
//!   one hot shard with two children in a single epoch publish. Every
//!   shard has a *stable id* (its `shard-<id>/` directory) that never
//!   changes as routing positions shift.
//! * **Live shard splitting** — when one shard's resident bytes outgrow
//!   the fair target share past
//!   [`crate::ShardedOptions::split_imbalance`], the hot shard is drained
//!   through its pinned iterator into two child shards at an **exact
//!   peel-or-halve quantile** of its own data, **without blocking
//!   readers**: the boundaries keep being re-learned from the data as it
//!   grows. See *The split protocol* below.
//! * **Cross-shard atomic batches** ([`split`]) — a [`WriteBatch`] is
//!   split per shard and committed under one *shared sequence fence*: the
//!   whole batch gets one contiguous global sequence range (each shard a
//!   sub-range) and one record in the database's one log, and the fence's
//!   published ceiling advances only after every shard has applied.
//!   Snapshots and scans read at the published fence, pinned without the
//!   commit lock (see *Visibility*), so a multi-shard batch is
//!   **all-or-nothing visible** to every multi-key view.
//! * **Coherent snapshots** ([`ShardedSnapshot`]) — one RAII handle
//!   capturing every shard at the same published fence **and at the
//!   topology epoch of acquisition**: reads and scans through it resolve
//!   through the pinned epoch's shard set, so a split published after the
//!   snapshot cannot reroute (or lose) anything it sees.
//! * **Concatenated scans** ([`merge`]) — shards own disjoint ranges in
//!   routing order, so a global scan is the per-shard snapshot-consistent
//!   iterators one after another, each opened only when the scan reaches
//!   its shard (one more sorted level of the paper's `NewLevelIter`),
//!   sourced from the pinned epoch.
//! * **One shared worker pool** — under [`Maintenance::Background`] one
//!   flush and one compaction worker serve the whole engine: a single
//!   `scheduler` pool round-robins flush/compaction steps across all
//!   shards (the step closures re-derive the shard list each pass, so
//!   split children join and retired parents leave the rotation live),
//!   and split evaluation itself runs as a background maintenance step on
//!   the same pool.
//! * **One log, replayed once** — each shard keeps its manifest and tables
//!   in its own `shard-<id>/` directory (`lsm_io::PrefixedStorage`) and
//!   no log of its own; the database's one log lives at the root, and
//!   [`ShardedDb::open`] replays it into the shards before the fence
//!   resumes (see below).
//!
//! ## The split protocol (dual-write window + one-epoch cutover)
//!
//! A split of the shard at routing position `p` with cut key `m`:
//!
//! 1. **Begin** (under the commit lock, brief): two child shards with
//!    fresh stable ids are created and recorded as the pending split
//!    (which is what puts them in the worker pool's rotation), and a drain
//!    snapshot of the parent is pinned at the current fence `F₀`.
//!    From this moment the **dual-write window** is open: every committed
//!    write routed to the parent is *also* applied to the matching child's
//!    memtable (same global sequence sub-range; the log holds it once, as
//!    the parent's), while reads keep resolving through the parent.
//! 2. **Drain** (no lock): the parent's pinned image is iterated and
//!    copied into the children — keys `< m` left, `≥ m` right — with
//!    sequence numbers `1..=n ≤ F₀`, i.e. strictly below every
//!    dual-written version, so "newest version wins" merges the drain and
//!    the window correctly no matter how they interleave.
//! 3. **Cutover** (under the commit lock): the children are flushed (the
//!    log holds none of their drained entries; children that still buffer
//!    defer the cutover), the topology is sealed at `epoch+1` (the **single**
//!    storage-visible commit point of the split), the in-memory routing
//!    state is swapped, and the parent leaves the worker rotation. The
//!    parent directory is retired best-effort; recovery sweeps leftovers.
//!
//! **The dual-write-window invariant**: between begin and cutover, every
//! write acknowledged to a client exists in *both* the parent and the
//! children, so the last sealed topology is always self-sufficient — a
//! crash at any storage-operation boundary resolves via that topology
//! alone: before the seal the parent replays and the children are
//! discarded as orphans; after it the children replay and the parent is
//! the orphan. Neither path consults the other side. Snapshots pinned
//! before the cutover keep reading the parent through their pinned epoch.
//! A child-side write error during the window cancels the split (children
//! are incomplete, so they are abandoned); it never fails the client's
//! commit, because the parent — still the routed truth — applied it.
//!
//! ## Crash atomicity: one log
//!
//! The database keeps one log of `NNNNNN.wal` files at its root — the same
//! log a lone [`Db`] keeps (`crate::log`), rotated once its active file
//! holds a write buffer's bytes. A commit appends one record holding the batch's ops grouped by shard in
//! routing order — op `i` at `first + i`, so each shard's part sits at its
//! sub-range — and syncs it when `WriteOptions::sync` asks; only then do
//! the shards apply their parts, logging nothing themselves. The record is
//! the batch's commit point: a torn or CRC-corrupt frame is no record, so a
//! reopen replays the whole batch or none of it (RocksDB makes
//! cross-column-family batches atomic the same way, with one WAL every
//! family shares).
//!
//! A shard's manifest records `flushed <seq>`, as a lone `Db`'s does: every
//! op routed to it at or below `seq` is in its tables. [`ShardedDb::open`] opens every shard from
//! its tables, replays the log once — each op routed by key through the
//! last sealed topology and applied only above its shard's `flushed` —,
//! keeps each file that held such an op as it lies (a file that held none
//! goes), and resumes the fence at the highest sequence seen. A log file is retired
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
//! durable writer holds across its WAL sync. A pin loads, in order, the
//! routing state, each shard's published view, then the fence `F`; it then
//! re-checks the epoch and each view (`Arc::ptr_eq`) and retries if either
//! moved, which only an install or a cutover does. Its invariant:
//!
//! > **Every entry ≤ `F` is in the pinned views, and no version ≤ `F` was
//! > dropped for one above `F`.**
//!
//! The first half holds because the views were still the published ones
//! when `F` was loaded, and the fence publishes a batch only after every
//! shard applied it to a buffer a published view already holds (a cutover
//! swaps the state under the commit lock, so a fence loaded after it
//! would fail the epoch re-check). The second holds because a shard
//! flushes only entries the fence has published: a flush keeps a key's
//! newest version only, so a buffer holding `k@old ≤ F` and an unpublished
//! `k@new > F` must not reach a table. A shard's buffer is sealed only
//! under the commit lock, and never while it holds part of the batch in
//! flight: admission control seals it before that part lands, and every
//! synchronous-mode inline flush runs after the fence publish
//! (`Db::flush_deferred`). A split's children flush at once — no reader can
//! pin them before the cutover.
//!
//! Bare point [`ShardedDb::get`]s read the owning shard's latest applied
//! state and make no cross-key promise (two separate `get`s are not a
//! cut, with or without sharding; use a [`ShardedSnapshot`] for one); a
//! `get` that races a topology cutover re-checks the epoch and retries,
//! so it never returns a value staler than the shard that owned the key
//! when the read began. A
//! failed log append or sync poisons the write path (reads stay
//! available), so no *later* commit can ever publish a fence past the
//! failed batch — and a reopen replays it whole if its record landed,
//! and not at all if it did not.
//!
//! [`WriteBatch`]: crate::batch::WriteBatch
//! [`Maintenance::Background`]: crate::options::Maintenance::Background

mod commit_path;
pub mod merge;
mod open;
pub mod router;
pub mod split;
mod stats;
pub mod topology;

pub use commit_path::LOG_BOUND_BUFFERS;
pub use merge::ShardedDbIterator;
pub use open::RecoveryReport;
pub use router::{imbalance, ShardRouter};
pub use split::{split_batch, split_by_cut};
pub use stats::ShardedStats;
pub use topology::Topology;

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Mutex, RwLock};

use crate::cache::BlockCache;
use crate::db::{CommitCoordination, Db};
use crate::log::Log;
use crate::options::{ReadOptions, ShardedOptions};
use crate::scheduler::{BgError, MaintSignal, Scheduler};
use crate::snapshot::Snapshot;
use crate::stats::DbStats;
use crate::types::SeqNo;
use crate::{Error, Result};
use lsm_io::Storage;
use lsm_obs::Observer;

/// Epoch-change retries a bare [`ShardedDb::get`] absorbs before giving
/// up with [`Error::Unavailable`]. A retry only happens when a split's
/// cutover published a new topology *between* the read resolving and its
/// epoch re-check, so consecutive retries require consecutive cutovers —
/// more than a handful in one read means the topology is churning faster
/// than reads can land, and spinning further just adds load.
pub const MAX_GET_RETRIES: usize = 8;

/// The shared sequence fence: one global allocator + one published
/// visibility ceiling for all shards.
///
/// `next` is the last sequence number handed out; `visible` is the last
/// sequence number whose batch has been fully applied on every shard it
/// touches. `visible` trails `next` only while a commit is in flight, and
/// every read path uses `visible` as its ceiling — which is exactly what
/// makes a cross-shard batch all-or-nothing visible.
#[derive(Debug)]
struct SeqFence {
    next: AtomicU64,
    visible: AtomicU64,
}

/// One topology epoch materialized in memory: the router over its
/// boundary set and the open shard handles in routing order. Immutable —
/// a topology change (a split's cutover) swaps in a whole new state, so
/// everything that captured an `Arc<RoutingState>` (snapshots, iterators,
/// in-flight reads) keeps resolving through the epoch it started at.
pub struct RoutingState {
    epoch: u64,
    /// Stable shard ids in routing order (`ids[pos]` owns range slot
    /// `pos`; its directory is `shard-<id>/`).
    ids: Vec<u16>,
    router: ShardRouter,
    shards: Vec<Arc<Db>>,
}

impl RoutingState {
    /// The topology epoch this state materializes.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The router in effect at this epoch.
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// Stable shard ids in routing order.
    pub fn shard_ids(&self) -> &[u16] {
        &self.ids
    }

    /// Number of shards at this epoch.
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
/// [`Snapshot`]s are pinned at the **same** published fence sequence and
/// the **same** topology epoch, so a cross-shard batch is either entirely
/// inside or entirely outside the view and a later split cannot reroute
/// what it reads. Obtained from [`ShardedDb::snapshot`]; dropping
/// releases every per-shard pin.
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

    /// The topology epoch this snapshot resolves through.
    pub fn epoch(&self) -> u64 {
        self.state.epoch
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

/// A split in flight: children exist and receive dual writes, but the
/// topology still names the parent. Shared between the committer (which
/// mirrors writes under the commit lock) and the drain.
struct PendingSplit {
    parent_pos: usize,
    parent_id: u16,
    cut: u64,
    left_id: u16,
    right_id: u16,
    left: Arc<Db>,
    right: Arc<Db>,
    /// Set once the drain has fully copied the parent's pinned image —
    /// the precondition for any cutover. A `finish_split` racing a drain
    /// still in flight (another worker resuming the pending split) must
    /// refuse until this is set, or it would publish half-drained
    /// children.
    drained: AtomicBool,
    /// Set when the split is abandoned (a child write failed, or an
    /// explicit abort): the drain stops, the cutover refuses, and the
    /// children are discarded.
    cancelled: AtomicBool,
    /// Observability span id tying this split's begin / dual-write /
    /// cutover events together (0 when observability is off).
    span: u64,
}

/// Shared engine state behind [`ShardedDb`]: everything the foreground
/// API and the background split/maintenance steps both touch (the
/// sharding-layer analogue of [`crate::db::DbCore`]).
struct ShardedCore {
    storage: Arc<dyn Storage>,
    opts: ShardedOptions,
    /// The current topology epoch's routing state. Swapped whole at a
    /// split's cutover; readers clone the `Arc` and keep their epoch.
    state: RwLock<Arc<RoutingState>>,
    /// The persisted form of the current topology (authoritative id
    /// allocator + boundary set).
    topology: Mutex<Topology>,
    fence: SeqFence,
    /// The commit lock (serializes commits — the log's records and the
    /// fence's publishes are in allocation order because of it) and the
    /// poison flag (set when a log append or sync failed: writes and
    /// flushes are refused so a partial batch can neither become visible
    /// nor durable in this process). Shared with every shard so even a
    /// flush through [`ShardedDb::shard`] honours both.
    coordination: Arc<CommitCoordination>,
    /// The database's one log. Appends happen under the commit lock; the
    /// mutex only satisfies `&self` mutability.
    log: Mutex<Log>,
    /// What the open found.
    recovery: RecoveryReport,
    /// Shared wakeup channel: every shard's rotations/installs bump it,
    /// the global workers and stalled writers wait on it.
    signal: Arc<MaintSignal>,
    shutdown: Arc<AtomicBool>,
    /// The split in flight, if any (at most one at a time).
    pending: Mutex<Option<Arc<PendingSplit>>>,
    /// The sharding layer's own counters (splits, the log's appends and
    /// syncs), merged into [`ShardedDb::stats`] alongside the per-shard
    /// blocks.
    own_stats: DbStats,
    /// The shared event sink when `opts.base.observability` is on. Every
    /// shard's [`EngineObs`] emits into this one bounded event buffer; the
    /// sharding layer's own lifecycle events (splits, checkpoints) are
    /// tagged [`GLOBAL_SHARD`].
    observer: Option<Arc<Observer>>,
    /// Stable-id allocator (persisted via the topology at each cutover;
    /// ids burned by an aborted split are not reused in-process).
    next_shard_id: AtomicU32,
    /// The engine cache shared by every shard — one byte budget for the
    /// whole topology; split children open against it too. `None` when
    /// caching is off.
    cache: Option<Arc<BlockCache>>,
    /// Write-batch counter driving the synchronous-mode split check.
    write_ticks: AtomicU64,
    /// The sharding layer's own standing background error (a failed
    /// split) — never a commit error, those surface directly.
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
    /// [`ShardedDb::snapshot`] / [`ShardedDb::iter`] provide. The read
    /// re-checks the topology epoch after resolving: if a split cut over
    /// mid-read, it retries against the new shard set, so it never
    /// returns a retired shard's stale state. Retries are capped at
    /// [`MAX_GET_RETRIES`]; past that the read fails with
    /// [`Error::Unavailable`] instead of spinning against a topology that
    /// keeps churning (retry, or pin a [`ShardedDb::snapshot`], which
    /// never retries).
    pub fn get(&self, key: u64) -> Result<Option<Vec<u8>>> {
        self.core.get_with_retries(key, MAX_GET_RETRIES)
    }

    /// Point lookup through a pinned [`ShardedSnapshot`] — routed through
    /// the snapshot's own topology epoch.
    pub fn get_at(&self, key: u64, snapshot: &ShardedSnapshot) -> Result<Option<Vec<u8>>> {
        let pos = snapshot.state.router.shard_of(key);
        snapshot
            .state
            .shard(pos)
            .get_with(key, &ReadOptions::at(snapshot.shard(pos)))
    }

    /// Acquire a coherent snapshot: every shard pinned at the same
    /// published fence and the current topology epoch.
    ///
    /// No lock is taken, so acquiring one never waits for a writer's sync:
    /// the routing state, then every shard's view, then the fence are
    /// loaded, and the pin is retried if a view or the epoch moved
    /// meanwhile (see *Visibility* in the [module docs](self) for why each
    /// pinned view then holds exactly the batches at or below the fence). A
    /// split publishing a new epoch later leaves the handle reading the
    /// shard set it pinned.
    pub fn snapshot(&self) -> ShardedSnapshot {
        let core = &self.core;
        loop {
            let state = core.current_state();
            let views: Vec<_> = state.shards.iter().map(|d| d.view()).collect();
            let seq = core.fence.visible.load(Ordering::Acquire);
            let settled = core.state_epoch() == state.epoch
                && (state.shards.iter().zip(&views)).all(|(d, v)| Arc::ptr_eq(&d.view(), v));
            if settled {
                let pins = state.shards.iter().zip(views);
                return ShardedSnapshot {
                    seq,
                    pins: pins.map(|(d, v)| d.snapshot_at(seq, v)).collect(),
                    state,
                };
            }
        }
    }

    /// Number of live per-shard snapshot handles on the current topology
    /// (each [`ShardedSnapshot`] holds one per shard of its epoch).
    pub fn live_snapshots(&self) -> usize {
        let state = self.core.current_state();
        state.shards.iter().map(|d| d.live_snapshots()).sum()
    }

    /// Globally ordered scan over the latest published state. The iterator
    /// owns a coherent [`ShardedSnapshot`] for its lifetime (counted in
    /// [`ShardedDb::live_snapshots`]), so the scan is stable and
    /// cut-consistent.
    pub fn iter(&self) -> Result<ShardedDbIterator> {
        Ok(ShardedDbIterator::new(self.snapshot()))
    }

    /// Globally ordered scan through a pinned [`ShardedSnapshot`],
    /// sourced from the snapshot's own topology epoch. The iterator holds
    /// pins of its own, so it may outlive `snapshot`.
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
        let pick = || core.current_state().shards.clone();
        Db::flush_all(Some(&core.coordination), pick)?;
        let _commit = core.coordination.enter()?;
        core.maintain_log(&core.current_state())
    }

    fn each_shard(&self, f: impl Fn(&Db)) {
        self.core.current_state().shards.iter().for_each(|d| f(d));
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
    /// sharding layer's own (a failed background split).
    pub fn background_error(&self) -> Option<String> {
        if let Some(e) = self.core.bg_error.get() {
            return Some(e);
        }
        self.core
            .current_state()
            .shards
            .iter()
            .find_map(|d| d.background_error())
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
        let state = self.core.current_state();
        state.shards.iter().try_for_each(|d| {
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

    /// Number of shards in the current topology.
    pub fn shard_count(&self) -> usize {
        self.core.current_state().shards()
    }

    /// The current topology epoch.
    pub fn topology_epoch(&self) -> u64 {
        self.core.state_epoch()
    }

    /// The current routing state (epoch, router, stable ids). The handle
    /// is a pinned `Arc`: it stays valid — and keeps answering for its
    /// epoch — even if a split publishes a newer topology afterwards.
    pub fn routing(&self) -> Arc<RoutingState> {
        self.core.current_state()
    }

    /// One shard's engine by routing position (read-only introspection).
    /// Its [`Db::write`] is refused: a write that bypassed the database's
    /// log would be lost by a crash. Its [`Db::flush`] serializes against
    /// commits and refuses while the write path is poisoned.
    pub fn shard(&self, pos: usize) -> Arc<Db> {
        Arc::clone(self.core.current_state().shard(pos))
    }

    /// Entries resident per shard (tables + active memtable, including
    /// versions) — the balance the router is graded on.
    pub fn shard_entry_counts(&self) -> Vec<u64> {
        Self::entry_counts(&self.core.current_state())
    }

    fn entry_counts(state: &RoutingState) -> Vec<u64> {
        state
            .shards
            .iter()
            .map(|d| {
                let v = d.version();
                let tables: u64 = (0..v.levels.len()).map(|l| v.level_entries(l)).sum();
                tables + d.memtable_len() as u64
            })
            .collect()
    }

    /// Last sequence number published by the fence.
    pub fn latest_visible_seq(&self) -> SeqNo {
        self.core.fence.visible.load(Ordering::Acquire)
    }

    /// What the open found: the topology epoch it resumed at and the
    /// orphaned split directories it swept.
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
    /// current topology's shards — a cross-shard batch stalls on its most
    /// pressured participant, so this is what a front end's admission
    /// control should consult before accepting a write.
    pub fn write_pressure(&self) -> crate::WritePressure {
        let state = self.core.current_state();
        state
            .shards
            .iter()
            .map(|d| d.write_pressure())
            .max()
            .unwrap_or(crate::WritePressure::Clear)
    }

    /// Whether a commit's log append or sync failed in this process:
    /// writes and flushes are refused (with a typed error) until the
    /// database is reopened, which replays the batch whole if its record
    /// landed. Reads keep working.
    pub fn poisoned(&self) -> bool {
        self.core.coordination.poisoned.load(Ordering::Acquire)
    }
}

impl Drop for ShardedDb {
    fn drop(&mut self) {
        self.shutdown_pool();
    }
}

impl ShardedCore {
    fn current_state(&self) -> Arc<RoutingState> {
        Arc::clone(&self.state.read())
    }

    fn state_epoch(&self) -> u64 {
        self.state.read().epoch
    }

    /// Unpinned point lookup with a bounded epoch-change retry budget
    /// (see [`ShardedDb::get`] for the consistency argument); `retries == 0`
    /// means one attempt, failing on any concurrent cutover.
    fn get_with_retries(&self, key: u64, retries: usize) -> Result<Option<Vec<u8>>> {
        let mut attempts = 0usize;
        loop {
            let state = self.current_state();
            let v = state
                .shard(state.router.shard_of(key))
                .get_with(key, &ReadOptions::new())?;
            if self.state_epoch() == state.epoch {
                return Ok(v);
            }
            attempts += 1;
            if attempts > retries {
                return Err(Error::Unavailable(format!(
                    "get({key}) lost an epoch race {attempts} times (topology \
                     churning); retry or read through a pinned snapshot"
                )));
            }
        }
    }

    fn auto_split_enabled(&self) -> bool {
        self.opts.auto_split && self.opts.max_shards > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::Options;

    /// The bare-`get` retry budget is a hard cap: under a topology that
    /// changes epoch faster than a read can land, the read fails with
    /// `Error::Unavailable` instead of spinning forever; once the churn
    /// stops, reads succeed again.
    #[test]
    fn capped_get_retries_surface_unavailable_under_epoch_churn() {
        let opts = ShardedOptions::learned(2, vec![7], Options::small_for_tests());
        let db = ShardedDb::open_memory(opts).expect("open");
        db.put(7, b"seven").expect("put");

        // Simulated cutover churn: keep republishing the same shard set at
        // a bumped epoch, which is exactly what `get`'s re-check observes
        // when a real split cuts over mid-read.
        let core = Arc::clone(&db.core);
        let stop = Arc::new(AtomicBool::new(false));
        let churn = {
            let core = Arc::clone(&core);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let bumped = {
                        let cur = core.state.read();
                        Arc::new(RoutingState {
                            epoch: cur.epoch + 1,
                            ids: cur.ids.clone(),
                            router: ShardRouter::with_boundaries(cur.router.boundaries().to_vec()),
                            shards: cur.shards.clone(),
                        })
                    };
                    *core.state.write() = bumped;
                }
            })
        };

        // With a zero retry budget and the epoch advancing continuously,
        // some read must lose the race and surface the typed error (one
        // attempt is overwhelmingly likely to; we allow many).
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let mut saw_unavailable = false;
        while std::time::Instant::now() < deadline {
            match db.core.get_with_retries(7, 0) {
                Err(Error::Unavailable(msg)) => {
                    assert!(msg.contains("epoch race"), "unexpected message: {msg}");
                    saw_unavailable = true;
                    break;
                }
                Ok(v) => assert_eq!(v.as_deref(), Some(&b"seven"[..])),
                Err(e) => panic!("unexpected error under churn: {e}"),
            }
        }
        stop.store(true, Ordering::Relaxed);
        churn.join().unwrap();
        assert!(
            saw_unavailable,
            "zero-budget get never lost an epoch race against continuous churn"
        );

        // Churn stopped: the same bare read succeeds with the default cap.
        assert_eq!(db.get(7).expect("get").as_deref(), Some(&b"seven"[..]));
        db.close().expect("close");
    }

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
