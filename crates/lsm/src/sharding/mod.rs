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
//!   sub-range, one group-commit WAL record per touched shard), and the
//!   fence's published ceiling advances only after every shard has
//!   applied. Snapshots and merged scans read at the published fence
//!   (pinned under the commit lock), so a multi-shard batch is
//!   **all-or-nothing visible** to every multi-key view.
//! * **Coherent snapshots** ([`ShardedSnapshot`]) — one RAII handle
//!   capturing every shard at the same published fence **and at the
//!   topology epoch of acquisition**: reads and merged scans through it
//!   resolve through the pinned epoch's shard set, so a split published
//!   after the snapshot cannot reroute (or lose) anything it sees.
//! * **Merged scans** ([`merge`]) — per-shard snapshot-consistent
//!   iterators merged by the engine's one loser-tree
//!   [`crate::iter::Merge`] into one globally ordered scan, sourced from
//!   the pinned epoch.
//! * **One shared worker pool** — under [`Maintenance::Background`] the
//!   thread counts are a *global* budget: a single `scheduler` pool
//!   round-robins flush/compaction steps across all shards (the step
//!   closures re-derive the shard list each pass, so split children join
//!   and retired parents leave the rotation live), and split evaluation
//!   itself runs as a background maintenance step on the same pool.
//! * **Coordinated crash recovery** — each shard keeps its own manifest +
//!   WALs in its own `shard-<id>/` directory (`lsm_io::PrefixedStorage`),
//!   and a recovery coordinator in [`ShardedDb::open`] resolves
//!   cross-shard batches to committed/aborted before the fence resumes
//!   (see below).
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
//!    write routed to the parent is *also* applied to the matching child
//!    (same global sequence sub-range, plain WAL records), while reads
//!    keep resolving through the parent.
//! 2. **Drain** (no lock): the parent's pinned image is iterated and
//!    copied into the children — keys `< m` left, `≥ m` right — with
//!    sequence numbers `1..=n ≤ F₀`, i.e. strictly below every
//!    dual-written version, so "newest version wins" merges the drain and
//!    the window correctly no matter how they interleave.
//! 3. **Cutover** (under the commit lock): the children are flushed
//!    durable, the topology is sealed at `epoch+1` (the **single**
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
//! ## Crash atomicity: the prepare/commit protocol
//!
//! Per-shard WALs are independent, so without coordination a crash
//! between two shards' appends would resurrect a torn batch after
//! recovery. Cross-shard batches therefore commit in two steps:
//!
//! 1. **Prepare** — each touched shard's group-commit WAL record is
//!    written as a *prepare* record (format 2), tagged with the batch's
//!    global sequence range and participant set of **stable shard ids**
//!    (ids survive topology changes, so a prepare written at epoch `e`
//!    still resolves after any number of splits).
//! 2. **Commit** — after every prepare is appended, one marker record in
//!    the per-database [`commit`] log (`COMMIT-<n>`, at the root next to
//!    the topology files) seals the batch, stamped with the topology
//!    epoch it was routed at. That single CRC-framed append is the
//!    batch's commit point. Only then does the fence publish the batch.
//!
//! On [`ShardedDb::open`], the recovery coordinator reads the marker log
//! once (the union of all generations), then recovers every shard with a
//! resolver: a replayed prepare whose marker is present is applied (and
//! re-logged as a plain record); one whose marker is absent — the crash
//! landed anywhere before the seal, including mid-marker (a torn marker
//! is no marker) — is suppressed on every shard, so the batch aborts
//! everywhere. Single crash, crash during recovery, crash during the
//! recovery of *that* recovery: the resolution is idempotent, because
//! markers are truncated only after every shard has re-opened and
//! re-logged its surviving fragments as self-certifying plain records.
//! [`RecoveryReport`] says what the coordinator decided, and how many
//! orphaned split directories were swept.
//!
//! The marker log is additionally **checkpointed at runtime**: once it
//! grows past [`crate::ShardedOptions::commit_log_checkpoint_bytes`],
//! every shard is flushed and markers below the flush watermark are
//! dropped into a fresh generation (`CommitLog::checkpoint`),
//! so long-lived heavy cross-shard traffic no longer grows it without
//! bound.
//!
//! Two scope notes. Batches that touch a single shard skip the marker
//! (their one WAL record is already all-or-nothing on replay). And with
//! `sync = false`, "crash" means the
//! storage-operation prefix model the harness tests (an OS that reorders
//! unsynced appends across files can still tear a batch — same caveat as
//! LevelDB); `WriteOptions::durable` closes that too, syncing every
//! prepare before the marker is sealed.
//!
//! ## Visibility (in-process)
//!
//! The fence makes cross-shard batches atomically visible **to multi-key
//! views** — snapshots and merged scans. Bare point [`ShardedDb::get`]s
//! read the owning shard's latest applied state and make no cross-key
//! promise (two separate `get`s are not a cut, with or without sharding;
//! use a [`ShardedSnapshot`] for one); a `get` that races a topology
//! cutover re-checks the epoch and retries, so it never returns a value
//! staler than the shard that owned the key when the read began. A
//! storage error mid-commit poisons the write path (reads stay
//! available), so no *later* commit can ever publish a fence past the
//! orphaned sub-batches — and since the batch was never sealed, a reopen
//! aborts it everywhere.
//!
//! [`WriteBatch`]: crate::batch::WriteBatch
//! [`Maintenance::Background`]: crate::options::Maintenance::Background

pub mod commit;
mod commit_path;
pub mod merge;
mod open;
pub mod router;
pub mod split;
mod stats;
pub mod topology;

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
    /// The commit lock (serializes cross-shard commits — the fence
    /// publishes in allocation order because of it) and the poison flag
    /// (set when a commit failed after touching some shards: writes and
    /// flushes are refused so the partial batch can neither become
    /// visible nor durable in this process). Shared with every shard so
    /// even a flush through [`ShardedDb::shard`] honours both.
    coordination: Arc<CommitCoordination>,
    /// Commit-marker log sealing cross-shard batches (`None` when the WAL
    /// is disabled — nothing to seal). Appends happen under the commit
    /// lock; the inner mutex only satisfies `&self` mutability.
    commit_log: Option<Mutex<commit::CommitLog>>,
    /// What recovery resolved when this handle was opened.
    recovery: RecoveryReport,
    /// Shared wakeup channel: every shard's rotations/installs bump it,
    /// the global workers and stalled writers wait on it.
    signal: Arc<MaintSignal>,
    shutdown: Arc<AtomicBool>,
    /// The split in flight, if any (at most one at a time).
    pending: Mutex<Option<Arc<PendingSplit>>>,
    /// The sharding layer's own counters (splits, checkpoints), merged
    /// into [`ShardedDb::stats`] alongside the per-shard blocks.
    own_stats: DbStats,
    /// The shared event sink when `opts.base.observability` is on. Every
    /// shard's [`EngineObs`] emits into this one ring; the sharding
    /// layer's own lifecycle events (splits, checkpoints) are tagged
    /// [`GLOBAL_SHARD`].
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
    /// The sharding layer's own standing background error (failed split
    /// or checkpoint) — never a commit error, those surface directly.
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
    /// The pins are taken under the commit lock, so no cross-shard batch
    /// is mid-flight while any shard is captured: each pinned state
    /// contains exactly the batches at or below the fence. (Pinning
    /// *after* a bare fence read would race background flushes, whose
    /// newest-version-per-key retention can drop a sub-fence version in
    /// the window — the lock closes it.) Snapshot acquisition therefore
    /// serializes briefly with writes; reads through the handle never do
    /// — and a split publishing a new epoch later leaves the handle
    /// reading the shard set it pinned.
    pub fn snapshot(&self) -> ShardedSnapshot {
        let _commit = self.core.coordination.lock.lock();
        let state = self.core.current_state();
        let seq = self.core.fence.visible.load(Ordering::Acquire);
        ShardedSnapshot {
            seq,
            pins: state.shards.iter().map(|d| d.snapshot_at(seq)).collect(),
            state,
        }
    }

    /// Number of live per-shard snapshot handles on the current topology
    /// (each [`ShardedSnapshot`] holds one per shard of its epoch).
    pub fn live_snapshots(&self) -> usize {
        let state = self.core.current_state();
        state.shards.iter().map(|d| d.live_snapshots()).sum()
    }

    /// Globally ordered scan over the latest published state (internally
    /// pins a coherent [`ShardedSnapshot`] for the iterator's lifetime —
    /// the per-shard iterators hold the pinned structures, so the scan is
    /// stable and cut-consistent).
    pub fn iter(&self) -> Result<ShardedDbIterator> {
        self.iter_at(&self.snapshot())
    }

    /// Globally ordered scan through a pinned [`ShardedSnapshot`],
    /// sourced from the snapshot's own topology epoch.
    pub fn iter_at(&self, snapshot: &ShardedSnapshot) -> Result<ShardedDbIterator> {
        let iters = snapshot
            .state
            .shards
            .iter()
            .enumerate()
            .map(|(i, d)| d.iter_with(&ReadOptions::at(snapshot.shard(i))))
            .collect::<Result<Vec<_>>>()?;
        Ok(merge::over_shards(iters))
    }

    /// Range lookup: up to `limit` live pairs with key ≥ `start`, merged
    /// across shards in global key order.
    pub fn scan(&self, start: u64, limit: usize) -> Result<Vec<(u64, Vec<u8>)>> {
        let started = self.core.observer.as_ref().map(|_| Instant::now());
        let snapshot = self.snapshot();
        let mut it = self.iter_at(&snapshot)?;
        it.seek(start)?;
        let out = it.collect_up_to(limit)?;
        // Attribute the scan to the shard owning its start key, so the
        // merged stats still count it exactly once.
        let owner = snapshot.state.shard(snapshot.state.router.shard_of(start));
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
    /// wait for the queues to drain).
    pub fn flush(&self) -> Result<()> {
        let core = &self.core;
        let pick = || core.current_state().shards.clone();
        Db::flush_all(Some(&core.coordination), pick).map(drop)
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
    /// sharding layer's own (a failed background split or marker-log
    /// checkpoint).
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
        // `finish_flush` hands back a shard's standing worker error (or,
        // under synchronous maintenance, retries what a failed inline flush
        // left queued).
        let state = self.core.current_state();
        state.shards.iter().try_for_each(|d| d.finish_flush())
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

    /// One shard's engine by routing position (read-only introspection;
    /// writing through a shard directly bypasses the fence's sequence
    /// allocation and is not supported). Shard-level [`Db::flush`] and
    /// [`Db::write`] do serialize against cross-shard commits and refuse
    /// while the write path is poisoned, so even a misuse can never
    /// persist an unsealed prepare fragment into an SSTable.
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

    /// What the recovery coordinator resolved when this handle was opened
    /// (all zeros after a clean shutdown or a fresh create).
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

    /// Whether a cross-shard commit failed mid-way in this process:
    /// writes and flushes are refused (with a typed error) until the
    /// database is reopened, which resolves the partial batch through
    /// recovery. Reads keep working.
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
}
