//! The database facade — LevelDB's quartet: `write(WriteBatch, WriteOptions)`
//! as the single write entry point (with `put`/`delete`/`put_batch` as thin
//! wrappers), `get_with`/`iter_with(ReadOptions)` as the read entry points,
//! and RAII [`Snapshot`] handles for pinned point-in-time reads.
//!
//! ## Maintenance scheduling
//!
//! Writes land in the memtable. When it fills it is **rotated** onto an
//! immutable-memtable queue, and one procedure (`maintenance.rs`:
//! `flush_one`, `compact_one`) drains the queue into L0 and merges what is
//! due; [`Options::maintenance`] says who runs it:
//!
//! * [`Maintenance::Synchronous`] (default): the writer that filled the
//!   buffer, *inline*, until the tree satisfies its shape invariants —
//!   deterministic, so the paper's compaction experiments measure
//!   maintenance work instead of racing against it.
//! * [`Maintenance::Background`]: dedicated flush and compaction workers
//!   (see [`crate::scheduler`]), concurrently; the write returns once the
//!   buffer is rotated. Writers are regulated LevelDB-style: each write is
//!   delayed ~1 ms once L0 reaches [`Options::l0_slowdown_trigger`], and
//!   blocks outright at [`Options::l0_stop_trigger`] (or when the immutable
//!   queue is full) until maintenance catches up.
//!
//! Reads always consult the active memtable, then the immutable queue
//! (newest first), then the [`Version`] — so rotated-but-unflushed writes
//! stay visible.
//!
//! Reads take none of the locks below: they resolve through the published
//! `ReadView` (see [`crate::snapshot`]), which `DbCore::install` swaps
//! whenever the buffer, the immutable queue or the version changes.
//!
//! ## Pipelined group commit
//!
//! Concurrent writers do not contend on the tree lock: each enqueues its
//! batch onto a **writer queue** and one of them — the *leader*, always the
//! queue's front — claims a contiguous sequence range covering the whole
//! queued run, appends **one fused** CRC-protected WAL record for the group
//! (`DbStats::wal_appends` counts one per *group*; see
//! `DbStats::write_groups`), and hands every member its sub-range. The
//! members then insert into the concurrent skiplist memtable **in
//! parallel, outside every lock**, while the next leader is already logging
//! the next group — WAL append and memtable apply of successive groups
//! overlap (the pipeline).
//!
//! One refinement: a leader about to pay a real `sync` waits a bounded
//! **commit window** (`COMMIT_WINDOW`, 50 µs, yielding — never blocking
//! followers' enqueue) for the other in-flight writers to join, so a
//! flush-bound load fuses into maximal groups and the flush count drops by
//! the writer count. A lone writer never waits: it enqueues, is the front,
//! and leads a group of one down the same path.
//!
//! Visibility follows the **fence-publish discipline**: reads see exactly
//! the prefix `seq <= visible`, and a group bumps `visible` to its last
//! sequence only after *every* member has finished inserting — and only in
//! queue (= sequence) order, so the published ceiling never exposes a
//! half-applied batch or a gap. A single batch therefore stays atomic to
//! readers even while its entries land one by one.
//!
//! Replay applies a WAL record all-or-nothing: a torn tail drops the whole
//! record — for a fused record, the whole group, each batch of which was
//! unacknowledged — never a prefix.
//!
//! A minimal manifest records the level structure **and every live WAL** —
//! the active log plus one per queued immutable memtable — so a database
//! directory can be reopened with no acknowledged write lost, even
//! mid-maintenance. Every version edit seals a **fresh** CRC-footed
//! `MANIFEST-<epoch>` file and only then retires its predecessor, so a
//! crash at any storage-operation boundary leaves at least one intact
//! manifest; recovery picks the newest epoch that validates (a pre-epoch
//! unsealed `MANIFEST` with no sealed successor is a typed error, never a
//! fresh database).
//!
//! [`Maintenance::Synchronous`]: crate::options::Maintenance::Synchronous
//! [`Maintenance::Background`]: crate::options::Maintenance::Background

mod maintenance;
mod open;
mod write;

use write::{PublishQueue, WriteQueue};

use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::sync::{Condvar, Mutex as StdMutex};
use std::time::Instant;

use parking_lot::{Mutex, RwLock};

use crate::cache::BlockCache;
use crate::compaction::TableContext;
use crate::iter::DbIterator;
use crate::memtable::{ImmutableMemTable, MemTable};
use crate::options::{Options, ReadOptions};
use crate::scheduler::{BgError, MaintSignal, Scheduler};
use crate::snapshot::{ReadView, Snapshot};
use crate::stats::DbStats;
use crate::types::SeqNo;
use crate::version::Version;
use crate::wal::{self, WalWriter};
use crate::{Error, Result};
use lsm_io::Storage;
use lsm_obs::{EngineObs, MetricsSnapshot, GLOBAL_SHARD};

/// What the write-path admission triggers would do to the next write —
/// see [`Db::write_pressure`]. Ordered by severity (`Clear < Slowdown <
/// Stop`), so a front end can take the max across shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum WritePressure {
    /// No backpressure: a write proceeds undelayed.
    Clear,
    /// L0 is at the slowdown trigger: each write is delayed ~1 ms.
    Slowdown,
    /// A write that needs to rotate the buffer would block until
    /// maintenance drains L0 or the immutable queue.
    Stop,
}

struct Inner {
    // `mem`, `imms` and `version` make up the read view: they change only
    // inside `DbCore::install`, which publishes the next one.
    mem: MemTable,
    /// Rotated-but-unflushed buffers, oldest at the front. Under
    /// `Maintenance::Synchronous` the writer that queued one flushes it
    /// before returning.
    imms: VecDeque<Arc<ImmutableMemTable>>,
    version: Arc<Version>,
    seq: SeqNo,
    /// Per-level round-robin compaction cursors (last compacted max key).
    cursors: Vec<u64>,
    /// Active write-ahead log (None when `Options::wal` is off).
    wal: Option<WalWriter>,
    /// A flush holds the front immutable memtable.
    flush_active: bool,
    /// Input tables of in-flight compactions (by file name); excluded from
    /// new picks so disjoint tasks can run concurrently.
    busy: HashSet<String>,
}

impl Inner {
    /// No buffer is queued for flush or being flushed.
    fn flush_idle(&self) -> bool {
        self.imms.is_empty() && !self.flush_active
    }
}

/// Shared engine state: everything the foreground API and the background
/// workers both touch. `Db` wraps it in an `Arc` so worker threads keep it
/// alive for exactly as long as they run. The sharding layer
/// ([`crate::sharding`]) holds one `Arc<DbCore>` per shard so a *single*
/// global worker pool can drive every shard's maintenance steps.
pub(crate) struct DbCore {
    opts: Options,
    storage: Arc<dyn Storage>,
    inner: RwLock<Inner>,
    /// The published view of `inner`, swapped by [`DbCore::install`]; a read
    /// holds this lock for one `Arc` clone (the shims have no `arc-swap`).
    view: RwLock<Arc<ReadView>>,
    /// Published sequence ceiling: reads observe exactly the writes with
    /// `seq <= visible`. Lags `Inner::seq` by the commit groups whose
    /// members are still inserting; advanced only by
    /// [`DbCore::publish_groups`], in group order.
    visible: AtomicU64,
    /// The writer queue (pipelined group commit — see the module docs).
    /// `std` primitives on purpose: the vendored `parking_lot` shim has no
    /// `Condvar`.
    write_queue: StdMutex<WriteQueue>,
    write_queue_cv: Condvar,
    /// Writers currently inside [`Db::write`] (enqueued, leading, applying,
    /// or awaiting publication). The leader's commit window uses this as
    /// its fusion target: when a *synced* group is about to commit and
    /// other writers are demonstrably in flight, the leader briefly yields
    /// for them to join the queue so one flush covers all of them. A lone
    /// writer never waits (queue length already equals the count).
    writers_in_flight: AtomicUsize,
    /// Committed groups awaiting full application, sequence order.
    publish: StdMutex<PublishQueue>,
    publish_cv: Condvar,
    stats: Arc<DbStats>,
    cache: Option<Arc<BlockCache>>,
    /// Live [`Snapshot`] handles.
    snapshots: Arc<AtomicUsize>,
    /// Monotonic file-number allocator — atomic so background merges can
    /// name outputs without holding the tree lock.
    next_file_no: AtomicU64,
    /// Epoch of the most recently sealed manifest (each rewrite bumps it
    /// and writes `MANIFEST-<epoch+1>` before retiring the predecessor).
    manifest_epoch: AtomicU64,
    /// Set while the on-disk manifest does not name the live WAL set —
    /// between a WAL rotation and the manifest write that records it, or
    /// after a failed manifest write. While dirty, no write is
    /// acknowledged until a manifest rewrite succeeds: an acknowledged
    /// write into a WAL no manifest names would be silently lost by a
    /// crash.
    manifest_dirty: AtomicBool,
    /// Wakeup channel for workers and stalled writers.
    signal: Arc<MaintSignal>,
    /// Set once by `Db::close`/`Drop`; workers drain and exit.
    shutdown: Arc<AtomicBool>,
    flush_paused: AtomicBool,
    compaction_paused: AtomicBool,
    /// The background workers' standing error (also counted in
    /// `DbStats::bg_errors`).
    bg_error: BgError,
    /// Set when this instance is a shard of a [`crate::sharding::ShardedDb`]:
    /// public flushes serialize against (and respect the poison state of)
    /// the owner's cross-shard commits.
    coordination: Option<Arc<CommitCoordination>>,
    /// Observability handle (`Options::observability`): the shared event
    /// ring plus this instance's per-op latency histograms. `None` when
    /// observability is off — every emit site is a single branch on this
    /// option, so the disabled hot path is unchanged.
    obs: Option<Arc<EngineObs>>,
}

/// An open LSM-tree database.
pub struct Db {
    core: Arc<DbCore>,
    /// Worker threads (background maintenance only); joined on drop.
    scheduler: Option<Scheduler>,
}

/// What a [`crate::sharding::ShardedDb`] hands [`Db::open_internal`] for each
/// shard it embeds; `Embedding::default()` is the standalone engine.
#[derive(Default)]
pub(crate) struct Embedding<'a> {
    /// The owner's worker pool, as its wakeup channel and shutdown flag: the
    /// database spawns no threads of its own and wires both into its core,
    /// so rotations/installs in any shard wake the global workers and
    /// stalled writers alike.
    pub pool: Option<(Arc<MaintSignal>, Arc<AtomicBool>)>,
    /// Resolves replayed cross-shard prepares; without one, every replayed
    /// record applies.
    pub resolver: Option<BatchResolver<'a>>,
    /// The owner's commit lock and poison flag.
    pub coordination: Option<Arc<CommitCoordination>>,
    /// This shard's handle on the owner's event ring.
    pub obs: Option<Arc<EngineObs>>,
    /// The owner's cache: one byte budget for every shard.
    pub cache: Option<Arc<BlockCache>>,
}

/// Decides, during recovery, whether a replayed cross-shard **prepare**
/// fragment committed (`Ok(true)`: apply + re-log it) or aborted
/// (`Ok(false)`: suppress it). The sharding layer's recovery coordinator
/// passes a closure resolving each tag against the per-database
/// commit-marker log; it errors when the record itself is inconsistent
/// (e.g. a fragment on a shard its participant set excludes).
pub(crate) type BatchResolver<'a> = &'a dyn Fn(&wal::CrossBatchTag) -> Result<bool>;

/// Cross-shard commit coordination shared between a [`crate::sharding::ShardedDb`]
/// and every shard it owns. The sharding layer holds commits and coherent
/// snapshots under `lock`; a shard-level [`Db::flush`] takes the same lock
/// (and honours `poisoned`) so *no* flush path — not even one reached
/// through [`crate::sharding::ShardedDb::shard`] — can push a
/// not-yet-sealed prepare fragment into an SSTable, which would replay
/// unconditionally and tear the batch across a crash.
#[derive(Debug, Default)]
pub(crate) struct CommitCoordination {
    /// Serializes cross-shard commits, coherent snapshot pins, and every
    /// rotate/flush of shard memtables (which may hold unsealed prepares).
    pub lock: Mutex<()>,
    /// Set when a commit failed after touching some shards: writes and
    /// flushes are refused so the orphaned fragments can neither become
    /// visible nor durable in this process (reopen to recover).
    pub poisoned: AtomicBool,
}

impl CommitCoordination {
    /// The single gate every commit/flush/shard-write path goes through:
    /// take the commit lock, then verify the engine is not poisoned
    /// (checked *under* the lock — a caller that was blocked here while a
    /// commit failed must not proceed).
    pub(crate) fn enter(&self) -> Result<parking_lot::MutexGuard<'_, ()>> {
        let guard = self.lock.lock();
        self.check_poisoned()?;
        Ok(guard)
    }

    /// Non-blocking [`CommitCoordination::enter`]: `Ok(None)` when the
    /// commit lock is contended. Background workers MUST use this — a
    /// worker blocking on the commit lock can deadlock against a writer
    /// that holds it while stalled on backpressure the worker itself
    /// would have relieved.
    pub(crate) fn try_enter(&self) -> Result<Option<parking_lot::MutexGuard<'_, ()>>> {
        match self.lock.try_lock() {
            None => Ok(None),
            Some(guard) => {
                self.check_poisoned()?;
                Ok(Some(guard))
            }
        }
    }

    pub(crate) fn check_poisoned(&self) -> Result<()> {
        if self.poisoned.load(Ordering::Acquire) {
            return Err(Error::Corruption(
                "a cross-shard commit failed mid-way; writes and flushes are \
                 disabled (reopen to recover)"
                    .into(),
            ));
        }
        Ok(())
    }
}

impl Db {
    // -------------------------------------------------------------- reads

    /// Acquire an RAII snapshot: a pinned point-in-time view.
    ///
    /// The handle pins the current sequence ceiling, the level structure
    /// (keeping pre-snapshot SSTables readable across compactions) and the
    /// memtable stack — the active buffer plus any queued immutable
    /// memtables (surviving flushes). Reads through it — via
    /// [`ReadOptions::at`] — are stable until the handle drops.
    pub fn snapshot(&self) -> Snapshot {
        // The published ceiling, not `Inner::seq`: sequences above `visible`
        // belong to commit groups whose members may still be inserting, and
        // a snapshot must never see half a batch.
        let (view, seq) = self.read_point(&ReadOptions::new());
        Snapshot::pin(seq, view, &self.core.snapshots)
    }

    /// Snapshot pinning the current structures but reading at an explicit
    /// sequence ceiling — the sharding layer's coherence primitive: every
    /// shard is captured at the *same* globally published fence, so a
    /// cross-shard batch (whose range is wholly above or wholly below any
    /// published fence) is either fully visible or fully invisible.
    ///
    /// `seq` may exceed this shard's own latest sequence (other shards
    /// consumed the gap); entries above what is pinned simply don't exist
    /// here, so the higher ceiling is harmless.
    pub(crate) fn snapshot_at(&self, seq: SeqNo) -> Snapshot {
        Snapshot::pin(seq, self.core.view(), &self.core.snapshots)
    }

    /// Number of live snapshot handles.
    pub fn live_snapshots(&self) -> usize {
        self.core.snapshots.load(Ordering::Relaxed)
    }

    /// Point lookup at the latest state.
    pub fn get(&self, key: u64) -> Result<Option<Vec<u8>>> {
        self.get_with(key, &ReadOptions::new())
    }

    /// Point lookup honouring [`ReadOptions`]: snapshot and block-cache fill
    /// policy.
    pub fn get_with(&self, key: u64, ropts: &ReadOptions<'_>) -> Result<Option<Vec<u8>>> {
        let started = self.core.obs.as_ref().map(|_| Instant::now());
        let out = self.get_with_impl(key, ropts);
        if let (Some(obs), Some(started)) = (self.core.obs.as_deref(), started) {
            obs.ops.get.record(started.elapsed().as_nanos() as u64);
        }
        out
    }

    fn get_with_impl(&self, key: u64, ropts: &ReadOptions<'_>) -> Result<Option<Vec<u8>>> {
        let _lookup = self.core.stats.begin_lookup();
        let (view, seq) = self.read_point(ropts);
        view.get(key, seq, ropts.fill_cache, &self.core.stats)
    }

    /// What a read with `ropts` resolves against: the snapshot's view or the
    /// current one, loaded *before* the ceiling (see [`crate::snapshot`]) —
    /// which is the published one, never into a commit group that is still
    /// applying (fence-publish).
    fn read_point(&self, ropts: &ReadOptions<'_>) -> (Arc<ReadView>, SeqNo) {
        let view = match ropts.snapshot {
            Some(snap) => Arc::clone(snap.view()),
            None => self.core.view(),
        };
        let ceiling = self.core.visible.load(Ordering::Acquire);
        (view, ropts.effective_seq(ceiling))
    }

    /// Range lookup: up to `limit` live pairs with key ≥ `start`.
    pub fn scan(&self, start: u64, limit: usize) -> Result<Vec<(u64, Vec<u8>)>> {
        let started = self.core.obs.as_ref().map(|_| Instant::now());
        let mut it = self.iter()?;
        it.seek(start)?;
        let out = it.collect_up_to(limit)?;
        self.core.stats.scans.fetch_add(1, Ordering::Relaxed);
        self.core
            .stats
            .scan_entries
            .fetch_add(out.len() as u64, Ordering::Relaxed);
        if let (Some(obs), Some(started)) = (self.core.obs.as_deref(), started) {
            obs.ops.scan.record(started.elapsed().as_nanos() as u64);
        }
        Ok(out)
    }

    /// Snapshot-consistent iterator over the whole database (latest state).
    pub fn iter(&self) -> Result<DbIterator> {
        self.iter_with(&ReadOptions::new())
    }

    /// Iterator honouring [`ReadOptions`]: through a pinned [`Snapshot`],
    /// at an explicit sequence ceiling, or over the latest state.
    pub fn iter_with(&self, ropts: &ReadOptions<'_>) -> Result<DbIterator> {
        let (view, seq) = self.read_point(ropts);
        Ok(view.iter(seq, ropts.fill_cache))
    }

    // ------------------------------------------------------- introspection

    /// Number of live entries in the active memtable (records, incl.
    /// versions; queued immutable memtables not included).
    ///
    /// Like every probe below, this reads the published view, never the
    /// tree lock: a group-commit leader holds that across its `sync`, and
    /// a front end asks [`Db::write_pressure`] on every write it admits.
    pub fn memtable_len(&self) -> usize {
        self.core.view().mems[0].len()
    }

    /// What the LevelDB admission triggers would do to the *next* write —
    /// the probe a front end uses to shed load before a writer thread
    /// commits to (and possibly blocks in) [`Db::write`].
    ///
    /// * [`WritePressure::Stop`] — the write buffer is full and rotation
    ///   is blocked (L0 at [`Options::l0_stop_trigger`] or the immutable
    ///   queue full): a write would stall until maintenance catches up.
    /// * [`WritePressure::Slowdown`] — L0 is at
    ///   [`Options::l0_slowdown_trigger`]: each write is braked ~1 ms.
    /// * [`WritePressure::Clear`] — no backpressure.
    ///
    /// Under [`Maintenance::Synchronous`] there is no backpressure (the
    /// writer that fills the buffer flushes it), so this always reports
    /// `Clear`.
    ///
    /// [`Maintenance::Synchronous`]: crate::options::Maintenance::Synchronous
    pub fn write_pressure(&self) -> WritePressure {
        if !self.core.opts.maintenance.is_background() {
            return WritePressure::Clear;
        }
        let view = self.core.view();
        let opts = &self.core.opts;
        let l0 = view.version.levels[0].len();
        let buffer_full = view.mems[0].approximate_bytes() >= opts.write_buffer_bytes;
        let queued = view.mems.len() - 1;
        if buffer_full
            && (l0 >= opts.l0_stop_trigger || queued >= opts.max_immutable_memtables.max(1))
        {
            WritePressure::Stop
        } else if l0 >= opts.l0_slowdown_trigger {
            WritePressure::Slowdown
        } else {
            WritePressure::Clear
        }
    }

    /// Number of rotated-but-unflushed immutable memtables queued.
    pub fn immutable_memtables(&self) -> usize {
        self.core.view().mems.len() - 1
    }

    /// Approximate resident bytes: every level's table bytes plus the
    /// active and queued memtables — the load metric the sharding layer's
    /// split trigger compares across shards.
    pub fn resident_bytes(&self) -> u64 {
        let view = self.core.view();
        let tables: u64 = (0..view.version.levels.len())
            .map(|l| view.version.level_bytes(l))
            .sum();
        let buffers = view.mems.iter().map(|mem| mem.approximate_bytes() as u64);
        tables + buffers.sum::<u64>()
    }

    /// A clone of the current version (level structure snapshot).
    pub fn version(&self) -> Arc<Version> {
        Arc::clone(&self.core.view().version)
    }

    /// Total in-memory index bytes across all tables — the memory axis of
    /// Figures 6, 8, 11 and 12.
    pub fn index_memory_bytes(&self) -> usize {
        self.core.view().version.index_memory_bytes()
    }

    /// Total bloom filter bytes.
    pub fn bloom_memory_bytes(&self) -> usize {
        self.core.view().version.bloom_memory_bytes()
    }

    /// Engine counters.
    pub fn stats(&self) -> &DbStats {
        &self.core.stats
    }

    /// The observability handle, when [`Options::observability`] is on
    /// (or the sharding layer injected one).
    pub fn observability(&self) -> Option<&Arc<EngineObs>> {
        self.core.obs.as_ref()
    }

    /// Assemble a scrapeable [`MetricsSnapshot`]: `DbStats` counters
    /// always; latency quantiles and the drained event timeline only when
    /// observability is on. Draining consumes the ring — each event
    /// appears in exactly one scrape.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::disabled();
        let mut stats = self.stats().snapshot();
        if let Some(cache) = &self.core.cache {
            stats.absorb_cache(&cache.stats());
        }
        snap.counters = stats.counter_pairs();
        if let Some(obs) = self.core.obs.as_deref() {
            let set = obs.ops.snapshot();
            snap.enabled = true;
            snap.total = set.summarize(GLOBAL_SHARD);
            snap.shards = vec![set.summarize(obs.shard())];
            snap.events = obs.observer().drain();
            snap.dropped_events = obs.observer().dropped();
        }
        snap
    }

    /// The shared core (sharding layer: worker-pool step closures hold one
    /// `Arc<DbCore>` per shard).
    pub(crate) fn core(&self) -> &Arc<DbCore> {
        &self.core
    }

    /// The storage the database runs on (for I/O counter snapshots).
    pub fn storage(&self) -> &Arc<dyn Storage> {
        &self.core.storage
    }

    /// Engine options.
    pub fn options(&self) -> &Options {
        &self.core.opts
    }

    /// The engine cache (block + table-handle budget), when enabled.
    pub fn block_cache(&self) -> Option<&Arc<BlockCache>> {
        self.core.cache.as_ref()
    }

    /// Current *published* write sequence number: the ceiling reads
    /// observe. May momentarily trail the internal allocator while commit
    /// groups are still applying.
    pub fn latest_seq(&self) -> SeqNo {
        self.core.visible.load(Ordering::Acquire)
    }
}

impl DbCore {
    fn view(&self) -> Arc<ReadView> {
        Arc::clone(&self.view.read())
    }

    /// The view of `inner`: a shared handle to the live buffer (no copy —
    /// the skiplist is safe to read while growing, and sequence filtering
    /// hides what is above a read's ceiling), then handles to the queued
    /// immutable memtables newest to oldest, then the version.
    fn view_of(inner: &Inner) -> ReadView {
        let queued = inner.imms.iter().rev().map(|imm| &imm.mem);
        ReadView {
            mems: std::iter::once(&inner.mem).chain(queued).cloned().collect(),
            version: Arc::clone(&inner.version),
        }
    }

    /// What this engine's tables are written through.
    fn tables(&self) -> TableContext<'_> {
        TableContext {
            storage: self.storage.as_ref(),
            opts: &self.opts,
            next_file_no: &self.next_file_no,
            cache: self.cache.as_ref(),
        }
    }

    /// The one place `mem`, `imms` and `version` change: apply `edit`, then
    /// publish the view of the result. The caller holds the tree write
    /// lock, so views go out in the order the tree changed, and a commit
    /// group (which claims under the same lock) only ever inserts into a
    /// buffer whose view is already published.
    fn install(&self, inner: &mut Inner, edit: impl FnOnce(&mut Inner)) {
        edit(inner);
        let next = Arc::new(Self::view_of(inner));
        // Dropped after the view lock: it may be the last pin of a table.
        let _retired = std::mem::replace(&mut *self.view.write(), next);
    }

    /// Settle the active buffer before it is sealed or flushed: every
    /// claimed commit group has finished inserting (none can register while
    /// the caller holds the tree lock) *and* been published. The buffer must
    /// hold every sequence its WAL says it does, and none above a ceiling a
    /// read may be holding — a flush keeps only a key's newest version,
    /// which such a read could not see.
    fn quiesce(&self, inner: &Inner) {
        inner.mem.wait_quiescent();
        self.wait_visible(inner.seq);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::WriteBatch;
    use crate::options::{IndexGranularity, Maintenance, WriteOptions};
    use learned_index::IndexKind;
    use lsm_io::MemStorage;

    fn small_db(kind: IndexKind) -> Db {
        let mut opts = Options::small_for_tests();
        opts.index.kind = kind;
        Db::open_memory(opts).unwrap()
    }

    #[test]
    fn put_get_roundtrip_through_flushes() {
        for kind in IndexKind::ALL {
            let db = small_db(kind);
            for k in 0..2_000u64 {
                db.put(k * 3, format!("v{k}").as_bytes()).unwrap();
            }
            // Writes crossed several flushes and compactions.
            assert!(db.stats().snapshot().flushes > 0, "{kind}");
            for k in (0..2_000u64).step_by(17) {
                let got = db.get(k * 3).unwrap();
                assert_eq!(got, Some(format!("v{k}").into_bytes()), "{kind} key {k}");
            }
            assert_eq!(db.get(1).unwrap(), None, "{kind}");
        }
    }

    #[test]
    fn overwrites_visible_after_compaction() {
        let db = small_db(IndexKind::Pgm);
        for round in 0..5u64 {
            for k in 0..500u64 {
                db.put(k, format!("r{round}-{k}").as_bytes()).unwrap();
            }
        }
        db.flush().unwrap();
        for k in (0..500u64).step_by(7) {
            assert_eq!(db.get(k).unwrap(), Some(format!("r4-{k}").into_bytes()));
        }
    }

    #[test]
    fn deletes_mask_older_values() {
        let db = small_db(IndexKind::RadixSpline);
        for k in 0..1_000u64 {
            db.put(k, b"live").unwrap();
        }
        for k in (0..1_000u64).step_by(2) {
            db.delete(k).unwrap();
        }
        db.flush().unwrap();
        assert_eq!(db.get(2).unwrap(), None);
        assert_eq!(db.get(3).unwrap(), Some(b"live".to_vec()));
    }

    #[test]
    fn scan_returns_sorted_live_range() {
        let db = small_db(IndexKind::Plr);
        for k in 0..1_000u64 {
            db.put(k * 2, &k.to_le_bytes()).unwrap();
        }
        db.delete(10).unwrap();
        db.flush().unwrap();
        let got = db.scan(7, 5).unwrap();
        let keys: Vec<u64> = got.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![8, 12, 14, 16, 18], "10 deleted, sorted order");
    }

    #[test]
    fn bulk_load_places_one_deep_level() {
        let db = small_db(IndexKind::Pgm);
        let entries: Vec<(u64, Vec<u8>)> = (0..5_000u64).map(|k| (k, vec![1u8; 8])).collect();
        db.bulk_load(entries).unwrap();
        let v = db.version();
        assert!(v.levels[0].is_empty(), "bulk load bypasses L0");
        assert!(v.table_count() > 1, "split at granularity");
        for k in (0..5_000u64).step_by(97) {
            assert_eq!(db.get(k).unwrap(), Some(vec![1u8; 8]));
        }
    }

    /// The levels of `db`'s version that have a model, and its sorted
    /// levels that hold tables.
    fn modelled_and_populated_levels(db: &Db) -> (Vec<usize>, Vec<usize>) {
        let v = db.version();
        let levels = 0..v.levels.len();
        (
            levels
                .clone()
                .filter(|&l| v.level_index(l).is_some())
                .collect(),
            levels
                .skip(1)
                .filter(|&l| !v.levels[l].is_empty())
                .collect(),
        )
    }

    #[test]
    fn reopen_recovers_tables() {
        for granularity in [IndexGranularity::Table, IndexGranularity::Level] {
            let storage: Arc<dyn Storage> = Arc::new(MemStorage::new());
            let mut opts = Options::small_for_tests();
            opts.index.granularity = granularity;
            let (index_memory, modelled) = {
                let db = Db::open(Arc::clone(&storage), opts.clone()).unwrap();
                for k in 0..2_000u64 {
                    db.put(k, b"persisted").unwrap();
                }
                db.flush().unwrap();
                (
                    db.index_memory_bytes(),
                    modelled_and_populated_levels(&db).0,
                )
            };
            // A level's model is not stored: recovery trains it again.
            let db = Db::open(storage, opts).unwrap();
            assert_eq!(db.index_memory_bytes(), index_memory, "{granularity:?}");
            let (reopened, populated) = modelled_and_populated_levels(&db);
            assert_eq!(reopened, modelled, "{granularity:?}");
            match granularity {
                IndexGranularity::Table => assert_eq!(modelled, [0usize; 0]),
                IndexGranularity::Level => assert_eq!(modelled, populated),
            }
            let reads_before = db.stats().snapshot().level_reads;
            for k in (0..2_000u64).step_by(111) {
                assert_eq!(db.get(k).unwrap(), Some(b"persisted".to_vec()), "key {k}");
            }
            let reads = db.stats().snapshot().level_reads;
            assert_eq!(
                reads.iter().sum::<u64>(),
                reads_before.iter().sum::<u64>() + 19
            );
        }
    }

    #[test]
    fn tree_shape_respects_level_targets() {
        let db = small_db(IndexKind::FencePointers);
        for k in 0..8_000u64 {
            db.put(k, &[0u8; 24]).unwrap();
        }
        db.flush().unwrap();
        let v = db.version();
        assert!(
            v.levels[0].len() < db.options().l0_compaction_trigger,
            "L0 must stay under trigger after stabilization"
        );
        for level in 1..v.levels.len() - 1 {
            let bytes = v.level_bytes(level);
            assert!(
                bytes <= db.options().level_target_bytes(level),
                "level {level}: {bytes} over target"
            );
        }
        // Sorted levels stay non-overlapping.
        for level in v.levels.iter().skip(1) {
            for w in level.windows(2) {
                assert!(w[0].meta.max_key < w[1].meta.min_key);
            }
        }
    }

    #[test]
    fn stats_reflect_lookups() {
        let db = small_db(IndexKind::Pgm);
        for k in 0..1_000u64 {
            db.put(k, b"x").unwrap();
        }
        db.flush().unwrap();
        // The first lookup of a fresh Db is a sampled one.
        db.get(3).unwrap();
        let before = db.stats().snapshot();
        assert!(before.predict_ns > 0 && before.io_cpu_ns > 0);
        // Counts are exact whichever lookups are sampled: every key is in
        // a table (the buffer was flushed), so some level answered each.
        for k in 0..1_600u64 {
            assert!(db.get(k * 7 % 1_000).unwrap().is_some());
        }
        let delta = db.stats().snapshot().since(&before);
        assert_eq!(delta.lookups, 1_600);
        assert_eq!(delta.level_reads.iter().sum::<u64>(), 1_600);
        assert_eq!(delta.memtable_hits, 0);
    }

    #[test]
    fn write_batch_is_one_wal_append_and_one_seq_range() {
        let db = small_db(IndexKind::Pgm);
        let before = db.stats().snapshot();
        let seq0 = db.latest_seq();
        let mut batch = WriteBatch::new();
        for k in 0..100u64 {
            batch.put(k, b"batched");
        }
        batch.delete(7);
        let last = db.write(batch, &WriteOptions::default()).unwrap();
        let delta = db.stats().snapshot().since(&before);
        assert_eq!(delta.wal_appends, 1, "group commit: one WAL record");
        assert_eq!(delta.write_batches, 1);
        assert_eq!(delta.write_entries, 101);
        assert_eq!(last, seq0 + 101, "contiguous sequence range");
        assert_eq!(db.get(3).unwrap(), Some(b"batched".to_vec()));
        assert_eq!(db.get(7).unwrap(), None, "later delete wins in-batch");
    }

    #[test]
    fn per_key_puts_cost_one_wal_append_each() {
        let db = small_db(IndexKind::Pgm);
        let before = db.stats().snapshot();
        for k in 0..50u64 {
            db.put(k, b"x").unwrap();
        }
        let delta = db.stats().snapshot().since(&before);
        assert_eq!(delta.wal_appends, 50);
        assert_eq!(delta.write_batches, 50);
    }

    #[test]
    fn write_options_sync_is_one_sync_per_durable_batch() {
        let db = small_db(IndexKind::Pgm);
        let before = db.stats().snapshot();
        let mut b1 = WriteBatch::new();
        b1.put(1, b"synced");
        db.write(b1, &WriteOptions::durable()).unwrap();
        let mut b2 = WriteBatch::new();
        b2.put(2, b"unsynced");
        db.write(b2, &WriteOptions::default()).unwrap();
        let delta = db.stats().snapshot().since(&before);
        assert_eq!(delta.wal_appends, 2);
        assert_eq!(delta.wal_syncs, 1);
        assert_eq!(db.get(2).unwrap(), Some(b"unsynced".to_vec()));
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let db = small_db(IndexKind::Pgm);
        let seq = db.latest_seq();
        let last = db
            .write(WriteBatch::new(), &WriteOptions::default())
            .unwrap();
        assert_eq!(last, seq);
        assert_eq!(db.stats().snapshot().wal_appends, 0);
    }

    #[test]
    fn snapshot_pins_view_across_overwrites_and_deletes() {
        let db = small_db(IndexKind::Pgm);
        for k in 0..100u64 {
            db.put(k, b"v1").unwrap();
        }
        let snap = db.snapshot();
        assert_eq!(db.live_snapshots(), 1);
        for k in 0..100u64 {
            db.put(k, b"v2").unwrap();
        }
        db.delete(5).unwrap();
        assert_eq!(db.get(5).unwrap(), None);
        assert_eq!(
            db.get_with(5, &ReadOptions::at(&snap)).unwrap(),
            Some(b"v1".to_vec())
        );
        assert_eq!(
            db.get_with(50, &ReadOptions::at(&snap)).unwrap(),
            Some(b"v1".to_vec())
        );
        drop(snap);
        assert_eq!(db.live_snapshots(), 0);
    }

    #[test]
    fn snapshot_survives_flushes_and_compactions() {
        let db = small_db(IndexKind::Pgm);
        for k in 0..500u64 {
            db.put(k, format!("old-{k}").as_bytes()).unwrap();
        }
        let snap = db.snapshot();
        let pinned: Vec<(u64, Vec<u8>)> = {
            let mut it = db.iter_with(&ReadOptions::at(&snap)).unwrap();
            it.seek_to_first();
            it.collect_up_to(usize::MAX).unwrap()
        };
        assert_eq!(pinned.len(), 500);
        // Churn: overwrite everything several times, forcing flushes and
        // multi-level compactions that unlink the pinned tables.
        for round in 0..4u64 {
            for k in 0..500u64 {
                db.put(k, format!("new-{round}-{k}").as_bytes()).unwrap();
            }
            db.flush().unwrap();
        }
        assert!(db.stats().snapshot().compactions > 0);
        // Point reads and the full iteration are byte-identical.
        for k in (0..500u64).step_by(13) {
            assert_eq!(
                db.get_with(k, &ReadOptions::at(&snap)).unwrap(),
                Some(format!("old-{k}").into_bytes()),
                "key {k}"
            );
        }
        let mut it = db.iter_with(&ReadOptions::at(&snap)).unwrap();
        it.seek_to_first();
        assert_eq!(it.collect_up_to(usize::MAX).unwrap(), pinned);
        // The live view moved on.
        assert_eq!(db.get(0).unwrap(), Some(b"new-3-0".to_vec()));
    }

    #[test]
    fn read_options_fill_cache_controls_population() {
        for granularity in [IndexGranularity::Table, IndexGranularity::Level] {
            let mut opts = Options::small_for_tests();
            opts.block_cache_bytes = 1 << 20;
            opts.index.granularity = granularity;
            let db = Db::open_memory(opts).unwrap();
            for k in 0..2_000u64 {
                db.put(k, &[7u8; 32]).unwrap();
            }
            db.flush().unwrap();
            let cache = db.block_cache().unwrap();
            let baseline = cache.stats();
            let no_fill = ReadOptions {
                fill_cache: false,
                ..ReadOptions::new()
            };
            assert!(db.get_with(10, &no_fill).unwrap().is_some());
            // Answered below L0, where the granularities differ.
            assert_eq!(db.stats().snapshot().level_reads[0], 0);
            let after = cache.stats();
            assert_eq!(
                (after.block_insertions, after.block_used_bytes),
                (baseline.block_insertions, baseline.block_used_bytes),
                "{granularity:?}: a no-fill read must not insert"
            );
            db.get_with(10, &ReadOptions::new()).unwrap();
            assert!(
                cache.stats().block_used_bytes > baseline.block_used_bytes,
                "{granularity:?}: a default read populates"
            );
        }
    }

    /// A table's blocks leave the budget with its reader: of two `Db`s on
    /// one cache, closing one takes exactly its resident blocks out at once,
    /// not when the other's misses get round to evicting them.
    #[test]
    fn closing_a_db_releases_its_blocks_from_a_shared_cache() {
        let cache = Arc::new(BlockCache::new(4 << 20));
        let open = || {
            let embedding = Embedding {
                cache: Some(Arc::clone(&cache)),
                ..Embedding::default()
            };
            let storage = Arc::new(MemStorage::new());
            let db = Db::open_internal(storage, Options::small_for_tests(), embedding).unwrap();
            for k in 0..2_000u64 {
                db.put(k, &[7u8; 32]).unwrap();
            }
            db.flush().unwrap();
            db
        };
        let warm = |db: &Db| {
            let before = cache.block_bytes();
            for k in (0..2_000u64).step_by(3) {
                assert_eq!(db.get(k).unwrap(), Some(vec![7u8; 32]));
            }
            cache.block_bytes() - before
        };
        let (a, b) = (open(), open());
        let kept = warm(&b);
        let gone = warm(&a);
        assert!(kept > 0 && gone > 0);
        assert_eq!(cache.stats().block_evictions, 0, "both fit");
        a.close().unwrap();
        assert_eq!(cache.block_bytes(), kept);
        drop(b);
        assert_eq!((cache.block_bytes(), cache.table_bytes()), (0, 0));
    }

    // ---------------------------------------------- background maintenance

    fn background_db() -> Db {
        let mut opts = Options::small_for_tests();
        opts.maintenance = Maintenance::background();
        Db::open_memory(opts).unwrap()
    }

    #[test]
    fn background_roundtrip_through_flushes_and_compactions() {
        let db = background_db();
        for k in 0..2_000u64 {
            db.put(k, format!("bg{k}").as_bytes()).unwrap();
        }
        db.flush().unwrap();
        db.wait_for_maintenance();
        assert!(db.stats().snapshot().flushes > 0);
        assert!(db.stats().snapshot().imm_rotations > 0);
        for k in (0..2_000u64).step_by(37) {
            assert_eq!(db.get(k).unwrap(), Some(format!("bg{k}").into_bytes()));
        }
        assert_eq!(db.background_error(), None);
    }

    #[test]
    #[allow(clippy::manual_is_multiple_of)] // the MSRV (1.82) predates `u64::is_multiple_of`
    fn background_reads_see_immutable_queue() {
        let db = background_db();
        db.pause_flushes();
        // Fill past the write buffer so the next write rotates the
        // memtable onto the (paused) queue.
        let mut k = 0u64;
        while db.immutable_memtables() == 0 {
            db.put(k, &[b'q'; 24]).unwrap();
            k += 1;
        }
        assert!(db.immutable_memtables() > 0);
        // Every acknowledged write must still be readable: from the queue,
        // the active memtable, via iterators and via snapshots.
        for probe in (0..k).step_by(11) {
            assert_eq!(db.get(probe).unwrap(), Some(vec![b'q'; 24]), "key {probe}");
        }
        let snap = db.snapshot();
        assert_eq!(
            db.get_with(3, &ReadOptions::at(&snap)).unwrap(),
            Some(vec![b'q'; 24])
        );
        let mut it = db.iter().unwrap();
        it.seek_to_first();
        assert_eq!(it.collect_up_to(usize::MAX).unwrap().len(), k as usize);
        db.resume_flushes();
        db.wait_for_maintenance();
        assert_eq!(db.immutable_memtables(), 0, "queue drained after resume");
        assert_eq!(db.get(0).unwrap(), Some(vec![b'q'; 24]));

        // Against a model: overwrites and deletes over 97 keys, so versions
        // of one key lie in every buffer; a snapshot pinned in the first
        // buffer, then one after each of two rotations.
        let db = background_db();
        db.pause_flushes();
        let mut model = std::collections::BTreeMap::new();
        let mut pinned = Vec::new();
        let mut i = 0u64;
        while pinned.len() < 3 {
            let key = i * 31 % 97;
            if i % 7 == 3 {
                db.delete(key).unwrap();
                model.remove(&key);
            } else {
                let value = format!("v{i:06}").into_bytes();
                db.put(key, &value).unwrap();
                model.insert(key, value);
            }
            i += 1;
            // A buffer takes some 390 of these writes, so the first multiple
            // of 50 after a rotation is far from the next one — which, at
            // two queued, would wait on the paused flush.
            if i % 50 == 0 && db.immutable_memtables() == pinned.len() {
                pinned.push((db.snapshot(), model.clone()));
            }
        }
        assert_eq!(db.immutable_memtables(), 2, "two buffers queued");
        for k in 0..40u64 {
            db.put(k, b"newest").unwrap();
            model.insert(k, b"newest".to_vec());
        }
        let check = |when: &str| {
            let views = pinned.iter().map(|(snap, model)| (Some(snap), model));
            for (snap, model) in views.chain([(None, &model)]) {
                let ropts = snap.map_or_else(ReadOptions::new, ReadOptions::at);
                let what = format!("{when}, at {:?}", snap.map(Snapshot::seq));
                for k in 0..97u64 {
                    assert_eq!(
                        db.get_with(k, &ropts).unwrap(),
                        model.get(&k).cloned(),
                        "{what}"
                    );
                }
                let mut it = db.iter_with(&ropts).unwrap();
                it.seek_to_first();
                let pairs: Vec<_> = model.iter().map(|(k, v)| (*k, v.clone())).collect();
                assert_eq!(it.collect_up_to(usize::MAX).unwrap(), pairs, "{what}");
            }
        };
        check("queued");
        db.resume_flushes();
        db.wait_for_maintenance();
        assert_eq!(db.immutable_memtables(), 0);
        // The snapshots still read their pinned buffers, now retired.
        check("flushed");
    }

    #[test]
    fn background_snapshot_pins_queue_across_drain() {
        let db = background_db();
        db.pause_flushes();
        let mut k = 0u64;
        while db.immutable_memtables() == 0 {
            db.put(k, b"pinned-v1").unwrap();
            k += 1;
        }
        let snap = db.snapshot();
        db.resume_flushes();
        for p in 0..k {
            db.put(p, b"after-v2").unwrap();
        }
        db.flush().unwrap();
        db.wait_for_maintenance();
        assert_eq!(
            db.get_with(1, &ReadOptions::at(&snap)).unwrap(),
            Some(b"pinned-v1".to_vec()),
            "snapshot view survives the queue being flushed away"
        );
        assert_eq!(db.get(1).unwrap(), Some(b"after-v2".to_vec()));
    }

    #[test]
    fn close_drains_and_reports_clean() {
        let db = background_db();
        for k in 0..1_000u64 {
            db.put(k, b"to-drain").unwrap();
        }
        db.close().unwrap();
    }
}
