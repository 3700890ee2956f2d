//! The database facade — LevelDB's quartet: `write(WriteBatch, WriteOptions)`
//! as the single write entry point (with `put`/`delete`/`put_batch` as thin
//! wrappers), `get_with`/`iter_with(ReadOptions)` as the read entry points,
//! and RAII [`Snapshot`] handles for pinned point-in-time reads.
//!
//! ## Maintenance scheduling
//!
//! Writes land in the memtable; what happens when it fills depends on
//! [`Options::maintenance`]:
//!
//! * [`Maintenance::Synchronous`] (default): the buffer is flushed to an L0
//!   SSTable and compactions run *inline* until the tree satisfies its
//!   shape invariants — deterministic, so the paper's compaction
//!   experiments measure maintenance work instead of racing against it.
//! * [`Maintenance::Background`]: the buffer is **rotated** onto an
//!   immutable-memtable queue and the write returns immediately; dedicated
//!   flush and compaction workers (see [`crate::scheduler`]) restore the
//!   invariant concurrently. Writers are regulated LevelDB-style: each
//!   write is delayed ~1 ms once L0 reaches
//!   [`Options::l0_slowdown_trigger`], and blocks outright at
//!   [`Options::l0_stop_trigger`] (or when the immutable queue is full)
//!   until maintenance catches up. Reads always consult the active
//!   memtable, then the immutable queue (newest first), then the
//!   [`Version`] — so rotated-but-unflushed writes stay visible.
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
//! Two refinements: a writer that finds the queue empty with no active
//! leader (and is unsynced, or the only writer in flight) takes a **solo
//! fast path**, committing directly without the slot/wakeup machinery; and
//! a leader about to pay a real `sync` waits a bounded **commit window**
//! (`COMMIT_WINDOW`, 50 µs, yielding — never blocking followers' enqueue) for
//! the other in-flight writers to join, so a flush-bound load fuses into
//! maximal groups and the flush count drops by the writer count. A lone
//! writer never waits.
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
//! manifest; recovery picks the newest epoch that validates (falling back
//! to the legacy unsealed `MANIFEST` name for old directories).

use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::sync::{Condvar, Mutex as StdMutex};
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};

use crate::batch::{BatchOp, WriteBatch};
use crate::cache::EngineCache;
use crate::compaction::{
    advance_cursor, pick_compaction_excluding, run_compaction, CompactionTask, KeyRetention,
    LevelWriter, TableContext,
};
use crate::iter::{Cursor, DbIterator};
use crate::memtable::{ImmutableMemTable, MemTable, ENTRY_OVERHEAD};
use crate::options::{CompactionPolicy, Maintenance, Options, ReadOptions, WriteOptions};
use crate::scheduler::{MaintSignal, Scheduler, Step};
use crate::snapshot::{ReadView, Snapshot};
use crate::sstable::TableReader;
use crate::stats::DbStats;
use crate::types::{Entry, SeqNo};
use crate::version::{TableHandle, Version};
use crate::wal::{self, WalWriter};
use crate::{sealed, Error, Result};
use lsm_io::{CostModel, MemStorage, SimStorage, Storage};
use lsm_obs::{EngineObs, EventKind, MetricsSnapshot, GLOBAL_SHARD};

/// Legacy manifest file name (pre-epoch layouts; still readable).
const LEGACY_MANIFEST: &str = "MANIFEST";

/// Epoch-numbered manifest prefix: every rewrite seals a fresh
/// `MANIFEST-<epoch>` and only then retires its predecessor (see
/// [`crate::sealed`]).
const MANIFEST_PREFIX: &str = "MANIFEST-";

/// The newest manifest that validates, as `(epoch, text)` — epoch 0 is the
/// legacy unsealed `MANIFEST` file, accepted only when no epoch file
/// validates. `None` means a fresh database.
fn find_current_manifest(storage: &dyn Storage) -> Result<Option<(u64, String)>> {
    if let Some(found) = sealed::newest_valid(storage, MANIFEST_PREFIX)? {
        return Ok(Some(found));
    }
    if storage.exists(LEGACY_MANIFEST) {
        let raw = lsm_io::read_all(storage, LEGACY_MANIFEST)?;
        let text = String::from_utf8(raw)
            .map_err(|_| Error::Corruption("manifest is not UTF-8".into()))?;
        return Ok(Some((0, text)));
    }
    Ok(None)
}

/// Per-write delay applied once L0 reaches the slowdown trigger (LevelDB
/// sleeps the same 1 ms).
const SLOWDOWN_DELAY: Duration = Duration::from_millis(1);

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
    /// Rotated-but-unflushed buffers, oldest at the front (background
    /// maintenance only; always empty under `Maintenance::Synchronous`).
    imms: VecDeque<Arc<ImmutableMemTable>>,
    version: Arc<Version>,
    seq: SeqNo,
    /// Per-level round-robin compaction cursors (last compacted max key).
    cursors: Vec<u64>,
    /// Active write-ahead log (None when `Options::wal` is off).
    wal: Option<WalWriter>,
    /// A background flush worker holds the front immutable memtable.
    flush_active: bool,
    /// Input tables of in-flight background compactions (by file name);
    /// excluded from new picks so disjoint tasks can run concurrently.
    busy: HashSet<String>,
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
    cache: Option<Arc<EngineCache>>,
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
    /// Most recent background worker error (also counted in
    /// `DbStats::bg_errors`).
    last_bg_error: Mutex<Option<String>>,
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

/// Plumbing handed to [`Db::open_internal`] when the caller (the sharding
/// layer) runs maintenance on its own shared worker pool: the database
/// spawns no threads of its own and wires the shared wakeup channel and
/// shutdown flag into its core, so rotations/installs in any shard wake the
/// global workers and stalled writers alike.
pub(crate) struct ExternalPool {
    pub signal: Arc<MaintSignal>,
    pub shutdown: Arc<AtomicBool>,
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

// ------------------------------------------------- writer queue (group commit)

/// Cap on batches fused into one commit group. Bounds how much work a
/// single leader does under the tree lock (LevelDB caps similarly).
const MAX_GROUP_BATCHES: usize = 128;

/// Cap on a commit group's payload bytes — keeps one fused WAL record (and
/// the latency of the batches riding it) bounded.
const MAX_GROUP_BYTES: usize = 1 << 20;

/// Upper bound on how long a leader yields for in-flight writers to join a
/// *synced* group before flushing without them (see [`DbCore::lead_group`]).
/// Well under any real flush latency, so the window can only shrink the
/// number of flushes, never dominate commit latency.
const COMMIT_WINDOW: Duration = Duration::from_micros(50);

/// One queued write. Shared between the submitting thread (which waits on
/// `slot`) and whichever thread becomes the commit leader (which fills it).
struct WriteRequest {
    ops: Vec<BatchOp>,
    /// The ops' WAL region, pre-encoded by the submitting thread *outside*
    /// the commit path ([`wal::encode_ops`]) so the leader's serial
    /// section only concatenates member regions. Empty when this write
    /// will not be logged (WAL off / `disable_wal`).
    encoded: Vec<u8>,
    sync: bool,
    disable_wal: bool,
    /// Externally assigned first sequence number (the sharding fence).
    /// Such a write commits as a singleton group: its range is not ours to
    /// extend.
    assigned: Option<SeqNo>,
    /// Cross-shard prepare tag — also forces a singleton group, since the
    /// prepare record's header differs from a plain one.
    cross: Option<wal::CrossBatchTag>,
    slot: StdMutex<SlotState>,
}

/// Where a queued write is in its lifecycle. The submitter owns the
/// transition *out of* `Claimed`/`Failed`; the leader owns the transition
/// *into* them.
enum SlotState {
    /// Still on the queue (or being committed right now).
    Queued,
    /// Logged and sequenced; the submitter must now apply its ops to `mem`
    /// and report into the group ticket.
    Claimed(ClaimedWrite),
    /// The group's WAL/manifest step failed before any sequence was
    /// consumed; the write never happened.
    Failed(Error),
}

/// A member's share of a committed group: its own first sequence number,
/// the buffer generation its ops must land in (pinned by handle — a
/// rotation cannot swap it out from under the applier), and the group
/// ticket it reports completion to.
struct ClaimedWrite {
    first_seq: SeqNo,
    mem: MemTable,
    group: Arc<GroupTicket>,
}

/// Completion tracking for one commit group, queued FIFO on
/// [`DbCore::publish`]: when `remaining` hits zero the group is `done`,
/// and once every *earlier* group is done too, `visible` advances to
/// `last_seq` — the fence-publish discipline.
struct GroupTicket {
    last_seq: SeqNo,
    remaining: AtomicUsize,
    done: AtomicBool,
}

#[derive(Default)]
struct WriteQueue {
    queue: VecDeque<Arc<WriteRequest>>,
    /// A leader is mid-commit; followers wait instead of electing another.
    leader_active: bool,
}

#[derive(Default)]
struct PublishQueue {
    /// Committed-but-not-yet-fully-applied groups, claim (= sequence) order.
    pending: VecDeque<Arc<GroupTicket>>,
}

/// Decrements [`DbCore::writers_in_flight`] on scope exit, covering every
/// return path out of `write_impl` (success, admission failure, group
/// failure).
struct InFlightGuard<'a>(&'a AtomicUsize);

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// [`Error`] carries `std::io::Error` and so is not `Clone`; a group
/// failure must be delivered to every member, so approximate.
fn clone_error(e: &Error) -> Error {
    match e {
        Error::Io(io) => Error::Io(std::io::Error::new(io.kind(), io.to_string())),
        Error::Corruption(msg) => Error::Corruption(msg.clone()),
        Error::Unavailable(msg) => Error::Unavailable(msg.clone()),
    }
}

impl Db {
    /// Open (or create) a database on `storage`.
    ///
    /// A standalone open applies every replayed WAL record, including
    /// cross-shard prepare fragments (it has no marker log to resolve them
    /// against) — shard directories belong behind
    /// [`crate::sharding::ShardedDb::open`], whose coordinator resolves
    /// prepares to committed/aborted before the fence resumes.
    pub fn open(storage: Arc<dyn Storage>, opts: Options) -> Result<Db> {
        Self::open_internal(storage, opts, None, None, None, None, None)
    }

    pub(crate) fn open_internal(
        storage: Arc<dyn Storage>,
        opts: Options,
        pool: Option<ExternalPool>,
        resolver: Option<BatchResolver<'_>>,
        coordination: Option<Arc<CommitCoordination>>,
        obs: Option<Arc<EngineObs>>,
        shared_cache: Option<Arc<EngineCache>>,
    ) -> Result<Db> {
        // A standalone open with observability on builds its own handle;
        // the sharding layer passes per-shard handles sharing one ring.
        let obs = obs.or_else(|| opts.observability.then(|| Arc::new(EngineObs::solo(0))));
        // The sharding layer passes one cache shared by every shard (its
        // byte budget is global); a standalone open builds its own from
        // `Options::block_cache_bytes`.
        let cache = shared_cache.or_else(|| EngineCache::from_options(&opts));
        let sorted_levels = matches!(opts.compaction, CompactionPolicy::Leveling);
        let mut inner = Inner {
            mem: MemTable::new(),
            imms: VecDeque::new(),
            version: Arc::new(Version::with_layout(opts.max_levels, sorted_levels)),
            seq: 0,
            cursors: vec![0; opts.max_levels],
            wal: None,
            flush_active: false,
            busy: HashSet::new(),
        };
        let mut next_file_no = 1u64;
        let mut manifest_epoch = 0u64;
        let mut replayed: Vec<wal::ReplayedRecord> = Vec::new();
        let mut old_wals: Vec<String> = Vec::new();
        if let Some((epoch, manifest_text)) = find_current_manifest(storage.as_ref())? {
            manifest_epoch = epoch;
            let (version, recovered_next, seq, wal_names) =
                DbCore::recover(&manifest_text, storage.as_ref(), &opts, cache.as_ref())?;
            inner.version = Arc::new(version);
            next_file_no = recovered_next;
            inner.seq = seq;
            // Replay unflushed batches from the previous generation's logs
            // — the active one plus one per immutable memtable that was
            // still queued at the crash, oldest first. Cross-shard prepare
            // fragments are resolved through the caller's resolver:
            // aborted fragments are suppressed here and never re-logged,
            // which is exactly how an unsealed cross-shard batch vanishes
            // from this shard. Their sequence numbers are not counted
            // either — after every shard suppresses its fragment the range
            // is unused everywhere and the fence may re-allocate it.
            for name in &wal_names {
                for record in wal::replay_records(storage.as_ref(), name)? {
                    let committed = match (&record.cross, resolver) {
                        (Some(tag), Some(resolve)) => resolve(tag)?,
                        _ => true,
                    };
                    if !committed {
                        continue;
                    }
                    let last_seq = record.first_seq + record.ops.len() as SeqNo - 1;
                    inner.seq = inner.seq.max(last_seq);
                    inner.mem.apply_batch(&record.ops, record.first_seq);
                    replayed.push(record);
                }
            }
            old_wals = wal_names;
        }
        if opts.wal {
            let name = format!("{next_file_no:06}.wal");
            next_file_no += 1;
            let mut w = WalWriter::create(storage.as_ref(), &name)?;
            // Re-log the surviving records into the fresh log, one batch
            // record each, so a second crash before the next flush still
            // loses nothing. Resolved cross-shard fragments are re-logged
            // as *plain* records: their commit markers may be pruned once
            // every shard has re-opened, so the fragments must no longer
            // depend on them.
            for record in &replayed {
                w.append_batch(record.first_seq, &record.ops)?;
            }
            if !replayed.is_empty() {
                w.sync()?;
            }
            inner.wal = Some(w);
        }
        let external = pool.is_some();
        let (signal, shutdown) = match pool {
            Some(p) => (p.signal, p.shutdown),
            None => (
                Arc::new(MaintSignal::default()),
                Arc::new(AtomicBool::new(false)),
            ),
        };
        let start_seq = inner.seq;
        let core = Arc::new(DbCore {
            opts,
            storage,
            view: RwLock::new(Arc::new(DbCore::view_of(&inner))),
            inner: RwLock::new(inner),
            visible: AtomicU64::new(start_seq),
            write_queue: StdMutex::new(WriteQueue::default()),
            write_queue_cv: Condvar::new(),
            writers_in_flight: AtomicUsize::new(0),
            publish: StdMutex::new(PublishQueue::default()),
            publish_cv: Condvar::new(),
            stats: Arc::new(DbStats::new()),
            cache,
            snapshots: Arc::default(),
            next_file_no: AtomicU64::new(next_file_no),
            manifest_epoch: AtomicU64::new(manifest_epoch),
            manifest_dirty: AtomicBool::new(false),
            signal,
            shutdown,
            flush_paused: AtomicBool::new(false),
            compaction_paused: AtomicBool::new(false),
            last_bg_error: Mutex::new(None),
            coordination,
            obs,
        });
        {
            // Persist the fresh log's name so a reopen knows where to look.
            let inner = core.inner.read();
            core.write_manifest(&inner)?;
        }
        // The previous generation's logs are fully superseded (their
        // surviving contents were re-logged above and the manifest no
        // longer names them) — retire them so only live logs remain.
        if core.opts.wal {
            for old in old_wals {
                let _ = core.storage.remove(&old);
            }
        }
        // Sweep manifests stranded by earlier crashes (an unsealed newer
        // epoch, predecessors whose retirement never ran, the legacy
        // unsealed file) *and* orphan tables — outputs of a flush or
        // (sub)compaction that crashed before its manifest seal. A parallel
        // compaction can strand several such outputs at once; none is
        // named by any sealed manifest, so the recovered version is the
        // single source of truth for which `.sst` files are live.
        // Best-effort — a crash mid-sweep just leaves the next open to
        // finish it.
        let current = sealed::name(MANIFEST_PREFIX, core.manifest_epoch.load(Ordering::Relaxed));
        let live: HashSet<String> = {
            let inner = core.inner.read();
            inner
                .version
                .levels
                .iter()
                .flatten()
                .map(|t| t.meta.name.clone())
                .collect()
        };
        for name in core.storage.list()? {
            let stale =
                name != current && (name.starts_with(MANIFEST_PREFIX) || name == LEGACY_MANIFEST);
            let orphan = name.ends_with(".sst") && !live.contains(&name);
            if stale || orphan {
                let _ = core.storage.remove(&name);
            }
        }
        let scheduler = match core.opts.maintenance {
            Maintenance::Synchronous => None,
            // On an external pool the sharding layer owns the worker
            // threads; this instance only contributes its step functions.
            Maintenance::Background { .. } if external => None,
            Maintenance::Background {
                flush_threads,
                compaction_threads,
            } => {
                let flush_core = Arc::clone(&core);
                let compact_core = Arc::clone(&core);
                Some(Scheduler::start(
                    Arc::clone(&core.signal),
                    Arc::clone(&core.shutdown),
                    flush_threads,
                    compaction_threads,
                    move |draining| flush_core.flush_step(draining),
                    move |draining| compact_core.compact_step(draining),
                ))
            }
        };
        Ok(Db { core, scheduler })
    }

    /// Open on a fresh in-memory storage (tests, examples).
    pub fn open_memory(opts: Options) -> Result<Db> {
        Self::open(Arc::new(MemStorage::new()), opts)
    }

    /// Open on a fresh simulated-NVMe storage (benchmarks).
    pub fn open_sim(opts: Options, model: CostModel) -> Result<Db> {
        Self::open(Arc::new(SimStorage::new(model)), opts)
    }

    // ------------------------------------------------------------- writes

    /// Apply `batch` atomically — the single write entry point.
    ///
    /// The batch joins the writer queue, receives one contiguous sequence
    /// range, and (unless the WAL is off or [`WriteOptions::disable_wal`]
    /// is set) is logged inside **one** CRC-framed WAL record — possibly
    /// fused with other concurrently queued batches (pipelined group
    /// commit; see the module docs). The call returns the last sequence
    /// number assigned to the batch, after the batch — and every batch
    /// sequenced before it — is fully visible to readers.
    ///
    /// Under background maintenance this is also where backpressure
    /// applies: the write may be delayed (L0 at the slowdown trigger) or
    /// blocked (L0 at the stop trigger / immutable queue full) before it is
    /// admitted.
    ///
    /// ```rust
    /// use lsm_tree::{Db, Options, WriteBatch, WriteOptions};
    ///
    /// let db = Db::open_memory(Options::small_for_tests()).unwrap();
    ///
    /// // One batch, atomic to readers, one (possibly fused) WAL record.
    /// let mut batch = WriteBatch::new();
    /// batch.put(1, b"one");
    /// batch.put(2, b"two");
    /// batch.delete(3);
    /// let seq = db.write(batch, &WriteOptions::default()).unwrap();
    ///
    /// // The returned sequence is the batch's last — and it is already
    /// // visible: no separate "wait for apply" step exists in the API.
    /// assert_eq!(db.latest_seq(), seq);
    /// assert_eq!(db.get(2).unwrap().as_deref(), Some(&b"two"[..]));
    /// assert_eq!(db.get(3).unwrap(), None);
    ///
    /// // `durable()` additionally syncs the fused WAL record before
    /// // acknowledging (one flush per *group*, not per batch).
    /// let mut batch = WriteBatch::new();
    /// batch.put(4, b"four");
    /// db.write(batch, &WriteOptions::durable()).unwrap();
    /// ```
    pub fn write(&self, batch: WriteBatch, wopts: &WriteOptions) -> Result<SeqNo> {
        // When this instance is a shard, a direct write must serialize
        // with the owner's cross-shard commits and respect the poison
        // state: its inline flush could otherwise persist a shard
        // memtable holding a not-yet-sealed (or orphaned) prepare
        // fragment into an SSTable, which replays unconditionally.
        // (Direct shard writes remain off-protocol for sequence
        // allocation — see [`crate::sharding::ShardedDb::shard`].)
        let _guard = self
            .core
            .coordination
            .as_ref()
            .map(|c| c.enter())
            .transpose()?;
        self.write_impl(batch, wopts, None, None)
    }

    /// [`Db::write`] with an externally assigned first sequence number.
    ///
    /// The sharding layer allocates **one** contiguous range per
    /// cross-shard batch from a shared fence and hands each shard's
    /// sub-batch its sub-range, so sequence numbers stay globally unique
    /// and per-shard monotone. `first_seq` must exceed every sequence this
    /// instance has seen (the caller's allocator + commit lock guarantee
    /// it).
    ///
    /// When `cross` is set the fragment is logged as a **prepare** record
    /// and the synchronous-mode inline flush is deferred: the fragment
    /// must not reach an SSTable (which replays unconditionally) before
    /// the batch's commit marker seals it — the sharding layer calls
    /// [`Db::flush_deferred`] after sealing.
    pub(crate) fn write_assigned(
        &self,
        batch: WriteBatch,
        wopts: &WriteOptions,
        first_seq: SeqNo,
        cross: Option<&wal::CrossBatchTag>,
    ) -> Result<SeqNo> {
        self.write_impl(batch, wopts, Some(first_seq), cross)
    }

    /// The writer-queue protocol. Every write — plain, assigned-sequence,
    /// cross-shard — rides the same queue:
    ///
    /// 1. enqueue a [`WriteRequest`] and wait on its slot;
    /// 2. whichever waiter finds itself at the queue front (with no leader
    ///    active) becomes **leader**: it claims the sequence range for a
    ///    maximal run of compatible queued batches and appends one fused
    ///    WAL record for all of them ([`DbCore::lead_group`]);
    /// 3. every member — leader included — then applies its own ops to the
    ///    concurrent memtable *outside all locks*, in parallel with the
    ///    other members and with the next group's WAL append;
    /// 4. the last member to finish marks the group done, and
    ///    [`DbCore::publish_groups`] advances the `visible` ceiling in
    ///    group order; each member returns once its group is visible.
    fn write_impl(
        &self,
        batch: WriteBatch,
        wopts: &WriteOptions,
        assigned: Option<SeqNo>,
        cross: Option<&wal::CrossBatchTag>,
    ) -> Result<SeqNo> {
        if batch.is_empty() {
            return Ok(self.core.visible.load(Ordering::Acquire));
        }
        let core = &self.core;
        // Observability: the write histogram measures enqueue → fence
        // publish, so the clock starts before admission control.
        let started = core.obs.as_ref().map(|_| Instant::now());
        core.writers_in_flight.fetch_add(1, Ordering::Relaxed);
        let _in_flight = InFlightGuard(&core.writers_in_flight);
        let background = core.opts.maintenance.is_background();
        if background {
            // Admission control runs *before* queueing, so a stalled write
            // never blocks the leader pipeline. Fast path: no L0 pressure
            // and room in the buffer — skip the machinery entirely. The
            // probe is `try_read`: when the tree lock is write-held (a
            // leader mid-commit, maintenance installing a version),
            // blocking here would serialize admission behind the commit
            // pipeline and keep this writer out of the very group whose
            // flush could cover it. Skipping a contended probe admits at
            // most one extra group's worth of data; the next uncontended
            // probe sees the pressure and stalls as usual.
            let needs_room = core.inner.try_read().is_some_and(|inner| {
                inner.version.levels[0].len() >= core.opts.l0_slowdown_trigger
                    || inner.mem.approximate_bytes() >= core.opts.write_buffer_bytes
            });
            if needs_room {
                core.make_room()?;
            }
        }
        let ops = batch.into_ops();
        // Encode the WAL region here, on the submitting thread, so the
        // leader's serial section does no per-op byte shuffling.
        let encoded = if core.opts.wal && !wopts.disable_wal {
            wal::encode_ops(&ops)
        } else {
            Vec::new()
        };
        let req = Arc::new(WriteRequest {
            ops,
            encoded,
            sync: wopts.sync,
            disable_wal: wopts.disable_wal,
            assigned,
            cross: cross.cloned(),
            slot: StdMutex::new(SlotState::Queued),
        });
        {
            let mut q = core.write_queue.lock().unwrap();
            // Uncontended fast path: an empty queue with no leader active
            // means this writer IS the group — commit solo and skip the
            // slot/wakeup machinery (the queue is the price of concurrency;
            // a lone writer shouldn't pay it). Synced writes with other
            // writers in flight decline the shortcut: they enqueue so the
            // leader's commit window can fuse them under one flush.
            let solo_ok = !req.sync || core.writers_in_flight.load(Ordering::Relaxed) <= 1;
            if q.queue.is_empty() && !q.leader_active && solo_ok {
                q.leader_active = true;
                drop(q);
                let result = {
                    let mut inner = core.inner.write();
                    core.commit_group(&mut inner, std::slice::from_ref(&req))
                };
                let mut q = core.write_queue.lock().unwrap();
                q.leader_active = false;
                core.write_queue_cv.notify_all();
                drop(q);
                match result {
                    Ok(mut claims) => {
                        let claim = claims.pop().expect("solo group has one claim");
                        return self.finish_write(&req, claim, background, cross, started);
                    }
                    Err(e) => return Err(e),
                }
            }
            q.queue.push_back(Arc::clone(&req));
            core.write_queue_cv.notify_all();
        }
        let claim = 'wait: loop {
            let mut q = core.write_queue.lock().unwrap();
            loop {
                {
                    let mut slot = req.slot.lock().unwrap();
                    match std::mem::replace(&mut *slot, SlotState::Queued) {
                        SlotState::Claimed(c) => break 'wait c,
                        SlotState::Failed(e) => return Err(e),
                        SlotState::Queued => {}
                    }
                }
                let should_lead =
                    !q.leader_active && q.queue.front().is_some_and(|f| Arc::ptr_eq(f, &req));
                if should_lead {
                    q.leader_active = true;
                    drop(q);
                    core.lead_group();
                    // Our own slot is now Claimed or Failed; loop to pick
                    // it up through the common path.
                    continue 'wait;
                }
                q = core.write_queue_cv.wait(q).unwrap();
            }
        };
        self.finish_write(&req, claim, background, cross, started)
    }

    /// The member half of a commit: apply the claimed ops, publish when the
    /// group completes, and block until the fence admits them. Shared by
    /// the queued path and the solo fast path.
    fn finish_write(
        &self,
        req: &WriteRequest,
        claim: ClaimedWrite,
        background: bool,
        cross: Option<&wal::CrossBatchTag>,
        started: Option<Instant>,
    ) -> Result<SeqNo> {
        let core = &self.core;
        // Apply outside every lock: group members insert into the shared
        // skiplist in parallel, while the next leader is already logging.
        claim.mem.apply_batch(&req.ops, claim.first_seq);
        claim.mem.finish_applier();
        if claim.group.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            claim.group.done.store(true, Ordering::Release);
            core.publish_groups();
        }
        // Fence-publish: do not acknowledge until the whole group (and
        // every earlier group) is readable — an ack'd write must be
        // immediately visible to the writer, and the ceiling must never
        // expose another member's half-applied batch.
        core.wait_visible(claim.group.last_seq);
        if let (Some(obs), Some(started)) = (core.obs.as_deref(), started) {
            obs.ops.write.record(started.elapsed().as_nanos() as u64);
        }
        let last_seq = claim.first_seq + req.ops.len() as SeqNo - 1;
        if background {
            // The overlap witness: this write completed while a background
            // worker was mid-flush or mid-compaction.
            if core.stats.active_background_workers() > 0 {
                core.stats
                    .writes_during_maintenance
                    .fetch_add(1, Ordering::Relaxed);
            }
        } else if cross.is_none() {
            // Cross-shard fragments defer the inline flush until the
            // batch's commit marker is durable ([`Db::flush_deferred`]).
            let mut inner = core.inner.write();
            core.maybe_flush(&mut inner)?;
        }
        Ok(last_seq)
    }

    /// The deferred half of a cross-shard commit: flush the memtable if it
    /// is over budget, now that the batch's marker has sealed it. Under
    /// background maintenance this is a no-op — the next write's admission
    /// control rotates the buffer at the same threshold.
    pub(crate) fn flush_deferred(&self) -> Result<()> {
        if self.core.opts.maintenance.is_background() {
            return Ok(());
        }
        let mut inner = self.core.inner.write();
        self.core.maybe_flush(&mut inner)
    }

    /// Insert or overwrite `key` (thin wrapper over [`Db::write`]).
    pub fn put(&self, key: u64, value: &[u8]) -> Result<()> {
        let mut batch = WriteBatch::with_capacity(1);
        batch.put(key, value);
        self.write(batch, &WriteOptions::default())?;
        Ok(())
    }

    /// Delete `key` — writes a tombstone (thin wrapper over [`Db::write`]).
    pub fn delete(&self, key: u64) -> Result<()> {
        let mut batch = WriteBatch::with_capacity(1);
        batch.delete(key);
        self.write(batch, &WriteOptions::default())?;
        Ok(())
    }

    /// Write `pairs` as one atomic batch (thin wrapper over [`Db::write`]).
    pub fn put_batch(&self, pairs: &[(u64, Vec<u8>)]) -> Result<()> {
        let mut batch = WriteBatch::with_capacity(pairs.len());
        for (k, v) in pairs {
            batch.put(*k, v);
        }
        self.write(batch, &WriteOptions::default())?;
        Ok(())
    }

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

    /// Point lookup at an explicit sequence ceiling against the **live**
    /// tree. Unlike a [`Snapshot`], a bare sequence number pins nothing:
    /// versions below the ceiling may be garbage-collected by intervening
    /// flushes/compactions. Prefer [`Db::snapshot`] + [`Db::get_with`].
    pub fn get_at(&self, key: u64, snapshot: SeqNo) -> Result<Option<Vec<u8>>> {
        self.get_with(
            key,
            &ReadOptions {
                read_seq: Some(snapshot),
                ..ReadOptions::new()
            },
        )
    }

    /// Point lookup honouring [`ReadOptions`]: snapshot / sequence ceiling
    /// and block-cache fill policy.
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

    // ------------------------------------------------- flush / maintenance

    /// Force a flush of the current memtable (no-op when empty).
    ///
    /// Under background maintenance the buffer is rotated onto the
    /// immutable queue (bypassing backpressure — an explicit flush is an
    /// order, not a write) and the call blocks until the queue drains.
    pub fn flush(&self) -> Result<()> {
        {
            // When this instance is a shard, serialize with (and respect
            // the poison state of) the owner's cross-shard commits: the
            // memtable may hold a prepare fragment whose marker is not yet
            // sealed, and an SSTable replays unconditionally.
            let _guard = self
                .core
                .coordination
                .as_ref()
                .map(|c| c.enter())
                .transpose()?;
            self.begin_flush()?;
        }
        self.finish_flush()
    }

    /// First half of a flush: push the active memtable toward the tables.
    /// Synchronous mode flushes (and compacts) inline; background mode
    /// rotates the buffer onto the immutable queue and returns without
    /// waiting. The sharding layer calls this under its commit lock — a
    /// rotation racing a cross-shard commit could flush an unsealed
    /// prepare fragment into an SSTable, which replays unconditionally —
    /// and does the (possibly long) wait outside it.
    pub(crate) fn begin_flush(&self) -> Result<()> {
        if self.core.opts.maintenance.is_background() {
            {
                let mut inner = self.core.inner.write();
                if !inner.mem.is_empty() {
                    self.core.rotate_memtable(&mut inner)?;
                }
            }
            self.core.signal.bump();
            return Ok(());
        }
        let mut inner = self.core.inner.write();
        if inner.mem.is_empty() {
            return Ok(());
        }
        self.core.flush_locked(&mut inner)
    }

    /// Second half of a flush: wait for the background queues to drain and
    /// surface any worker error. No-op under synchronous maintenance.
    pub(crate) fn finish_flush(&self) -> Result<()> {
        if self.core.opts.maintenance.is_background() {
            self.wait_flush_drain();
            return self.check_background_error();
        }
        Ok(())
    }

    /// Block until the immutable-memtable queue is empty and no flush is
    /// in flight (returns immediately when flushes are paused — paused
    /// work would never drain).
    fn wait_flush_drain(&self) {
        loop {
            let epoch = self.core.signal.epoch();
            {
                let inner = self.core.inner.read();
                if inner.imms.is_empty() && !inner.flush_active {
                    return;
                }
            }
            if self.core.flush_paused.load(Ordering::Acquire) || self.background_error().is_some() {
                return; // paused or failing: the drain will not happen
            }
            self.core.signal.wait_past(epoch);
        }
    }

    /// Block until all *eligible* background maintenance is complete: the
    /// immutable queue is drained and no compaction is due or in flight.
    /// Paused pools are not waited for. No-op under synchronous
    /// maintenance (the invariant already holds after every write).
    pub fn wait_for_maintenance(&self) {
        if !self.core.opts.maintenance.is_background() {
            return;
        }
        loop {
            let epoch = self.core.signal.epoch();
            {
                let inner = self.core.inner.read();
                let flush_idle = self.core.flush_paused.load(Ordering::Acquire)
                    || (inner.imms.is_empty() && !inner.flush_active);
                let compact_idle = inner.busy.is_empty()
                    && (self.core.compaction_paused.load(Ordering::Acquire)
                        || pick_compaction_excluding(
                            &inner.version,
                            &self.core.opts,
                            &inner.cursors,
                            &inner.busy,
                        )
                        .is_none());
                if flush_idle && compact_idle {
                    return;
                }
            }
            if self.background_error().is_some() {
                return; // a failing worker never goes idle
            }
            self.core.signal.wait_past(epoch);
        }
    }

    /// Stop background compaction workers from claiming new tasks
    /// (in-flight tasks finish). An ops/testing hook: freezing compactions
    /// lets L0 pressure build deterministically.
    pub fn pause_compactions(&self) {
        self.core.compaction_paused.store(true, Ordering::Release);
        self.core.signal.bump();
    }

    /// Re-enable background compactions.
    pub fn resume_compactions(&self) {
        self.core.compaction_paused.store(false, Ordering::Release);
        self.core.signal.bump();
    }

    /// Stop background flush workers from claiming new immutable memtables
    /// (shutdown overrides the pause to drain the queue).
    pub fn pause_flushes(&self) {
        self.core.flush_paused.store(true, Ordering::Release);
        self.core.signal.bump();
    }

    /// Re-enable background flushes.
    pub fn resume_flushes(&self) {
        self.core.flush_paused.store(false, Ordering::Release);
        self.core.signal.bump();
    }

    /// The most recent background worker error, if any (also counted by
    /// `DbStats::bg_errors`). Foreground writes are never failed by
    /// background errors; callers that care should check this.
    pub fn background_error(&self) -> Option<String> {
        self.core.last_bg_error.lock().clone()
    }

    fn check_background_error(&self) -> Result<()> {
        match self.background_error() {
            None => Ok(()),
            Some(msg) => Err(Error::Corruption(format!("background worker: {msg}"))),
        }
    }

    /// Drain background workers and close the database. Equivalent to
    /// dropping the handle, but surfaces any background error explicitly.
    pub fn close(mut self) -> Result<()> {
        self.shutdown_workers();
        self.check_background_error()
    }

    fn shutdown_workers(&mut self) {
        if let Some(scheduler) = self.scheduler.take() {
            scheduler.shutdown(&self.core.signal, &self.core.shutdown);
        }
    }

    // ------------------------------------------------------- introspection

    /// Number of live entries in the active memtable (records, incl.
    /// versions; queued immutable memtables not included).
    pub fn memtable_len(&self) -> usize {
        self.core.inner.read().mem.len()
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
    /// Under [`Maintenance::Synchronous`] there is no backpressure
    /// (flushes run inline), so this always reports `Clear`.
    pub fn write_pressure(&self) -> WritePressure {
        if !self.core.opts.maintenance.is_background() {
            return WritePressure::Clear;
        }
        let inner = self.core.inner.read();
        let opts = &self.core.opts;
        let l0 = inner.version.levels[0].len();
        let buffer_full = inner.mem.approximate_bytes() >= opts.write_buffer_bytes;
        if buffer_full
            && (l0 >= opts.l0_stop_trigger
                || inner.imms.len() >= opts.max_immutable_memtables.max(1))
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
        self.core.inner.read().imms.len()
    }

    /// Approximate resident bytes: every level's table bytes plus the
    /// active and queued memtables — the load metric the sharding layer's
    /// split trigger compares across shards.
    pub fn resident_bytes(&self) -> u64 {
        let inner = self.core.inner.read();
        let tables: u64 = (0..inner.version.levels.len())
            .map(|l| inner.version.level_bytes(l))
            .sum();
        tables
            + inner.mem.approximate_bytes() as u64
            + inner
                .imms
                .iter()
                .map(|imm| imm.mem.approximate_bytes() as u64)
                .sum::<u64>()
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
    pub fn block_cache(&self) -> Option<&Arc<EngineCache>> {
        self.core.cache.as_ref()
    }

    /// Current *published* write sequence number: the ceiling reads
    /// observe. May momentarily trail the internal allocator while commit
    /// groups are still applying.
    pub fn latest_seq(&self) -> SeqNo {
        self.core.visible.load(Ordering::Acquire)
    }

    /// Build and install a fully-loaded database in bulk: entries stream
    /// straight into leveled SSTables without write amplification. Intended
    /// for experiment setup (load phase), not a public write path.
    pub fn bulk_load<I>(&self, entries: I) -> Result<()>
    where
        I: IntoIterator<Item = (u64, Vec<u8>)>,
    {
        let core = &self.core;
        let mut inner = core.inner.write();
        let mut pending: Vec<Entry> = Vec::new();
        for (k, v) in entries {
            inner.seq += 1;
            let seq = inner.seq;
            pending.push(Entry::put(k, seq, v));
        }
        pending.sort_by_key(|a| a.key);
        pending.dedup_by_key(|e| e.key.user_key);

        // Write tables at the target granularity directly into the deepest
        // level that can hold the data.
        let per_table = core.opts.entries_per_table();
        let total = pending.len() as u64;
        let mut level = 1usize;
        while level + 1 < core.opts.max_levels {
            let cap_entries = core.opts.level_target_bytes(level)
                / crate::sstable::format::entry_width(core.opts.value_width) as u64;
            if total <= cap_entries {
                break;
            }
            level += 1;
        }

        let ctx = core.tables();
        let mut out = LevelWriter::new(&ctx, level);
        for chunk in pending.chunks(per_table) {
            for e in chunk {
                out.add(&e.key, &e.value)?;
            }
            out.cut()?;
        }
        let tables = out.finish()?;
        let sorted = matches!(core.opts.compaction, CompactionPolicy::Leveling);
        let mut version = Version::with_layout(core.opts.max_levels, sorted);
        version.levels[level] = tables;
        version.train_level_indexes(&core.opts)?;
        core.install(&mut inner, |tree| tree.version = Arc::new(version));
        // Bulk-loaded entries bypass the writer queue; publish their range
        // directly so reads (and the sharding fence) see them.
        core.visible.store(inner.seq, Ordering::Release);
        core.write_manifest(&inner)
    }
}

impl Drop for Db {
    fn drop(&mut self) {
        self.shutdown_workers();
    }
}

impl DbCore {
    fn recover(
        text: &str,
        storage: &dyn Storage,
        opts: &Options,
        cache: Option<&Arc<EngineCache>>,
    ) -> Result<(Version, u64, SeqNo, Vec<String>)> {
        let sorted_levels = matches!(opts.compaction, CompactionPolicy::Leveling);
        let mut version = Version::with_layout(opts.max_levels, sorted_levels);
        let mut next_file_no = 1u64;
        let mut seq = 0u64;
        let mut wal_names = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let mut parts = line.split_whitespace();
            match parts.next() {
                Some("next") => {
                    next_file_no = parts
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| Error::Corruption(format!("manifest line {lineno}")))?;
                    seq = parts
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| Error::Corruption(format!("manifest line {lineno}")))?;
                }
                Some("wal") => {
                    // Oldest first: queued immutable-memtable logs, then
                    // the active log.
                    wal_names.extend(parts.next().map(|s| s.to_string()));
                }
                Some("table") => {
                    let level: usize = parts
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| Error::Corruption(format!("manifest line {lineno}")))?;
                    let name = parts
                        .next()
                        .ok_or_else(|| Error::Corruption(format!("manifest line {lineno}")))?;
                    let reader = Arc::new(
                        TableReader::open_with(storage, name, cache.cloned())?
                            .with_search_strategy(opts.search),
                    );
                    let meta = crate::sstable::TableMeta {
                        name: name.to_string(),
                        n: reader.len() as u64,
                        min_key: reader.min_key(),
                        max_key: reader.max_key(),
                        max_seq: 0,
                        file_bytes: storage.size_of(name)?,
                        index_bytes: reader.index_bytes(),
                        index_payload_bytes: 0,
                        bloom_bytes: reader.bloom_bytes(),
                        index_kind: reader.index_kind(),
                        train_ns: 0,
                        model_write_ns: 0,
                    };
                    if level < version.levels.len() {
                        version.levels[level].push(Arc::new(TableHandle { meta, reader }));
                    }
                }
                _ => {}
            }
        }
        if sorted_levels {
            for level in version.levels.iter_mut().skip(1) {
                level.sort_by_key(|t| t.meta.min_key);
            }
        }
        version.train_level_indexes(opts)?;
        Ok((version, next_file_no, seq, wal_names))
    }

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

    fn write_manifest(&self, inner: &Inner) -> Result<()> {
        let mut text = format!(
            "next {} {}\n",
            self.next_file_no.load(Ordering::Relaxed),
            inner.seq
        );
        // Every live log, oldest first: one per queued immutable memtable,
        // then the active log. A crash must find all of them, or rotated
        // but unflushed acknowledged writes would be lost.
        for imm in &inner.imms {
            if let Some(name) = &imm.wal {
                text.push_str(&format!("wal {name}\n"));
            }
        }
        if let Some(w) = &inner.wal {
            text.push_str(&format!("wal {}\n", w.name()));
        }
        for (level, tables) in inner.version.levels.iter().enumerate() {
            for t in tables {
                text.push_str(&format!("table {level} {}\n", t.meta.name));
            }
        }
        // Seal into a fresh epoch file, then retire the predecessor: the
        // store always holds at least one intact manifest, whichever
        // storage operation a crash lands on. (An unsealed `MANIFEST-<e>`
        // from a crash mid-write fails CRC validation and recovery falls
        // back to `<e-1>`.)
        let epoch = self.manifest_epoch.fetch_add(1, Ordering::Relaxed) + 1;
        self.manifest_dirty.store(true, Ordering::Release);
        sealed::write_sealed(self.storage.as_ref(), MANIFEST_PREFIX, epoch, text)?;
        // Sealed: the on-disk manifest now names the live WAL set.
        self.manifest_dirty.store(false, Ordering::Release);
        Ok(())
    }

    // --------------------------------------------- pipelined group commit

    /// Run one commit group as leader. Called by the writer that found
    /// itself at the queue front with `leader_active` freshly set; on
    /// return every popped member's slot (the leader's own included) holds
    /// `Claimed` or `Failed`, and `leader_active` is cleared.
    ///
    /// Lock order: the tree lock is taken **before** the queue lock —
    /// popping members under the tree lock means the WAL append order of
    /// successive groups is their queue order, so sequence ranges in the
    /// log are monotone.
    fn lead_group(&self) {
        let mut inner = self.inner.write();
        let mut q = self.write_queue.lock().unwrap();
        // Commit window: if the head batch wants a flush and other writers
        // are in flight but not yet queued, yield briefly so they join and
        // one `sync` covers the lot. The wait is evidence-driven — a lone
        // writer satisfies the target instantly and never waits — and
        // bounded, so a straggler stuck in admission can only delay a
        // group by `COMMIT_WINDOW`, never park it.
        if q.queue
            .front()
            .is_some_and(|h| h.sync && h.assigned.is_none() && h.cross.is_none())
        {
            let deadline = Instant::now() + COMMIT_WINDOW;
            loop {
                let target = self
                    .writers_in_flight
                    .load(Ordering::Relaxed)
                    .min(MAX_GROUP_BATCHES);
                if q.queue.len() >= target || Instant::now() >= deadline {
                    break;
                }
                drop(q);
                std::thread::yield_now();
                q = self.write_queue.lock().unwrap();
            }
        }
        let members: Vec<Arc<WriteRequest>> = {
            let mut members: Vec<Arc<WriteRequest>> = Vec::new();
            if let Some(head) = q.queue.pop_front() {
                // The head defines the group. Assigned-sequence and
                // cross-shard prepares commit alone; plain batches fuse
                // with following plain batches of the same WAL-ness, up to
                // the group caps.
                let exclusive = head.assigned.is_some() || head.cross.is_some();
                let disable_wal = head.disable_wal;
                let mut bytes: usize = head
                    .ops
                    .iter()
                    .map(|o| ENTRY_OVERHEAD + o.value.len())
                    .sum();
                members.push(head);
                while !exclusive && members.len() < MAX_GROUP_BATCHES && bytes < MAX_GROUP_BYTES {
                    match q.queue.front() {
                        Some(next)
                            if next.assigned.is_none()
                                && next.cross.is_none()
                                && next.disable_wal == disable_wal =>
                        {
                            let next = q.queue.pop_front().expect("front just checked");
                            bytes += next
                                .ops
                                .iter()
                                .map(|o| ENTRY_OVERHEAD + o.value.len())
                                .sum::<usize>();
                            members.push(next);
                        }
                        _ => break,
                    }
                }
            }
            members
        };
        drop(q);
        debug_assert!(!members.is_empty(), "a leader always has its own request");
        let result = self.commit_group(&mut inner, &members);
        drop(inner);
        let mut q = self.write_queue.lock().unwrap();
        match result {
            Ok(claims) => {
                for (req, claim) in members.iter().zip(claims) {
                    *req.slot.lock().unwrap() = SlotState::Claimed(claim);
                }
            }
            Err(e) => {
                // The group failed before consuming any sequence number:
                // deliver the error to every member (approximated — `Error`
                // is not `Clone`); none of the writes happened.
                for req in &members {
                    *req.slot.lock().unwrap() = SlotState::Failed(clone_error(&e));
                }
            }
        }
        q.leader_active = false;
        self.write_queue_cv.notify_all();
    }

    /// Sequence + log one commit group under the tree lock. On success the
    /// group's ops are *claimed but not yet applied*: each returned
    /// [`ClaimedWrite`] is registered as an applier on the current buffer
    /// (so a rotation will quiesce on it) and the group's ticket is queued
    /// for publication. Every failure point comes *before* the sequence
    /// counter advances, so a failed group simply never happened.
    fn commit_group(
        &self,
        inner: &mut Inner,
        members: &[Arc<WriteRequest>],
    ) -> Result<Vec<ClaimedWrite>> {
        // If an earlier maintenance failure left the on-disk manifest not
        // naming the live WAL set (a flush that rotated the log but died
        // before its manifest rewrite), repair it before acknowledging:
        // this group's record would otherwise sit in a log a crash never
        // replays. Failing the repair fails the group — unacknowledged.
        if self.manifest_dirty.load(Ordering::Acquire) {
            self.write_manifest(inner)?;
        }
        let head = &members[0];
        let first_seq = head.assigned.unwrap_or(inner.seq + 1);
        let total: usize = members.iter().map(|m| m.ops.len()).sum();
        let last_seq = first_seq + total as SeqNo - 1;
        // `rotate_wal` replaces the writer atomically, so with the WAL
        // enabled there is always one to append to.
        debug_assert!(
            inner.wal.is_some() || !self.opts.wal,
            "wal enabled but no writer — a rotation lost it"
        );
        let mut wal_framed = 0u64;
        if !head.disable_wal {
            if let Some(w) = &mut inner.wal {
                // One fused, CRC-framed record for the whole group; replay
                // is all-or-nothing and indistinguishable from one large
                // batch, which is safe because no member was acknowledged
                // unless the whole record landed. Members pre-encoded
                // their regions off-path; a cross-shard prepare (always a
                // group of one) differs only in the record header.
                let parts: Vec<&[u8]> = members.iter().map(|m| m.encoded.as_slice()).collect();
                let framed = w.append_encoded(first_seq, total, &parts, head.cross.as_ref())?;
                self.stats.wal_appends.fetch_add(1, Ordering::Relaxed);
                self.stats.wal_bytes.fetch_add(framed, Ordering::Relaxed);
                wal_framed = framed;
                if members.iter().any(|m| m.sync) {
                    let sync_started = self.obs.as_ref().map(|_| Instant::now());
                    w.sync()?;
                    self.stats.wal_syncs.fetch_add(1, Ordering::Relaxed);
                    if let (Some(obs), Some(started)) = (self.obs.as_deref(), sync_started) {
                        let ns = started.elapsed().as_nanos() as u64;
                        obs.ops.sync_wait.record(ns);
                        obs.emit(EventKind::WalSync, 0, ns, 0);
                    }
                }
            }
        }
        if let Some(obs) = self.obs.as_deref() {
            obs.emit(
                EventKind::WriteGroupCommit,
                0,
                members.len() as u64,
                wal_framed,
            );
        }
        inner.seq = inner.seq.max(last_seq);
        self.stats.write_groups.fetch_add(1, Ordering::Relaxed);
        self.stats
            .write_batches
            .fetch_add(members.len() as u64, Ordering::Relaxed);
        self.stats
            .write_entries
            .fetch_add(total as u64, Ordering::Relaxed);
        let group = Arc::new(GroupTicket {
            last_seq,
            remaining: AtomicUsize::new(members.len()),
            done: AtomicBool::new(false),
        });
        // Queue the ticket while still under the tree lock: claim order ==
        // publication order == sequence order.
        self.publish
            .lock()
            .unwrap()
            .pending
            .push_back(Arc::clone(&group));
        let mut claims = Vec::with_capacity(members.len());
        let mut next_seq = first_seq;
        for m in members {
            // Registered under the tree lock, so a rotation (which also
            // holds it) either sees this applier and waits for it, or
            // completes entirely before this claim — never in between.
            inner.mem.register_applier();
            claims.push(ClaimedWrite {
                first_seq: next_seq,
                mem: inner.mem.clone(),
                group: Arc::clone(&group),
            });
            next_seq += m.ops.len() as SeqNo;
        }
        Ok(claims)
    }

    /// Advance the `visible` ceiling over every fully-applied group at the
    /// front of the publication queue. Publication is strictly FIFO: a
    /// done group behind a still-applying one stays unpublished, so the
    /// ceiling never jumps a gap.
    fn publish_groups(&self) {
        let mut p = self.publish.lock().unwrap();
        let mut published = false;
        while let Some(front) = p.pending.front() {
            if !front.done.load(Ordering::Acquire) {
                break;
            }
            let ticket = p.pending.pop_front().expect("front just checked");
            self.visible.fetch_max(ticket.last_seq, Ordering::Release);
            published = true;
        }
        if published {
            self.publish_cv.notify_all();
        }
    }

    /// Block until the `visible` ceiling covers `seq`. The check-then-wait
    /// races nothing: `publish_groups` stores `visible` while holding the
    /// publish lock, which this reacquires before every re-check.
    fn wait_visible(&self, seq: SeqNo) {
        if self.visible.load(Ordering::Acquire) >= seq {
            return;
        }
        let mut p = self.publish.lock().unwrap();
        while self.visible.load(Ordering::Acquire) < seq {
            p = self.publish_cv.wait(p).unwrap();
        }
    }

    // ------------------------------------------- synchronous maintenance

    /// Flush the memtable if it exceeds the write buffer (synchronous
    /// mode's inline maintenance).
    fn maybe_flush(&self, inner: &mut Inner) -> Result<()> {
        if inner.mem.approximate_bytes() < self.opts.write_buffer_bytes {
            return Ok(());
        }
        self.flush_locked(inner)
    }

    fn flush_locked(&self, inner: &mut Inner) -> Result<()> {
        self.quiesce(inner);
        let flush_started = Instant::now();
        let entries = inner.mem.len() as u64;
        let flush_span = self.obs.as_deref().map(|obs| {
            let span = obs.span();
            obs.emit(EventKind::FlushBegin, span, entries, 0);
            span
        });
        let handle = self.flush_table(&inner.mem)?;
        self.install(inner, |tree| {
            tree.version = Arc::new(tree.version.with_l0_table(handle));
            tree.mem = MemTable::new();
        });
        // Start a fresh log; the old one is retired only after the manifest
        // durably references the new SSTable — until then a crash must
        // still find the old log named by the old manifest, or the flushed
        // writes would be lost.
        let old_wal = self.rotate_wal(inner)?;
        self.stats.flushes.fetch_add(1, Ordering::Relaxed);
        if let (Some(obs), Some(span)) = (self.obs.as_deref(), flush_span) {
            obs.emit(
                EventKind::FlushEnd,
                span,
                entries,
                flush_started.elapsed().as_nanos() as u64,
            );
        }
        let retired_tables = self.compact_until_stable(inner)?;
        self.write_manifest(inner)?;
        // Only now is the sealed manifest free of the merged inputs and
        // the old log — a crash at any earlier boundary still finds a
        // manifest whose files all exist. Open readers pinned by a live
        // Snapshot's Version keep removed tables readable until released.
        for name in retired_tables {
            let _ = self.storage.remove(&name);
        }
        if let Some(old) = old_wal {
            let _ = self.storage.remove(&old);
        }
        Ok(())
    }

    /// Write a quiesced buffer out as one L0 table, in either maintenance
    /// mode: flush order is key asc, seq desc, so the newest version per user
    /// key survives; tombstones are kept since L0 is never the bottom. Keys
    /// and values are borrowed from the skiplist's nodes.
    fn flush_table(&self, mem: &MemTable) -> Result<Arc<TableHandle>> {
        let ctx = self.tables();
        let mut out = LevelWriter::new(&ctx, 0);
        let mut retention = KeyRetention::new(false);
        let mut cursor = mem.cursor();
        cursor.seek_to_first();
        while let Some(key) = cursor.key()? {
            if retention.keep(&key) {
                out.add(&key, cursor.value())?;
            }
            cursor.advance();
        }
        let handle = out.finish()?.pop();
        let handle = handle.ok_or_else(|| Error::Corruption("flush of an empty buffer".into()))?;
        self.stats
            .flush_bytes_written
            .fetch_add(handle.meta.file_bytes, Ordering::Relaxed);
        Ok(handle)
    }

    /// Drop a finished compaction's inputs' cached blocks: dead weight, the
    /// tables are about to be unlinked.
    fn retire_cached_tables(&self, task: &CompactionTask) {
        if let Some(cache) = &self.cache {
            for t in task.inputs.iter().chain(task.next_inputs.iter()) {
                cache.blocks().evict_table(t.reader.table_id());
            }
        }
    }

    /// `inner`'s version with `task`'s inputs replaced by `outputs` and the
    /// models of the levels that changed retrained (level granularity only;
    /// the time joins the compaction's training share).
    fn compacted(
        &self,
        inner: &Inner,
        task: &CompactionTask,
        outputs: Vec<Arc<TableHandle>>,
    ) -> Result<Arc<Version>> {
        let removed = task.input_names();
        let mut version = inner
            .version
            .with_compaction_applied(task.level, &removed, outputs);
        let train_ns = version.train_level_indexes(&self.opts)?;
        self.stats
            .compact_train_ns
            .fetch_add(train_ns, Ordering::Relaxed);
        self.stats
            .compact_total_ns
            .fetch_add(train_ns, Ordering::Relaxed);
        Ok(Arc::new(version))
    }

    /// Run compactions until the tree satisfies its shape invariants,
    /// returning the merged input tables' names. The caller removes them
    /// **after** its manifest rewrite seals: until then the only sealed
    /// manifest on disk still names these files, and unlinking them first
    /// would leave a crash with a manifest pointing at nothing — an
    /// unopenable database. (The background path, `compact_step`, orders
    /// its removals the same way.)
    fn compact_until_stable(&self, inner: &mut Inner) -> Result<Vec<String>> {
        let inner = &mut *inner;
        let mut retired = Vec::new();
        while let Some(task) =
            pick_compaction_excluding(&inner.version, &self.opts, &inner.cursors, &inner.busy)
        {
            advance_cursor(&inner.version, &task, &mut inner.cursors);
            let result = run_compaction(&self.tables(), &task, &self.stats, self.obs.as_deref())?;
            self.retire_cached_tables(&task);
            let version = self.compacted(inner, &task, result.outputs)?;
            self.install(inner, |tree| tree.version = version);
            retired.extend(task.input_names());
        }
        Ok(retired)
    }

    // ------------------------------------------- background maintenance

    /// Admission control for one write (background mode): rotate a full
    /// memtable onto the immutable queue, delaying or blocking the writer
    /// per the LevelDB triggers first.
    fn make_room(&self) -> Result<()> {
        let mut slowed = false;
        let mut stop_started: Option<Instant> = None;
        let mut stop_span: Option<u64> = None;
        let outcome = loop {
            let epoch = self.signal.epoch();
            let mut inner = self.inner.write();
            let l0 = inner.version.levels[0].len();
            // One delay per write while L0 rides above the soft trigger —
            // a gentle brake that spreads the wait over many writes (no
            // upper bound: at peak pressure writes still brake before the
            // hard stop, as in LevelDB).
            if !slowed && l0 >= self.opts.l0_slowdown_trigger {
                drop(inner);
                let started = Instant::now();
                let span = self.obs.as_deref().map(|obs| {
                    let span = obs.span();
                    obs.emit(EventKind::StallBegin, span, 0, 0);
                    span
                });
                std::thread::sleep(SLOWDOWN_DELAY);
                let ns = started.elapsed().as_nanos() as u64;
                self.stats.record_stall(false, ns);
                if let (Some(obs), Some(span)) = (self.obs.as_deref(), span) {
                    obs.emit(EventKind::StallEnd, span, 0, ns);
                }
                slowed = true;
                continue;
            }
            if inner.mem.approximate_bytes() < self.opts.write_buffer_bytes {
                break Ok(());
            }
            // The buffer is full: rotating requires a queue slot and L0
            // headroom; otherwise the writer stops until maintenance
            // catches up.
            if l0 >= self.opts.l0_stop_trigger
                || inner.imms.len() >= self.opts.max_immutable_memtables.max(1)
            {
                drop(inner);
                if stop_started.is_none() {
                    stop_started = Some(Instant::now());
                    self.stats.stalled_now.fetch_add(1, Ordering::Relaxed);
                    stop_span = self.obs.as_deref().map(|obs| {
                        let span = obs.span();
                        obs.emit(EventKind::StallBegin, span, 1, 0);
                        span
                    });
                }
                self.signal.wait_past(epoch);
                continue;
            }
            break self.rotate_memtable(&mut inner);
        };
        if let Some(started) = stop_started {
            self.stats.stalled_now.fetch_sub(1, Ordering::Relaxed);
            let ns = started.elapsed().as_nanos() as u64;
            self.stats.record_stall(true, ns);
            if let (Some(obs), Some(span)) = (self.obs.as_deref(), stop_span) {
                obs.emit(EventKind::StallEnd, span, 1, ns);
            }
        }
        outcome
    }

    /// Swap in a fresh WAL, returning the retiring log's name (`None`
    /// when the WAL is off). The fresh log is **created before the old
    /// writer is released**: a failed create leaves the engine still
    /// logging to the old WAL, where take-then-create would leave
    /// `inner.wal = None` and silently un-log every later write — which
    /// under the cross-shard protocol would skip a prepare record while
    /// its marker still seals the batch, tearing it across a crash.
    fn rotate_wal(&self, inner: &mut Inner) -> Result<Option<String>> {
        if !self.opts.wal {
            return Ok(None);
        }
        let fresh = format!(
            "{:06}.wal",
            self.next_file_no.fetch_add(1, Ordering::Relaxed)
        );
        let w = WalWriter::create(self.storage.as_ref(), &fresh)?;
        // Until a manifest rewrite records the fresh log, a crash would
        // not replay it — hold back acknowledgements (see
        // `manifest_dirty`) in case the caller's own rewrite fails.
        self.manifest_dirty.store(true, Ordering::Release);
        Ok(inner.wal.replace(w).map(|old| old.name().to_string()))
    }

    /// Seal the active memtable onto the immutable queue — its handle
    /// moves, nothing is copied — and open a fresh WAL. The manifest is
    /// rewritten before returning so a crash finds every live log.
    fn rotate_memtable(&self, inner: &mut Inner) -> Result<()> {
        // Before the emptiness probe too: a claimed group may not have
        // inserted anything yet.
        self.quiesce(inner);
        if inner.mem.is_empty() {
            return Ok(());
        }
        let old_wal = self.rotate_wal(inner)?;
        self.install(inner, |tree| {
            let mem = std::mem::take(&mut tree.mem);
            let imm = ImmutableMemTable { mem, wal: old_wal };
            tree.imms.push_back(Arc::new(imm));
        });
        self.stats.record_rotation(inner.imms.len());
        if let Some(obs) = self.obs.as_deref() {
            obs.emit(EventKind::MemtableRotation, 0, inner.imms.len() as u64, 0);
        }
        self.write_manifest(inner)?;
        self.signal.bump();
        Ok(())
    }

    /// One unit of flush-worker work: claim the oldest immutable memtable,
    /// build its L0 table off-lock, install it and retire its WAL.
    /// Installation is strictly oldest-first (single claim at a time) —
    /// L0's newest-first read order depends on it.
    pub(crate) fn flush_step(&self, draining: bool) -> Step {
        if self.flush_paused.load(Ordering::Acquire) && !draining {
            return Step::Idle;
        }
        let imm = {
            let mut inner = self.inner.write();
            if inner.flush_active {
                return Step::Idle;
            }
            match inner.imms.front() {
                None => return Step::Idle,
                Some(front) => {
                    let imm = Arc::clone(front);
                    inner.flush_active = true;
                    imm
                }
            }
        };
        let started = Instant::now();
        self.stats.bg_active.fetch_add(1, Ordering::Relaxed);
        let entries = imm.mem.len() as u64;
        let flush_span = self.obs.as_deref().map(|obs| {
            let span = obs.span();
            obs.emit(EventKind::FlushBegin, span, entries, 0);
            span
        });
        let result = (|| -> Result<()> {
            let handle = self.flush_table(&imm.mem)?;
            let mut inner = self.inner.write();
            self.install(&mut inner, |tree| {
                tree.version = Arc::new(tree.version.with_l0_table(handle));
                tree.imms.pop_front();
            });
            self.write_manifest(&inner)?;
            drop(inner);
            // The manifest no longer names this log; retire it.
            if let Some(old) = &imm.wal {
                let _ = self.storage.remove(old);
            }
            self.stats.flushes.fetch_add(1, Ordering::Relaxed);
            Ok(())
        })();
        self.inner.write().flush_active = false;
        self.stats.bg_active.fetch_sub(1, Ordering::Relaxed);
        self.stats
            .bg_flush_ns
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        if let (Some(obs), Some(span)) = (self.obs.as_deref(), flush_span) {
            // Emitted on error too: an end with the elapsed time still
            // closes the span; the paired begin makes the outcome legible.
            obs.emit(
                EventKind::FlushEnd,
                span,
                entries,
                started.elapsed().as_nanos() as u64,
            );
        }
        match result {
            Ok(()) => {
                self.clear_bg_error();
                self.signal.bump();
                Step::Worked
            }
            Err(e) => {
                // No bump: nothing changed for waiters, and bumping here
                // would turn a persistent failure into a busy spin. The
                // worker retries on the next signal (or poll interval).
                self.record_bg_error(&e);
                Step::Idle
            }
        }
    }

    /// One unit of compaction-worker work: claim a due task whose inputs
    /// are free, merge off-lock, install the edit. Disjoint tasks run
    /// concurrently; the `busy` set keeps claims from overlapping.
    pub(crate) fn compact_step(&self, draining: bool) -> Step {
        if draining || self.compaction_paused.load(Ordering::Acquire) {
            return Step::Idle;
        }
        let task = {
            let mut inner = self.inner.write();
            let inner = &mut *inner;
            match pick_compaction_excluding(&inner.version, &self.opts, &inner.cursors, &inner.busy)
            {
                None => return Step::Idle,
                Some(task) => {
                    advance_cursor(&inner.version, &task, &mut inner.cursors);
                    for name in task.input_names() {
                        inner.busy.insert(name);
                    }
                    task
                }
            }
        };
        let started = Instant::now();
        self.stats.bg_active.fetch_add(1, Ordering::Relaxed);
        let removed = task.input_names();
        let result = (|| -> Result<()> {
            let run = run_compaction(&self.tables(), &task, &self.stats, self.obs.as_deref())?;
            self.retire_cached_tables(&task);
            let mut inner = self.inner.write();
            let version = self.compacted(&inner, &task, run.outputs)?;
            self.install(&mut inner, |tree| tree.version = version);
            self.write_manifest(&inner)?;
            drop(inner);
            for name in &removed {
                let _ = self.storage.remove(name);
            }
            Ok(())
        })();
        {
            let mut inner = self.inner.write();
            for name in &removed {
                inner.busy.remove(name);
            }
        }
        self.stats.bg_active.fetch_sub(1, Ordering::Relaxed);
        self.stats
            .bg_compact_ns
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        match result {
            Ok(()) => {
                self.clear_bg_error();
                self.signal.bump();
                Step::Worked
            }
            Err(e) => {
                // No bump (see flush_step): avoid busy-spinning on a
                // persistent failure.
                self.record_bg_error(&e);
                Step::Idle
            }
        }
    }

    fn record_bg_error(&self, e: &Error) {
        self.stats.bg_errors.fetch_add(1, Ordering::Relaxed);
        *self.last_bg_error.lock() = Some(e.to_string());
    }

    /// A worker step succeeded: any recorded error is no longer standing
    /// (the failed work was retried and made progress). `bg_errors` keeps
    /// the history. Cheap when no error was ever recorded.
    fn clear_bg_error(&self) {
        if self.stats.bg_errors.load(Ordering::Relaxed) > 0 {
            *self.last_bg_error.lock() = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::IndexGranularity;
    use learned_index::IndexKind;

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
    fn write_options_sync_and_disable_wal() {
        let db = small_db(IndexKind::Pgm);
        let before = db.stats().snapshot();
        let mut b1 = WriteBatch::new();
        b1.put(1, b"synced");
        db.write(b1, &WriteOptions::durable()).unwrap();
        let mut b2 = WriteBatch::new();
        b2.put(2, b"unlogged");
        db.write(b2, &WriteOptions::unlogged()).unwrap();
        let delta = db.stats().snapshot().since(&before);
        assert_eq!(delta.wal_appends, 1, "unlogged batch skips the WAL");
        assert_eq!(delta.wal_syncs, 1);
        assert_eq!(db.get(2).unwrap(), Some(b"unlogged".to_vec()));
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
