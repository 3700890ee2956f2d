//! Opening a sharded database: adopting the last sealed topology, the
//! recovery coordinator that resolves cross-shard prepares before the
//! fence resumes, the shared worker pool, and split children
//! (ARCHITECTURE.md §4–5).

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use super::{commit, RoutingState, SeqFence, ShardRouter, ShardedCore, ShardedDb, Topology};
use crate::cache::BlockCache;
use crate::db::{CommitCoordination, Db, DbCore, Embedding};
use crate::options::{Maintenance, ShardedOptions};
use crate::scheduler::{BgError, MaintSignal, Scheduler, Step};
use crate::stats::DbStats;
use crate::wal::CrossBatchTag;
use crate::{Error, Result};
use lsm_io::{CostModel, MemStorage, PrefixedStorage, SimStorage, Storage};
use lsm_obs::{EngineObs, Observer, DEFAULT_RING_CAPACITY};

/// What the recovery coordinator resolved during [`ShardedDb::open`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Prepare fragments whose batch was sealed: replayed.
    pub committed_fragments: u64,
    /// Fragments of unsealed batches: suppressed everywhere.
    pub aborted_fragments: u64,
    /// The topology epoch the database resumed at.
    pub topology_epoch: u64,
    /// Orphaned shard directories swept: children of a split whose
    /// cutover never sealed, or the parent of one that did.
    pub orphan_shards_swept: u64,
}

impl ShardedDb {
    /// Open (or create) a sharded database on `storage`.
    ///
    /// A fresh directory trains the router from `opts.policy`, seals the
    /// epoch-1 topology and persists it. An existing one adopts the
    /// **last sealed topology** — whatever shard count and boundaries
    /// live splitting left behind; `opts.shards` is only the creation
    /// default — sweeps any orphaned split directories, and recovers
    /// every shard from its own `shard-<id>/` manifest + WALs through
    /// the cross-shard recovery coordinator.
    pub fn open(storage: Arc<dyn Storage>, opts: ShardedOptions) -> Result<ShardedDb> {
        let requested = opts.shards.max(1);
        let topo = match Topology::load(storage.as_ref())? {
            Some(topo) => topo,
            None => {
                let router = ShardRouter::train(requested, &opts.policy);
                let topo = Topology::fresh(router.boundaries().to_vec());
                topo.save(storage.as_ref())?;
                topo
            }
        };
        // Sweep the debris of crashed topology changes — stale epochs,
        // orphaned split children (cutover never sealed) or a retired
        // split parent (it did) — before any shard opens.
        let orphans = topo.sweep_stale(storage.as_ref())?;

        let background = opts.base.maintenance.is_background();
        let signal = Arc::new(MaintSignal::default());
        let shutdown = Arc::new(AtomicBool::new(false));
        let coordination = Arc::new(CommitCoordination::default());
        // One shared observer for the whole engine: every shard emits into
        // the same ring, so the drained timeline interleaves shards in
        // true order and span ids are unique engine-wide.
        let observer = opts
            .base
            .observability
            .then(|| Arc::new(Observer::new(DEFAULT_RING_CAPACITY)));

        // Recovery coordination: read the commit-marker log once (union
        // of all generations), then recover every shard with a resolver
        // that applies a replayed cross-shard prepare fragment only if
        // its batch was sealed. A crash anywhere before the seal aborts
        // the batch on every shard.
        let markers = commit::read_markers(storage.as_ref())?;
        if markers.max_epoch > topo.epoch {
            return Err(Error::Corruption(format!(
                "commit marker names topology epoch {} but the last sealed topology is epoch {}",
                markers.max_epoch, topo.epoch
            )));
        }
        let committed_fragments = AtomicU64::new(0);
        let aborted_fragments = AtomicU64::new(0);

        // One cache, one budget, every shard.
        let shared_cache = BlockCache::from_options(&opts.base);

        let mut shards = Vec::with_capacity(topo.shards());
        for &id in &topo.ids {
            let dir: Arc<dyn Storage> = Arc::new(PrefixedStorage::new(
                Arc::clone(&storage),
                Topology::shard_dir(id),
            ));
            let pool = background.then(|| (Arc::clone(&signal), Arc::clone(&shutdown)));
            let resolver = |tag: &CrossBatchTag| -> Result<bool> {
                // A prepare can only legitimately sit on a shard its
                // participant set names — anything else means a log file
                // landed in the wrong shard directory (or was tampered
                // with), and silently resolving it would apply sequence
                // numbers the fence never routed here. Participant sets
                // name stable ids, so this check survives any number of
                // topology epochs.
                if !tag.participants.contains(&id) {
                    return Err(Error::Corruption(format!(
                        "shard {id} replayed a prepare for batch \
                         {}..={} whose participant set {:?} excludes it",
                        tag.global_first, tag.global_last, tag.participants
                    )));
                }
                let sealed = markers
                    .ranges
                    .contains(&(tag.global_first, tag.global_last));
                let counter = if sealed {
                    &committed_fragments
                } else {
                    &aborted_fragments
                };
                counter.fetch_add(1, Ordering::Relaxed);
                Ok(sealed)
            };
            let obs = observer
                .as_ref()
                .map(|o| Arc::new(EngineObs::new(Arc::clone(o), id)));
            let embedding = Embedding {
                pool,
                resolver: Some(&resolver),
                coordination: Some(Arc::clone(&coordination)),
                obs,
                cache: shared_cache.clone(),
            };
            let shard = Db::open_internal(dir, opts.base.clone(), embedding)?;
            shards.push(Arc::new(shard));
        }

        // Every shard has re-opened: surviving fragments were re-logged as
        // plain (self-certifying) records, so no marker is load-bearing
        // any more. Start a fresh marker-log generation and retire the
        // old ones — this is also what keeps recovery idempotent if
        // *this* open crashes: until every shard above has reopened, the
        // markers stay on disk for the next attempt to resolve the
        // remaining prepares identically.
        let commit_log = if opts.base.wal {
            let log = commit::CommitLog::create(storage.as_ref(), markers.next_generation)?;
            for old in &markers.files {
                let _ = storage.remove(old);
            }
            Some(Mutex::new(log))
        } else {
            None
        };
        let recovery = RecoveryReport {
            committed_fragments: committed_fragments.load(Ordering::Relaxed),
            aborted_fragments: aborted_fragments.load(Ordering::Relaxed),
            topology_epoch: topo.epoch,
            orphan_shards_swept: orphans.len() as u64,
        };

        // The fence resumes from the highest sequence any shard recovered.
        let max_seq = shards.iter().map(|d| d.latest_seq()).max().unwrap_or(0);
        let fence = SeqFence {
            next: AtomicU64::new(max_seq),
            visible: AtomicU64::new(max_seq),
        };

        let state = Arc::new(RoutingState {
            epoch: topo.epoch,
            ids: topo.ids.clone(),
            router: topo.router(),
            shards,
        });
        let next_shard_id = AtomicU32::new(topo.next_id as u32);
        let core = Arc::new(ShardedCore {
            storage,
            opts,
            state: RwLock::new(state),
            topology: Mutex::new(topo),
            fence,
            coordination,
            commit_log,
            recovery,
            signal: Arc::clone(&signal),
            shutdown: Arc::clone(&shutdown),
            pending: Mutex::new(None),
            own_stats: DbStats::new(),
            observer,
            next_shard_id,
            cache: shared_cache,
            write_ticks: AtomicU64::new(0),
            bg_error: BgError::default(),
        });

        let scheduler = match core.opts.base.maintenance {
            Maintenance::Synchronous => None,
            Maintenance::Background {
                flush_threads,
                compaction_threads,
            } => {
                let flush_core = Arc::clone(&core);
                let compact_core = Arc::clone(&core);
                let flush_rr = AtomicUsize::new(0);
                let compact_rr = AtomicUsize::new(0);
                Some(Scheduler::start(
                    signal,
                    shutdown,
                    flush_threads,
                    compaction_threads,
                    move |draining| {
                        let cores = flush_core.worker_cores();
                        round_robin(&cores, &flush_rr, |c| c.flush_step(draining))
                    },
                    move |draining| {
                        // Compaction workers double as the split step:
                        // when no merge is due anywhere, evaluate the
                        // rebalance trigger (live splitting is tree
                        // maintenance like any other).
                        let cores = compact_core.worker_cores();
                        if matches!(
                            round_robin(&cores, &compact_rr, |c| c.compact_step(draining)),
                            Step::Worked
                        ) {
                            return Step::Worked;
                        }
                        if !draining && compact_core.auto_split_enabled() {
                            match compact_core.split_step() {
                                Ok(true) => return Step::Worked,
                                Ok(false) => {}
                                Err(e) => compact_core.bg_error.record(&e, &compact_core.own_stats),
                            }
                        }
                        Step::Idle
                    },
                ))
            }
        };

        Ok(ShardedDb { core, scheduler })
    }

    /// Open on a fresh in-memory storage (tests, examples).
    pub fn open_memory(opts: ShardedOptions) -> Result<ShardedDb> {
        Self::open(Arc::new(MemStorage::new()), opts)
    }

    /// Open on a fresh simulated-NVMe storage (benchmarks).
    pub fn open_sim(opts: ShardedOptions, model: CostModel) -> Result<ShardedDb> {
        Self::open(Arc::new(SimStorage::new(model)), opts)
    }
}

impl ShardedCore {
    /// Shard cores the shared worker pool steps over, derived every pass:
    /// the current topology's shards plus a pending split's children. So
    /// children join the rotation when the dual-write window opens and
    /// leave it only when `pending` is cleared — at cutover (the topology
    /// lists them now, and no longer the parent) or when a cancelled split
    /// is swept, not when it is cancelled: a committer may still be stalled
    /// on a child's backpressure. `pending` is read before the state, so a
    /// cutover racing the pass lists the children twice, never not at all.
    fn worker_cores(&self) -> Vec<Arc<DbCore>> {
        let pending = self.pending.lock().clone();
        let state = self.current_state();
        let children = pending.iter().flat_map(|p| [&p.left, &p.right]);
        (state.shards.iter().chain(children))
            .map(|d| Arc::clone(d.core()))
            .collect()
    }

    pub(super) fn open_child(&self, id: u16) -> Result<Arc<Db>> {
        // A crashed-then-reopened process may have swept this directory
        // already; an *aborted* split in this process cannot have (ids
        // are never reused in-process) — but wipe defensively so a child
        // always starts from genuinely empty state.
        self.remove_shard_dir(id);
        let dir: Arc<dyn Storage> = Arc::new(PrefixedStorage::new(
            Arc::clone(&self.storage),
            Topology::shard_dir(id),
        ));
        let background = self.opts.base.maintenance.is_background();
        let pool = background.then(|| (Arc::clone(&self.signal), Arc::clone(&self.shutdown)));
        let obs = self
            .observer
            .as_ref()
            .map(|o| Arc::new(EngineObs::new(Arc::clone(o), id)));
        let embedding = Embedding {
            pool,
            resolver: None,
            coordination: Some(Arc::clone(&self.coordination)),
            obs,
            // Children join the shared budget.
            cache: self.cache.clone(),
        };
        let base = self.opts.base.clone();
        Db::open_internal(dir, base, embedding).map(Arc::new)
    }
}

/// One worker step over a fleet of shard cores: try each shard once,
/// starting at a rotating offset so no shard starves, and report
/// [`Step::Worked`] as soon as any shard makes progress. The pool goes
/// idle only when a full pass found nothing to do on any shard — which is
/// also the shutdown-drain exit condition. The core list is derived every
/// pass (see [`ShardedCore::worker_cores`]), so a live split's children
/// join the rotation the moment the dual-write window opens and a retired
/// parent leaves it at cutover.
fn round_robin(cores: &[Arc<DbCore>], rr: &AtomicUsize, step: impl Fn(&DbCore) -> Step) -> Step {
    let n = cores.len();
    if n == 0 {
        return Step::Idle;
    }
    let start = rr.fetch_add(1, Ordering::Relaxed) % n;
    for i in 0..n {
        if matches!(step(&cores[(start + i) % n]), Step::Worked) {
            return Step::Worked;
        }
    }
    Step::Idle
}
