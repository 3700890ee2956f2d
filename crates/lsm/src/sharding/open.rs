//! Opening a sharded database: adopting the last sealed topology, every
//! shard from its tables, one replay of the database's log before the
//! fence resumes, the shared worker pool, and split children
//! (ARCHITECTURE.md §4–5).

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use super::{RoutingState, SeqFence, ShardRouter, ShardedCore, ShardedDb, Topology};
use crate::cache::BlockCache;
use crate::db::{CommitCoordination, Db, DbCore, Embedding};
use crate::log::Log;
use crate::options::{Maintenance, ShardedOptions};
use crate::scheduler::{BgError, MaintSignal, Scheduler, Step, Work};
use crate::stats::DbStats;
use crate::{Error, Result};
use lsm_io::{CostModel, MemStorage, PrefixedStorage, SimStorage, Storage};
use lsm_obs::{EngineObs, Observer, DEFAULT_EVENT_CAPACITY};

/// What [`ShardedDb::open`] found.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
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
    /// default — sweeps any orphaned split directories, opens every shard
    /// from the tables its `shard-<id>/` manifest names, and replays the
    /// database's one log into them. A store that keeps a log per shard
    /// (or a `COMMIT-<n>` marker log) is refused with `Corruption` naming
    /// the file.
    pub fn open(storage: Arc<dyn Storage>, opts: ShardedOptions) -> Result<ShardedDb> {
        refuse_per_shard_logs(storage.as_ref())?;
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
        // the same buffer, so the drained timeline interleaves shards in
        // true order and span ids are unique engine-wide.
        let observer = opts
            .base
            .observability
            .then(|| Arc::new(Observer::new(DEFAULT_EVENT_CAPACITY)));

        // One cache, one budget, every shard.
        let shared_cache = BlockCache::from_options(&opts.base);

        let mut shards = Vec::with_capacity(topo.shards());
        for &id in &topo.ids {
            let dir: Arc<dyn Storage> = Arc::new(PrefixedStorage::new(
                Arc::clone(&storage),
                Topology::shard_dir(id),
            ));
            let pool = background.then(|| (Arc::clone(&signal), Arc::clone(&shutdown)));
            let obs = observer
                .as_ref()
                .map(|o| Arc::new(EngineObs::new(Arc::clone(o), id)));
            let embedding = Embedding {
                pool,
                coordination: Some(Arc::clone(&coordination)),
                obs,
                cache: shared_cache.clone(),
            };
            let shard = Db::open_internal(dir, opts.base.clone(), embedding)?;
            shards.push(Arc::new(shard));
        }

        // Replay the log once, routing each op through the sealed topology
        // to the shard its tables do not hold it in yet; the files read stay
        // as the log's sealed files, and the fence resumes at the highest
        // sequence seen.
        let router = topo.router();
        // The log numbers its files itself: the root holds no tables.
        let file_no = Arc::new(AtomicU64::new(1));
        let (log, logged) = Log::recover(Arc::clone(&storage), file_no, |record| {
            let ops = (record.first_seq..).zip(&record.ops);
            // Every op is offered to its shard: none may be skipped.
            ops.fold(false, |applied, (seq, op)| {
                shards[router.shard_of(op.key)].core().replay(op, seq) | applied
            })
        })?;
        let recovery = RecoveryReport {
            topology_epoch: topo.epoch,
            orphan_shards_swept: orphans.len() as u64,
        };
        let shard_max = shards.iter().map(|d| d.latest_seq()).max().unwrap_or(0);
        let max_seq = shard_max.max(logged);
        let fence = SeqFence {
            next: AtomicU64::new(max_seq),
            visible: AtomicU64::new(max_seq),
        };

        let state = Arc::new(RoutingState {
            epoch: topo.epoch,
            ids: topo.ids.clone(),
            router,
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
            log: Mutex::new(log),
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
            Maintenance::Background => {
                let flush_core = Arc::clone(&core);
                let compact_core = Arc::clone(&core);
                let (mut flush_rr, mut compact_rr) = (0, 0);
                Some(Scheduler::start(
                    signal,
                    shutdown,
                    move |draining| {
                        let cores = flush_core.worker_cores();
                        round_robin(&cores, &mut flush_rr, |c| c.flush_step(draining))
                    },
                    move |draining| {
                        // The compaction worker doubles as the split step:
                        // when no merge is due anywhere, evaluate the
                        // rebalance trigger (live splitting is tree
                        // maintenance like any other).
                        let cores = compact_core.worker_cores();
                        if matches!(
                            round_robin(&cores, &mut compact_rr, |c| c.compact_step(draining)),
                            Step::Worked
                        ) {
                            return Step::Worked;
                        }
                        if !draining && compact_core.auto_split_enabled() {
                            match compact_core.split_step() {
                                Ok(true) => return Step::Worked,
                                Ok(false) => {}
                                Err(e) => {
                                    let stats = &compact_core.own_stats;
                                    compact_core.bg_error.record(Work::Sharding, &e, stats);
                                }
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
fn round_robin(cores: &[Arc<DbCore>], rr: &mut usize, step: impl Fn(&DbCore) -> Step) -> Step {
    let n = cores.len();
    if n == 0 {
        return Step::Idle;
    }
    let start = *rr % n;
    *rr = rr.wrapping_add(1);
    for i in 0..n {
        if matches!(step(&cores[(start + i) % n]), Step::Worked) {
            return Step::Worked;
        }
    }
    Step::Idle
}

/// Refuse a store laid out with a log per shard and a `COMMIT-<n>` marker
/// log: this build reads one log at the root, and opening the store would
/// lose what those logs hold.
fn refuse_per_shard_logs(storage: &dyn Storage) -> Result<()> {
    for name in storage.list()? {
        if name.starts_with("COMMIT") || (name.starts_with("shard-") && name.ends_with(".wal")) {
            return Err(Error::Corruption(format!(
                "{name} belongs to a log-per-shard layout, which this build \
                 does not read: it keeps one log per database"
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_shard_logs_and_commit_marker_files_are_refused() {
        for name in ["COMMIT", "COMMIT-000001", "shard-3/000002.wal"] {
            let storage = MemStorage::new();
            drop(storage.create("000004.wal").unwrap());
            drop(storage.create("shard-3/MANIFEST-000001").unwrap());
            assert!(refuse_per_shard_logs(&storage).is_ok());
            drop(storage.create(name).unwrap());
            let refused = refuse_per_shard_logs(&storage);
            assert!(
                matches!(&refused, Err(Error::Corruption(m)) if m.contains(name)),
                "{name}: {refused:?}"
            );
        }
    }
}
