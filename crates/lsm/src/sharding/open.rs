//! Opening a sharded database: adopting the sealed topology, every shard
//! from its tables, one replay of the database's log before the fence
//! resumes, and the shared worker pool (ARCHITECTURE.md §4–5).

use std::sync::atomic::{AtomicBool, AtomicU64};
use std::sync::Arc;

use parking_lot::Mutex;

use super::{RoutingState, ShardRouter, ShardedCore, ShardedDb, Topology};
use crate::cache::BlockCache;
use crate::db::{CommitLock, Db, DbCore, Embedding, WriterQueue};
use crate::log::Log;
use crate::options::{Maintenance, ShardedOptions};
use crate::scheduler::{BgError, MaintSignal, Scheduler, Step};
use crate::stats::DbStats;
use crate::{Error, Result};
use lsm_io::{CostModel, MemStorage, PrefixedStorage, SimStorage, Storage};
use lsm_obs::{EngineObs, Observer, DEFAULT_EVENT_CAPACITY};

/// What [`ShardedDb::open`] found.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The topology epoch the database resumed at.
    pub topology_epoch: u64,
    /// Orphaned shard directories swept: what a split by an earlier build
    /// left — the children of one whose cutover never sealed, or the
    /// parent of one that did.
    pub orphan_shards_swept: u64,
}

impl ShardedDb {
    /// Open (or create) a sharded database on `storage`.
    ///
    /// A fresh directory trains the router from `opts.policy`, seals the
    /// epoch-1 topology and persists it; nothing changes it afterwards. An
    /// existing one adopts its **sealed topology** — `opts.shards` and
    /// `opts.policy` only shape a creation —, sweeps stale epochs and the
    /// shard directories it does not name (what a split by an earlier
    /// build left), opens every shard from the tables its `shard-<id>/`
    /// manifest names, and replays the database's one log into them. A store that keeps a log per shard
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
        // Sweep what an earlier build's splits left — stale epochs, the
        // children of a split whose cutover never sealed or the parent of
        // one that did — before any shard opens.
        let orphans = topo.sweep_stale(storage.as_ref())?;

        let background = opts.base.maintenance.is_background();
        let signal = Arc::new(MaintSignal::default());
        let shutdown = Arc::new(AtomicBool::new(false));
        let commit_lock = Arc::new(CommitLock::default());
        // One writer queue, whose ceiling every shard reads.
        let writers = Arc::new(WriterQueue::default());
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
                commit_lock: Some(Arc::clone(&commit_lock)),
                writers: Some(Arc::clone(&writers)),
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
        writers.raise(logged);
        let max_seq = writers.visible();

        let state = Arc::new(RoutingState {
            epoch: topo.epoch,
            ids: topo.ids,
            router,
            shards,
        });
        // The shard cores the shared worker pool steps over.
        let cores: Vec<Arc<DbCore>> = state.shards.iter().map(|d| Arc::clone(d.core())).collect();
        let core = Arc::new(ShardedCore {
            opts,
            state,
            writers,
            claimed: AtomicU64::new(max_seq),
            commit_lock,
            log: Mutex::new(log),
            recovery,
            signal: Arc::clone(&signal),
            shutdown: Arc::clone(&shutdown),
            own_stats: DbStats::new(),
            observer,
            cache: shared_cache,
            bg_error: BgError::default(),
        });

        let scheduler = match core.opts.base.maintenance {
            Maintenance::Synchronous => None,
            Maintenance::Background => {
                let flush_cores = cores.clone();
                let (mut flush_rr, mut compact_rr) = (0, 0);
                Some(Scheduler::start(
                    signal,
                    shutdown,
                    move |draining| {
                        round_robin(&flush_cores, &mut flush_rr, |c| c.flush_step(draining))
                    },
                    move |draining| {
                        round_robin(&cores, &mut compact_rr, |c| c.compact_step(draining))
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

/// One worker step over a fleet of shard cores: try each shard once,
/// starting at a rotating offset so no shard starves, and report
/// [`Step::Worked`] as soon as any shard makes progress. The pool goes
/// idle only when a full pass found nothing to do on any shard — which is
/// also the shutdown-drain exit condition.
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
