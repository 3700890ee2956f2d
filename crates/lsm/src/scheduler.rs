//! Background maintenance: one dedicated flush and one compaction worker.
//!
//! Under [`crate::options::Maintenance::Background`] the write path never
//! merges SSTables itself. A full memtable is rotated onto an immutable
//! queue and the write returns; the two workers spawned here restore the
//! tree invariant concurrently:
//!
//! * the **flush worker** drains the immutable-memtable queue into L0
//!   tables (strictly oldest-first — L0's newest-first read order depends
//!   on it);
//! * the **compaction worker** repeatedly claims the tree's one
//!   compaction, picks the due [`crate::compaction::CompactionTask`], runs
//!   the merge off-lock, and installs the edit.
//!
//! Both are the procedure a writer runs on its own thread under
//! [`crate::options::Maintenance::Synchronous`] (`flush_one` / `compact_one`
//! in `db/maintenance.rs`); the pool is one of its two drivers.
//!
//! Coordination uses one epoch-counter signal (`MaintSignal`): every
//! state change (rotation, flush install, compaction install, pause toggle,
//! shutdown) bumps the epoch and wakes everyone — workers waiting for work
//! and writers stalled on backpressure alike. Waiters re-check their
//! condition against the tree state after every bump, so there are no lost
//! wakeups and no condition-specific condvars to keep consistent.
//!
//! The pool is deliberately decoupled from any one tree: a step function is
//! just a closure returning a `Step`. A single `Db` passes its own
//! flush/compact steps; a [`crate::sharding::ShardedDb`] passes closures
//! that round-robin one step over *every* shard's core — re-reading the
//! core list each pass, so a live split's children join the rotation and a
//! retired parent leaves it without restarting the pool — and its
//! compaction closure doubles as the **split step**: when no merge is due
//! anywhere, it evaluates the rebalance trigger (live splitting is tree
//! maintenance like any other). Steps running on this pool must never
//! *block* on the sharding layer's commit lock (only try-lock): a worker
//! parked on it can deadlock against a writer that holds the lock while
//! stalled on backpressure this very pool is supposed to relieve. `N`
//! shards share the two workers and one wakeup channel instead of spawning
//! `N` pools (see `Embedding::pool` in [`crate::db`]).
//!
//! Beside the workers, one process-wide budget of *extra* threads is lent
//! out, one permit at a time, to the table writer's seal helpers, which
//! train a finished table's index beside the next table's merge. A writer
//! takes a permit when one is free and never waits for one.
//!
//! Shutdown (`Scheduler::shutdown`, invoked by `Db::close`/`Drop`) wakes
//! both workers and flips them into *drain* mode: the flush worker keeps
//! flushing until the immutable queue is empty (even when paused — on
//! shutdown an acknowledged write is better off in an SSTable than only in
//! its WAL), the compaction worker finishes its in-flight task and stops
//! claiming new ones, and both threads are joined before the database
//! counts as closed. Compaction *debt* may survive a shutdown; nothing is
//! lost — the next open simply resumes merging where the tree left off.
//!
//! With [`crate::Options::observability`] on, the step functions this
//! pool drives bracket their work in tracing spans — `flush_begin` /
//! `flush_end` and `compaction_begin` / `compaction_end` events with a
//! shared span id (see `lsm_obs::EventKind`) — so a drained timeline
//! shows exactly which worker activity overlapped which writer stall.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::stats::DbStats;
use crate::{clone_error, Error, Result};

/// The free permits of the process-wide pool of *extra* threads the table
/// writer's seal helpers ([`crate::compaction::LevelWriter`]) may borrow,
/// one per helper, for the duration of one table's training.
///
/// Every flush or compaction job already owns the thread it runs on (a pool
/// worker or the writer itself under synchronous maintenance); a helper is
/// one more. The budget is shared across every `Db` in the process, so the
/// helpers of every database open in it never outnumber the machine's
/// parallelism. Acquisition never blocks: a writer that finds no permit
/// seals the table inline (same bytes, just no overlap).
fn seal_budget() -> &'static AtomicUsize {
    static FREE: OnceLock<AtomicUsize> = OnceLock::new();
    FREE.get_or_init(|| {
        let cores = std::thread::available_parallelism().map_or(4, |n| n.get());
        AtomicUsize::new(cores)
    })
}

/// Take one seal-helper permit without blocking; `None` when every permit
/// is lent out — the caller then does the work on its own thread. The
/// permit returns to the budget on drop. A caller that holds every permit
/// keeps all seals inline.
pub fn seal_permit() -> Option<SealPermit> {
    let free = seal_budget();
    free.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
        .ok()
        .map(|_| SealPermit(()))
}

/// One permit held by a seal helper; returned to the budget on drop.
pub struct SealPermit(());

impl Drop for SealPermit {
    fn drop(&mut self) {
        seal_budget().fetch_add(1, Ordering::Relaxed);
    }
}

/// A shared epoch counter + condvar: the single wakeup channel for
/// background workers and stalled writers.
///
/// Usage pattern (the standard lost-wakeup-free recipe):
/// 1. read [`MaintSignal::epoch`];
/// 2. check the interesting condition under the tree lock;
/// 3. if unsatisfied, [`MaintSignal::wait_past`] the epoch from step 1.
///
/// Any state change that could satisfy a waiter must call
/// [`MaintSignal::bump`] *after* publishing the change.
#[derive(Debug, Default)]
pub(crate) struct MaintSignal {
    epoch: Mutex<u64>,
    cv: Condvar,
}

impl MaintSignal {
    /// Current epoch; pair with [`MaintSignal::wait_past`].
    pub fn epoch(&self) -> u64 {
        *self.epoch.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Publish a state change: advance the epoch and wake every waiter.
    pub fn bump(&self) {
        *self.epoch.lock().unwrap_or_else(|e| e.into_inner()) += 1;
        self.cv.notify_all();
    }

    /// Block until the epoch advances past `seen` (returns immediately if
    /// it already has). A coarse timeout turns any missed bump into a poll
    /// interval instead of a hang.
    pub fn wait_past(&self, seen: u64) {
        let mut epoch = self.epoch.lock().unwrap_or_else(|e| e.into_inner());
        while *epoch == seen {
            let (guard, timeout) = self
                .cv
                .wait_timeout(epoch, Duration::from_millis(50))
                .unwrap_or_else(|e| e.into_inner());
            epoch = guard;
            if timeout.timed_out() {
                break;
            }
        }
    }
}

/// Which background work an error belongs to: a success clears only the
/// standing error of its own kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Work {
    Flush,
    Compaction,
    /// The sharding layer's own split and marker-log checkpoint.
    Sharding,
}

/// The standing errors of an engine's background work: per kind of work,
/// the last failed step's, until a later step of the same kind succeeds —
/// a flush's success says nothing of a failing compaction. Held as an
/// [`Error`], not its text, so `flush` and `close` hand back the variant
/// the worker met — a full disk under a flush is an I/O error, not
/// corruption.
#[derive(Default)]
pub(crate) struct BgError(parking_lot::Mutex<Vec<(Work, Error)>>);

impl BgError {
    /// A step of `work` failed; `stats.bg_errors` keeps the history.
    pub fn record(&self, work: Work, e: &Error, stats: &DbStats) {
        stats.bg_errors.fetch_add(1, Ordering::Relaxed);
        let mut standing = self.0.lock();
        standing.retain(|(w, _)| *w != work);
        standing.push((work, clone_error(e)));
    }

    /// A step of `work` succeeded: its recorded error is no longer
    /// standing (the failed work was retried and made progress). Cheap
    /// when no error was ever recorded.
    pub fn clear(&self, work: Work, stats: &DbStats) {
        if stats.bg_errors.load(Ordering::Relaxed) > 0 {
            self.0.lock().retain(|(w, _)| *w != work);
        }
    }

    /// Whether an error of `work` stands.
    pub fn stands(&self, work: Work) -> bool {
        self.0.lock().iter().any(|(w, _)| *w == work)
    }

    /// The most recent standing error's text.
    pub fn get(&self) -> Option<String> {
        self.0.lock().last().map(|(_, e)| e.to_string())
    }

    /// `Err` with the most recent standing error's own variant, if there
    /// is one.
    pub fn to_result(&self) -> Result<()> {
        match self.0.lock().last() {
            None => Ok(()),
            Some((_, e)) => Err(clone_error(e)),
        }
    }

    /// `Err` with `work`'s standing error, if there is one: what a step of
    /// `work` the caller waited for reports, whatever other work fails.
    pub fn result_of(&self, work: Work) -> Result<()> {
        match self.0.lock().iter().find(|(w, _)| *w == work) {
            None => Ok(()),
            Some((_, e)) => Err(clone_error(e)),
        }
    }
}

/// What a worker found when it looked for work.
pub(crate) enum Step {
    /// Did one unit of work; look again immediately.
    Worked,
    /// Nothing eligible right now; sleep until the next signal (or, when
    /// draining, exit).
    Idle,
}

/// One worker thread: run `step` until shutdown finds it idle.
///
/// `step(draining)` performs at most one unit of work. During a drain
/// (`draining == true`) the first [`Step::Idle`] ends the thread: for a
/// flush worker that means the queue is empty (or its front claimed by
/// another thread that will finish it); for a compaction worker it means
/// "stop now".
fn worker_loop<S: FnMut(bool) -> Step>(signal: &MaintSignal, shutdown: &AtomicBool, mut step: S) {
    loop {
        let epoch = signal.epoch();
        let draining = shutdown.load(Ordering::Acquire);
        match step(draining) {
            Step::Worked => continue,
            Step::Idle if draining => return,
            Step::Idle => signal.wait_past(epoch),
        }
    }
}

/// Handle to the spawned maintenance threads. Owned by `Db`; must be
/// retired via [`Scheduler::shutdown`] (joins every thread).
pub(crate) struct Scheduler {
    handles: Vec<JoinHandle<()>>,
}

impl Scheduler {
    /// Spawn one `lsm-flush` and one `lsm-compact` worker. `flush_step` /
    /// `compact_step` are closures over the shared database core, each
    /// performing at most one flush / one compaction.
    pub fn start<FS, CS>(
        signal: Arc<MaintSignal>,
        shutdown: Arc<AtomicBool>,
        flush_step: FS,
        compact_step: CS,
    ) -> Self
    where
        FS: FnMut(bool) -> Step + Send + 'static,
        CS: FnMut(bool) -> Step + Send + 'static,
    {
        let spawn = |name: &str, step: Box<dyn FnMut(bool) -> Step + Send>| {
            let (signal, shutdown) = (Arc::clone(&signal), Arc::clone(&shutdown));
            std::thread::Builder::new()
                .name(name.into())
                .spawn(move || worker_loop(&signal, &shutdown, step))
                .expect("spawn maintenance worker")
        };
        Self {
            handles: vec![
                spawn("lsm-flush", Box::new(flush_step)),
                spawn("lsm-compact", Box::new(compact_step)),
            ],
        }
    }

    /// Signal shutdown and join every worker.
    pub fn shutdown(self, signal: &MaintSignal, shutdown: &AtomicBool) {
        shutdown.store(true, Ordering::Release);
        signal.bump();
        for h in self.handles {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn seal_permits_never_exceed_the_budget() {
        let cores = std::thread::available_parallelism().map_or(4, |n| n.get());
        let all: Vec<SealPermit> = std::iter::from_fn(seal_permit).collect();
        assert!(all.len() <= cores, "never over-grants");
        drop(all);
        let again: Vec<SealPermit> = std::iter::from_fn(seal_permit).collect();
        assert!(again.len() <= cores, "a dropped permit returns once");
    }

    #[test]
    fn signal_wakes_waiter_past_epoch() {
        let s = Arc::new(MaintSignal::default());
        let seen = s.epoch();
        let s2 = Arc::clone(&s);
        let t = std::thread::spawn(move || s2.wait_past(seen));
        s.bump();
        t.join().unwrap();
        assert!(s.epoch() > seen);
    }

    #[test]
    fn wait_past_returns_immediately_when_stale() {
        let s = MaintSignal::default();
        let seen = s.epoch();
        s.bump();
        s.wait_past(seen); // must not block
    }

    #[test]
    fn workers_drain_queued_work_before_exiting_on_shutdown() {
        let signal = Arc::new(MaintSignal::default());
        let shutdown = Arc::new(AtomicBool::new(false));
        let pending = Arc::new(AtomicU64::new(3));
        let worked = Arc::new(AtomicU64::new(0));
        let sched = {
            let (p, w) = (Arc::clone(&pending), Arc::clone(&worked));
            Scheduler::start(
                Arc::clone(&signal),
                Arc::clone(&shutdown),
                move |_| {
                    if p.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
                        .is_ok()
                    {
                        w.fetch_add(1, Ordering::SeqCst);
                        Step::Worked
                    } else {
                        Step::Idle
                    }
                },
                |_| Step::Idle,
            )
        };
        sched.shutdown(&signal, &shutdown);
        assert_eq!(pending.load(Ordering::SeqCst), 0, "queue drained");
        assert_eq!(worked.load(Ordering::SeqCst), 3);
    }
}
