//! Background maintenance: dedicated flush and compaction workers.
//!
//! Under [`crate::options::Maintenance::Background`] the write path never
//! merges SSTables itself. A full memtable is rotated onto an immutable
//! queue and the write returns; the workers spawned here restore the tree
//! invariant concurrently:
//!
//! * **flush workers** drain the immutable-memtable queue into L0 tables
//!   (strictly oldest-first — L0's newest-first read order depends on it);
//! * **compaction workers** repeatedly claim a due
//!   [`crate::compaction::CompactionTask`] whose inputs are not already
//!   being merged, run the merge off-lock, and install the edit.
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
//! shards share one global thread budget and one wakeup channel instead of
//! spawning `N` pools (see `Embedding::pool` in [`crate::db`]).
//!
//! Shutdown (`Scheduler::shutdown`, invoked by `Db::close`/`Drop`) wakes
//! all workers and flips them into *drain* mode: flush workers keep
//! flushing until the immutable queue is empty (even when paused — on
//! shutdown an acknowledged write is better off in an SSTable than only in
//! its WAL), compaction workers finish their in-flight task and stop
//! claiming new ones, and every thread is joined before the database
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

/// Process-wide pool of *extra* threads that range-partitioned compactions
/// ([`crate::compaction::run_compaction`] with
/// [`crate::Options::max_subcompactions`] > 1) may borrow.
///
/// Every compaction job already owns the thread it runs on (a pool worker
/// or the writer itself under synchronous maintenance); a partitioned job
/// borrows up to `ranges - 1` more for the duration of one merge. The
/// budget is shared across every `Db` in the process — under a sharded
/// database many compaction workers run at once, and without a common cap
/// the thread count would multiply (workers × subcompactions). Sized to
/// the machine's parallelism; acquisition is best-effort and never blocks:
/// a job that gets fewer permits than it wanted folds several sub-ranges
/// onto each thread it did get (same outputs, just less overlap).
#[derive(Debug)]
struct SubcompactionBudget {
    free: AtomicUsize,
}

static SUBCOMPACTION_BUDGET: OnceLock<SubcompactionBudget> = OnceLock::new();

fn subcompaction_budget() -> &'static SubcompactionBudget {
    SUBCOMPACTION_BUDGET.get_or_init(|| SubcompactionBudget {
        free: AtomicUsize::new(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
        ),
    })
}

/// Take up to `want` extra-thread permits without blocking; the lease
/// returns them on drop. `extra() == 0` means "run on the calling thread
/// alone" — always a valid outcome.
pub(crate) fn borrow_subcompaction_threads(want: usize) -> SubcompactionLease {
    let budget = subcompaction_budget();
    let mut cur = budget.free.load(Ordering::Relaxed);
    loop {
        let take = want.min(cur);
        if take == 0 {
            return SubcompactionLease { extra: 0 };
        }
        match budget.free.compare_exchange_weak(
            cur,
            cur - take,
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => return SubcompactionLease { extra: take },
            Err(seen) => cur = seen,
        }
    }
}

/// Permits held by one compaction job; returned to the budget on drop.
pub(crate) struct SubcompactionLease {
    extra: usize,
}

impl SubcompactionLease {
    /// How many extra threads this job may spawn (0 = caller's thread only).
    pub fn extra(&self) -> usize {
        self.extra
    }
}

impl Drop for SubcompactionLease {
    fn drop(&mut self) {
        if self.extra > 0 {
            subcompaction_budget()
                .free
                .fetch_add(self.extra, Ordering::Relaxed);
        }
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

/// The standing error of an engine's background work: the last failed
/// step's, until a later step succeeds. Held as an [`Error`], not its text,
/// so `flush` and `close` hand back the variant the worker met — a full
/// disk under a flush is an I/O error, not corruption.
#[derive(Default)]
pub(crate) struct BgError(parking_lot::Mutex<Option<Error>>);

impl BgError {
    /// A step failed; `stats.bg_errors` keeps the history.
    pub fn record(&self, e: &Error, stats: &DbStats) {
        stats.bg_errors.fetch_add(1, Ordering::Relaxed);
        *self.0.lock() = Some(clone_error(e));
    }

    /// A step succeeded: any recorded error is no longer standing (the
    /// failed work was retried and made progress). Cheap when no error was
    /// ever recorded.
    pub fn clear(&self, stats: &DbStats) {
        if stats.bg_errors.load(Ordering::Relaxed) > 0 {
            *self.0.lock() = None;
        }
    }

    /// The standing error's text.
    pub fn get(&self) -> Option<String> {
        self.0.lock().as_ref().map(Error::to_string)
    }

    /// `Err` with the standing error's own variant, if there is one.
    pub fn to_result(&self) -> Result<()> {
        match &*self.0.lock() {
            None => Ok(()),
            Some(e) => Err(clone_error(e)),
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
/// flush worker that means the queue is empty (or claimed by a sibling who
/// will finish it); for a compaction worker it means "stop now".
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
    /// Spawn `flush_threads` flush workers and `compaction_threads`
    /// compaction workers (each pool at least one thread). `flush_step` /
    /// `compact_step` are closures over the shared database core, each
    /// performing at most one flush / one compaction.
    pub fn start<FS, CS>(
        signal: Arc<MaintSignal>,
        shutdown: Arc<AtomicBool>,
        flush_threads: usize,
        compaction_threads: usize,
        flush_step: FS,
        compact_step: CS,
    ) -> Self
    where
        FS: Fn(bool) -> Step + Send + Sync + 'static,
        CS: Fn(bool) -> Step + Send + Sync + 'static,
    {
        let flush_step = Arc::new(flush_step);
        let compact_step = Arc::new(compact_step);
        let mut handles = Vec::with_capacity(flush_threads + compaction_threads);
        for i in 0..flush_threads.max(1) {
            let (signal, shutdown) = (Arc::clone(&signal), Arc::clone(&shutdown));
            let step = Arc::clone(&flush_step);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("lsm-flush-{i}"))
                    .spawn(move || worker_loop(&signal, &shutdown, |d| step(d)))
                    .expect("spawn flush worker"),
            );
        }
        for i in 0..compaction_threads.max(1) {
            let (signal, shutdown) = (Arc::clone(&signal), Arc::clone(&shutdown));
            let step = Arc::clone(&compact_step);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("lsm-compact-{i}"))
                    .spawn(move || worker_loop(&signal, &shutdown, |d| step(d)))
                    .expect("spawn compaction worker"),
            );
        }
        Self { handles }
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
    fn subcompaction_budget_lease_roundtrip() {
        let lease = borrow_subcompaction_threads(0);
        assert_eq!(lease.extra(), 0, "asking for nothing gets nothing");
        let lease = borrow_subcompaction_threads(2);
        assert!(lease.extra() <= 2, "never over-grants");
        drop(lease); // returning permits must not underflow
        let again = borrow_subcompaction_threads(1);
        assert!(again.extra() <= 1);
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
                1,
                1,
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
