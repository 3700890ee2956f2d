//! Maintenance (ARCHITECTURE.md §3): sealing a full buffer onto the
//! immutable queue, the one procedure that empties the queue and restores
//! the tree's shape — `flush_one`, `compact_one` — and its two drivers: a
//! pool thread (`Maintenance::Background`) or the writer that sealed the
//! buffer (`Maintenance::Synchronous`). Also admission control, explicit
//! flushes, the wait/pause/resume hooks and close.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use super::{CommitCoordination, Db, DbCore, Inner};
use crate::compaction::{
    advance_cursor, pick_compaction_excluding, run_compaction, CompactionTask, KeyRetention,
    LevelWriter,
};
use crate::iter::Cursor;
use crate::memtable::{ImmutableMemTable, MemTable};
use crate::scheduler::Step;
use crate::version::{TableHandle, Version};
use crate::wal::WalWriter;
use crate::{Error, Result};
use lsm_obs::EventKind;

/// Per-write delay applied once L0 reaches the slowdown trigger (LevelDB
/// sleeps the same 1 ms).
const SLOWDOWN_DELAY: Duration = Duration::from_millis(1);

impl Db {
    // ------------------------------------------------- flush / maintenance

    /// Force a flush of the current memtable (no-op when empty): the
    /// buffer is rotated onto the immutable queue and the call returns once
    /// the queue has drained.
    pub fn flush(&self) -> Result<()> {
        Self::flush_all(self.core.coordination.as_deref(), || vec![self]).map(drop)
    }

    /// Flush a set of shards as one step: begin every shard's flush under
    /// the commit lock, finish outside it. `pick` names the shards (and
    /// reads whatever else the caller needs as of the rotation) with the
    /// lock held.
    ///
    /// Under the lock, because a flush racing a cross-shard commit could
    /// push a not-yet-sealed prepare fragment into an SSTable, which
    /// replays unconditionally — tearing the batch across a crash; and
    /// `enter` refuses while poisoned, because after a failed commit the
    /// memtables hold orphaned unsealed fragments that must never become
    /// durable. Only the (fast) rotate/flush half holds the lock; the
    /// drain wait runs outside it. A standalone `Db` has no lock to take.
    pub(crate) fn flush_all<D: std::ops::Deref<Target = Db>>(
        coordination: Option<&CommitCoordination>,
        pick: impl FnOnce() -> Vec<D>,
    ) -> Result<Vec<D>> {
        let shards = {
            let _commit = coordination.map(|c| c.enter()).transpose()?;
            let shards = pick();
            for db in &shards {
                db.begin_flush()?;
            }
            shards
        };
        for db in &shards {
            db.finish_flush()?;
        }
        Ok(shards)
    }

    /// First half of a flush: seal the active memtable onto the immutable
    /// queue (bypassing backpressure — an explicit flush is an order, not a
    /// write) and return without waiting. The sharding layer calls this
    /// under its commit lock — a rotation racing a cross-shard commit could
    /// seal an unsealed prepare fragment toward an SSTable, which replays
    /// unconditionally — and does the (possibly long) second half outside
    /// it.
    pub(crate) fn begin_flush(&self) -> Result<()> {
        {
            let mut inner = self.core.inner.write();
            if !inner.mem.is_empty() {
                self.core.rotate_memtable(&mut inner)?;
            }
        }
        self.core.signal.bump();
        Ok(())
    }

    /// Second half of a flush: the queue drains — the pool is waited for
    /// and its standing error surfaced, or, under synchronous maintenance,
    /// this thread does the work.
    pub(crate) fn finish_flush(&self) -> Result<()> {
        if self.core.opts.maintenance.is_background() {
            self.wait_flush_drain();
            return self.core.bg_error.to_result();
        }
        self.core.drain_inline()
    }

    /// Block until the immutable-memtable queue is empty and no flush is
    /// in flight (returns immediately when flushes are paused — paused
    /// work would never drain).
    fn wait_flush_drain(&self) {
        loop {
            let epoch = self.core.signal.epoch();
            if self.core.inner.read().flush_idle() {
                return;
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
                let flush_idle =
                    self.core.flush_paused.load(Ordering::Acquire) || inner.flush_idle();
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
        self.core.bg_error.get()
    }

    /// Drain background workers and close the database. Equivalent to
    /// dropping the handle, but surfaces any background error explicitly.
    pub fn close(mut self) -> Result<()> {
        self.shutdown_workers();
        self.core.bg_error.to_result()
    }

    fn shutdown_workers(&mut self) {
        if let Some(scheduler) = self.scheduler.take() {
            scheduler.shutdown(&self.core.signal, &self.core.shutdown);
        }
    }
}

impl Drop for Db {
    fn drop(&mut self) {
        self.shutdown_workers();
    }
}

impl DbCore {
    // ------------------------------------------------- sealing the buffer

    /// Admission control for one write (background mode): rotate a full
    /// memtable onto the immutable queue, delaying or blocking the writer
    /// per the LevelDB triggers first.
    pub(super) fn make_room(&self) -> Result<()> {
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

    /// Synchronous maintenance's trigger, run by a writer after its write
    /// is acknowledged: seal the buffer if it is full, then restore the
    /// tree's shape on this thread before returning. A queued buffer nobody
    /// is flushing — a failed flush left it — is retried here too; one that
    /// another writer is flushing is that writer's to finish.
    pub(super) fn maintain_inline(&self) -> Result<()> {
        {
            let mut inner = self.inner.write();
            if inner.mem.approximate_bytes() >= self.opts.write_buffer_bytes {
                self.rotate_memtable(&mut inner)?;
            } else if inner.imms.is_empty() || inner.flush_active {
                return Ok(());
            }
        }
        self.drain_inline()
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

    // ------------------------------------- the one maintenance procedure

    /// Flush the oldest queued buffer, if no one else is: build its L0
    /// table off-lock, install it, seal the manifest, and only then retire
    /// its WAL — until the seal, the sealed manifest on disk still names
    /// that log, and a crash must find it. One claim at a time, so tables
    /// reach L0 oldest-first; L0's newest-first read order depends on it.
    /// `Ok(false)`: nothing to claim.
    fn flush_one(&self) -> Result<bool> {
        let imm = {
            let mut inner = self.inner.write();
            if inner.flush_active {
                return Ok(false);
            }
            let Some(front) = inner.imms.front() else {
                return Ok(false);
            };
            let imm = Arc::clone(front);
            inner.flush_active = true;
            imm
        };
        self.stats.bg_active.fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
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
            if let Some(old) = &imm.wal {
                let _ = self.storage.remove(old);
            }
            self.stats.flushes.fetch_add(1, Ordering::Relaxed);
            Ok(())
        })();
        self.inner.write().flush_active = false;
        self.stats.bg_active.fetch_sub(1, Ordering::Relaxed);
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
        self.finished(result)
    }

    /// Write a quiesced buffer out as one L0 table: flush order is key asc,
    /// seq desc, so the newest version per user key survives; tombstones are
    /// kept since L0 is never the bottom. Keys and values are borrowed from
    /// the skiplist's nodes.
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

    /// Run one due compaction whose inputs are free: merge off-lock,
    /// install the edit, seal the manifest, and only then unlink the
    /// inputs — until the seal, the only sealed manifest on disk still
    /// names them, and unlinking first would leave a crash with a manifest
    /// pointing at nothing. Disjoint tasks run concurrently; the `busy` set
    /// keeps claims from overlapping. `Ok(false)`: nothing to claim.
    fn compact_one(&self) -> Result<bool> {
        let task = {
            let mut inner = self.inner.write();
            let inner = &mut *inner;
            let Some(task) =
                pick_compaction_excluding(&inner.version, &self.opts, &inner.cursors, &inner.busy)
            else {
                return Ok(false);
            };
            advance_cursor(&inner.version, &task, &mut inner.cursors);
            inner.busy.extend(task.input_names());
            task
        };
        self.stats.bg_active.fetch_add(1, Ordering::Relaxed);
        let removed = task.input_names();
        let result = (|| -> Result<()> {
            let run = run_compaction(&self.tables(), &task, &self.stats, self.obs.as_deref())?;
            let mut inner = self.inner.write();
            let version = self.compacted(&inner, &task, run.outputs)?;
            self.install(&mut inner, |tree| tree.version = version);
            self.write_manifest(&inner)?;
            drop(inner);
            // Open readers pinned by a live Snapshot's Version keep removed
            // tables readable until released.
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
        self.finished(result)
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

    /// The outcome of a claimed flush or compaction, its claim released:
    /// success changed the tree, so waiters are woken. A failure changed
    /// nothing for them, and bumping here would turn a pool worker's
    /// persistent failure into a busy spin — it retries on the next signal
    /// (or poll interval).
    fn finished(&self, result: Result<()>) -> Result<bool> {
        result.map(|()| {
            self.signal.bump();
            true
        })
    }

    // ----------------------------------------------------- its two drivers

    /// The writer as driver (`Maintenance::Synchronous`): flush and compact
    /// on this thread until the queue is empty and nothing it can claim is
    /// due, handing the first error to the caller. A front buffer another
    /// writer is flushing is waited for like any stall; that writer's bump
    /// ends the wait, whether it finished or failed.
    fn drain_inline(&self) -> Result<()> {
        loop {
            let epoch = self.signal.epoch();
            let worked = self
                .flush_one()
                .and_then(|flushed| Ok(flushed || self.compact_one()?));
            match worked {
                Ok(true) => {}
                Ok(false) if self.inner.read().flush_idle() => return Ok(()),
                Ok(false) => self.signal.wait_past(epoch),
                Err(e) => {
                    // No pool thread spins on this signal, and a writer
                    // waiting for the claim just released must try it.
                    self.signal.bump();
                    return Err(e);
                }
            }
        }
    }

    /// One unit of flush-worker work (shutdown overrides the pause, to
    /// drain the queue).
    pub(crate) fn flush_step(&self, draining: bool) -> Step {
        if self.flush_paused.load(Ordering::Acquire) && !draining {
            return Step::Idle;
        }
        self.worker_step(&self.stats.bg_flush_ns, || self.flush_one())
    }

    /// One unit of compaction-worker work (none once shutdown has begun).
    pub(crate) fn compact_step(&self, draining: bool) -> Step {
        if draining || self.compaction_paused.load(Ordering::Acquire) {
            return Step::Idle;
        }
        self.worker_step(&self.stats.bg_compact_ns, || self.compact_one())
    }

    /// A pool thread as driver (`Maintenance::Background`): one call of
    /// `body` with what only a worker needs around it — its busy clock, the
    /// standing error and the `Step` the pool loop reads.
    fn worker_step(&self, busy_ns: &AtomicU64, body: impl FnOnce() -> Result<bool>) -> Step {
        let started = Instant::now();
        let result = body();
        if !matches!(result, Ok(false)) {
            busy_ns.fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        match result {
            Ok(true) => {
                self.bg_error.clear(&self.stats);
                Step::Worked
            }
            Ok(false) => Step::Idle,
            Err(e) => {
                self.bg_error.record(&e, &self.stats);
                Step::Idle
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::{Maintenance, Options};
    use lsm_io::{FaultStorage, MemStorage};

    /// A full device under a background flush is an I/O error to whoever
    /// asks next — `flush`, then `close` — and stops being one once a retry
    /// succeeds.
    #[test]
    fn a_background_io_failure_keeps_its_variant() {
        let (storage, faults) = FaultStorage::wrap(Arc::new(MemStorage::new()));
        let mut opts = Options::small_for_tests();
        opts.maintenance = Maintenance::background();
        let db = Db::open(storage, opts).unwrap();
        db.pause_flushes();
        for k in 0..200u64 {
            db.put(k, b"queued").unwrap();
        }
        // Paused: the buffer is rotated and left queued, so the failure
        // below is met by the flush worker and by nobody's foreground call.
        db.flush().unwrap();
        assert!(db.immutable_memtables() > 0 && db.memtable_len() == 0);
        faults.fail_writes_after(0);
        db.resume_flushes();
        assert!(matches!(db.flush(), Err(Error::Io(_))));
        assert!(db
            .background_error()
            .is_some_and(|e| e.starts_with("io error")));

        faults.heal();
        let deadline = Instant::now() + Duration::from_secs(30);
        while db.background_error().is_some() {
            assert!(Instant::now() < deadline, "the healed flush never retried");
            std::thread::sleep(Duration::from_millis(1));
        }
        db.flush().unwrap();
        assert_eq!(db.get(7).unwrap(), Some(b"queued".to_vec()));

        db.pause_flushes();
        db.put(1_000, b"queued again").unwrap();
        db.flush().unwrap();
        faults.fail_writes_after(0);
        assert!(matches!(db.close(), Err(Error::Io(_))));
    }
}
