//! Maintenance (ARCHITECTURE.md §3): sealing a full buffer onto the
//! immutable queue, the one procedure that empties the queue and restores
//! the tree's shape — `flush_one`, `compact_one` — and its two drivers: a
//! pool thread (`Maintenance::Background`) or the writer that sealed the
//! buffer (`Maintenance::Synchronous`). Also admission (`make_room`, the
//! writer's side of the one rule `WritePressure::of`), explicit flushes,
//! the wait/pause/resume hooks and close.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use super::{CommitLock, Db, DbCore, Inner, WritePressure};
use crate::compaction::{
    advance_cursor, discard, names, pick_compaction, run_compaction, CompactionTask, KeyRetention,
    LevelWriter,
};
use crate::iter::Cursor;
use crate::memtable::{ImmutableMemTable, MemTable};
use crate::options::Options;
use crate::scheduler::{Step, Work};
use crate::sstable::format::entry_width;
use crate::version::{TableHandle, Version};
use crate::{Error, Result};
use lsm_obs::EventKind;

/// Per-write delay applied once L0 reaches `L0_SLOWDOWN_TRIGGER` (LevelDB
/// sleeps the same 1 ms).
const SLOWDOWN_DELAY: Duration = Duration::from_millis(1);

impl Db {
    // ------------------------------------------------- flush / maintenance

    /// Force a flush of the current memtable (no-op when empty): the
    /// buffer is rotated onto the immutable queue and the call returns once
    /// the queue has drained.
    pub fn flush(&self) -> Result<()> {
        Self::flush_all(self.core.commit_lock.as_deref(), || vec![self]).map(drop)
    }

    /// Flush a set of shards as one step: begin every shard's flush under
    /// the commit lock, finish outside it. `pick` names the shards (and
    /// reads whatever else the caller needs as of the rotation) with the
    /// lock held.
    ///
    /// Under the lock, because a rotation racing a commit could seal a
    /// buffer that commit is still applying to, and flush a version the
    /// fence has not published. Only the (fast) rotate half holds the
    /// lock; the drain wait runs outside it. A standalone `Db` has no lock
    /// to take.
    pub(crate) fn flush_all<D: std::ops::Deref<Target = Db>>(
        commit_lock: Option<&CommitLock>,
        pick: impl FnOnce() -> Vec<D>,
    ) -> Result<Vec<D>> {
        let shards = {
            let _commit = commit_lock.map(|c| c.lock());
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
    /// under its commit lock and does the (possibly long) second half
    /// outside it.
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
    /// and its standing *flush* error surfaced (a failing compaction's is
    /// not the flush's), or, under synchronous maintenance, this thread
    /// does the work, compactions included.
    pub(crate) fn finish_flush(&self) -> Result<()> {
        if self.core.opts.maintenance.is_background() {
            self.wait_flush_drain();
            return self.core.bg_error.result_of(Work::Flush);
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
            let paused = self.core.flush_paused.load(Ordering::Acquire);
            if paused || self.core.bg_error.stands(Work::Flush) {
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
                let compact_idle = !inner.compacting
                    && (self.core.compaction_paused.load(Ordering::Acquire)
                        || pick_compaction(&inner.version, &self.core.opts, &inner.cursors)
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
        self.standing_error()
    }

    /// `Err` with the most recent standing background error, whatever
    /// work it belongs to.
    pub(crate) fn standing_error(&self) -> Result<()> {
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

    /// Admission for one write (background mode), by the one rule
    /// (`WritePressure::of`): wait out a `Stop`, brake once at `Slowdown` —
    /// a gentle brake that spreads the wait over many writes —, then rotate
    /// a full buffer onto the immutable queue.
    ///
    /// The first look is a `try_read`: when the tree lock is write-held (a
    /// leader mid-commit, maintenance installing a version), blocking would
    /// serialize admission behind the commit pipeline and keep this writer
    /// out of the very group whose flush could cover it. Skipping a
    /// contended look admits at most one extra group's worth of data; the
    /// next uncontended one sees the pressure.
    pub(crate) fn make_room(&self) -> Result<()> {
        let pressed = self.inner.try_read().is_some_and(|inner| {
            let (pressure, full) = inner.pressure(&self.opts);
            full || pressure > WritePressure::Clear
        });
        if !pressed {
            return Ok(());
        }
        let mut slowed = false;
        let mut stopped = None;
        let outcome = loop {
            let epoch = self.signal.epoch();
            let mut inner = self.inner.write();
            match inner.pressure(&self.opts) {
                (WritePressure::Stop, _) => {
                    drop(inner);
                    stopped = stopped.or_else(|| Some(self.stall_begin(true)));
                    self.signal.wait_past(epoch);
                }
                (WritePressure::Slowdown, _) if !slowed => {
                    drop(inner);
                    let stall = self.stall_begin(false);
                    std::thread::sleep(SLOWDOWN_DELAY);
                    self.stall_end(false, stall);
                    slowed = true;
                }
                (_, true) => break self.rotate_memtable(&mut inner),
                (_, false) => break Ok(()),
            }
        };
        if let Some(stall) = stopped {
            self.stall_end(true, stall);
        }
        outcome
    }

    /// A writer stall starts: its clock, and its span when observed. A
    /// stopped writer counts in the `stalled_writers` gauge until it ends.
    fn stall_begin(&self, stop: bool) -> (Instant, Option<u64>) {
        if stop {
            self.stats.stalled_now.fetch_add(1, Ordering::Relaxed);
        }
        let started = Instant::now();
        let span = self.obs.as_deref().map(|obs| {
            let span = obs.span();
            obs.emit(EventKind::StallBegin, span, stop as u64, 0);
            span
        });
        (started, span)
    }

    /// A writer stall ends: counted, timed and, when observed, closed.
    fn stall_end(&self, stop: bool, (started, span): (Instant, Option<u64>)) {
        if stop {
            self.stats.stalled_now.fetch_sub(1, Ordering::Relaxed);
        }
        let ns = started.elapsed().as_nanos() as u64;
        self.stats.record_stall(stop, ns);
        if let (Some(obs), Some(span)) = (self.obs.as_deref(), span) {
            obs.emit(EventKind::StallEnd, span, stop as u64, ns);
        }
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

    /// Seal the active memtable onto the immutable queue — its handle
    /// moves, nothing is copied — and rotate the log with it, so each
    /// buffer's records sit in their own file. No manifest is written: no
    /// manifest names a log, and a shard has none.
    fn rotate_memtable(&self, inner: &mut Inner) -> Result<()> {
        // Before the emptiness probe too: a claimed group may not have
        // inserted anything yet.
        self.quiesce(inner);
        if inner.mem.is_empty() {
            return Ok(());
        }
        if let Some(log) = inner.log.as_mut() {
            log.rotate(&self.stats)?;
        }
        self.install(inner, |tree| {
            let mem = std::mem::take(&mut tree.mem);
            let first = tree.mem_first.take().unwrap_or(tree.seq);
            tree.imms
                .push_back(Arc::new(ImmutableMemTable { mem, first }));
        });
        self.stats.record_rotation(inner.imms.len());
        if let Some(obs) = self.obs.as_deref() {
            obs.emit(EventKind::MemtableRotation, 0, inner.imms.len() as u64, 0);
        }
        self.signal.bump();
        Ok(())
    }

    // ------------------------------------- the one maintenance procedure

    /// Flush the oldest queued buffer, if no one else is: build its L0
    /// table off-lock, install it and seal the manifest, after which the
    /// log retires the buffer's file — until then the sealed manifest's
    /// `flushed` lies below its records, and a crash must replay them. One
    /// claim at a time, so
    /// tables reach L0 oldest-first; L0's newest-first read order depends
    /// on it. `Ok(false)`: nothing to claim.
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
            self.write_manifest(&mut inner)?;
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
        let handle = LevelWriter::write(&ctx, 0, |out| {
            let mut retention = KeyRetention::new(false);
            let mut cursor = mem.cursor();
            cursor.seek_to_first();
            while let Some(key) = cursor.key()? {
                if retention.keep(&key) {
                    out.add(&key, cursor.value())?;
                }
                cursor.advance();
            }
            Ok(())
        })?
        .pop();
        let handle = handle.ok_or_else(|| Error::Corruption("flush of an empty buffer".into()))?;
        self.stats
            .flush_bytes_written
            .fetch_add(handle.meta.file_bytes, Ordering::Relaxed);
        Ok(handle)
    }

    /// Run one due compaction, if no one else is: merge off-lock, install
    /// the edit and seal the manifest, whose seal unlinks the inputs —
    /// until then the only sealed manifest on disk still names them, and
    /// unlinking first would leave a crash with a manifest pointing at
    /// nothing. A task a rewrite would only copy ([`movable`]) is installed
    /// as a move instead: the same table joins the next level, with no
    /// merge, and nothing is unlinked, because the new manifest still names
    /// it. One claim at a time, like a flush's. `Ok(false)`: nothing to
    /// claim.
    fn compact_one(&self) -> Result<bool> {
        let task = {
            let mut inner = self.inner.write();
            let inner = &mut *inner;
            if inner.compacting {
                return Ok(false);
            }
            let Some(task) = pick_compaction(&inner.version, &self.opts, &inner.cursors) else {
                return Ok(false);
            };
            advance_cursor(&inner.version, &task, &mut inner.cursors);
            inner.compacting = true;
            task
        };
        self.stats.bg_active.fetch_add(1, Ordering::Relaxed);
        let result = (|| -> Result<()> {
            // What a failure removes: the files this job created, so none
            // for a move, whose one output is a live table.
            let (outputs, created) = match movable(&task, &self.opts) {
                Some(table) => (vec![self.move_table(&task, table)], Vec::new()),
                None => {
                    let run = run_compaction(&self.tables(), &task, self.obs.as_deref())?;
                    let created: Vec<String> = names(&run.outputs).collect();
                    (run.outputs, created)
                }
            };
            let mut inner = self.inner.write();
            let version = self
                .compacted(&inner, &task, outputs)
                .inspect_err(|_| discard(self.storage.as_ref(), created))?;
            self.install(&mut inner, |tree| tree.version = version);
            self.write_manifest(&mut inner)
        })();
        self.inner.write().compacting = false;
        self.stats.bg_active.fetch_sub(1, Ordering::Relaxed);
        self.finished(result)
    }

    /// Count and trace a move of `table`, `task`'s one input, as a
    /// compaction job that read and wrote nothing.
    fn move_table(&self, task: &CompactionTask, table: &Arc<TableHandle>) -> Arc<TableHandle> {
        self.stats.compactions.fetch_add(1, Ordering::Relaxed);
        self.stats.compaction_moves.fetch_add(1, Ordering::Relaxed);
        if let Some(obs) = self.obs.as_deref() {
            let span = obs.span();
            obs.emit(EventKind::CompactionBegin, span, task.level as u64, 0);
            obs.emit(EventKind::CompactionEnd, span, 0, 0);
        }
        Arc::clone(table)
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
    /// on this thread until the queue is empty and nothing is due, handing
    /// the first error to the caller. A front buffer another writer is
    /// flushing is waited for like any stall; that writer's bump ends the
    /// wait, whether it finished or failed. A compaction another writer
    /// holds is not waited for: that writer picks again after its install,
    /// so it sees what this one flushed.
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
        self.worker_step(Work::Flush, &self.stats.bg_flush_ns, || self.flush_one())
    }

    /// One unit of compaction-worker work (none once shutdown has begun).
    pub(crate) fn compact_step(&self, draining: bool) -> Step {
        if draining || self.compaction_paused.load(Ordering::Acquire) {
            return Step::Idle;
        }
        self.worker_step(Work::Compaction, &self.stats.bg_compact_ns, || {
            self.compact_one()
        })
    }

    /// A pool thread as driver (`Maintenance::Background`): one call of
    /// `body` with what only a worker needs around it — its busy clock, the
    /// standing error of its kind of `work` and the `Step` the pool loop
    /// reads.
    fn worker_step(
        &self,
        work: Work,
        busy_ns: &AtomicU64,
        body: impl FnOnce() -> Result<bool>,
    ) -> Step {
        let started = Instant::now();
        let result = body();
        if !matches!(result, Ok(false)) {
            busy_ns.fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        match result {
            Ok(true) => {
                self.bg_error.clear(work, &self.stats);
                Step::Worked
            }
            Ok(false) => Step::Idle,
            Err(e) => {
                self.bg_error.record(work, &e, &self.stats);
                Step::Idle
            }
        }
    }
}

/// `task`'s one input when rewriting it would write the same table again,
/// so it may move down as it is (LevelDB's trivial move): nothing at the
/// next level overlaps it; its entries have the width and its index the
/// choice the next level's tables get; it is small enough that the rewrite
/// would not cut it in two; and, when the next level is the bottom, where a
/// rewrite drops tombstones, it is known to hold none. A table named by a
/// manifest written before the count was recorded has an unknown count, so
/// it is rewritten there.
fn movable<'t>(task: &'t CompactionTask, opts: &Options) -> Option<&'t Arc<TableHandle>> {
    let [table] = task.inputs.as_slice() else {
        return None;
    };
    let width = entry_width(opts.value_width);
    let one_table = table.meta.n * (width as u64) < opts.sstable_target_bytes + width as u64;
    let same_index = opts.index_for_level(task.level) == opts.index_for_level(task.level + 1);
    let tombstones_kept = !task.is_bottom || table.meta.tombstones == Some(0);
    let movable = task.next_inputs.is_empty()
        && table.reader.entry_width() == width
        && one_table
        && same_index
        && tombstones_kept;
    movable.then_some(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::Maintenance;
    use crate::sstable::{TableBuilder, TableMeta, TableReader};
    use crate::types::Entry;
    use lsm_io::{FaultStorage, MemStorage, Storage};

    /// Each condition of a move, broken alone, makes the task a rewrite.
    /// At `small_for_tests` an entry is 68 B and a table 8 KiB, so a
    /// rewrite of 121 entries writes one table and of 122 writes two.
    #[test]
    fn a_task_moves_only_when_its_rewrite_would_copy_it() {
        let storage = MemStorage::new();
        let opts = Options::small_for_tests();
        let table = |name: &str, n: u64, tombstone: bool| -> Arc<TableHandle> {
            let file = storage.create(name).unwrap();
            let index = opts.index_for_level(2);
            let mut b = TableBuilder::new(file, name.into(), index, 32, 10);
            for k in 0..n {
                let e = match tombstone && k == 7 {
                    true => Entry::tombstone(k, 1),
                    false => Entry::put(k, 1, vec![1; 8]),
                };
                b.add(&e).unwrap();
            }
            let meta = b.finish().unwrap();
            let reader = Arc::new(TableReader::open(&storage, name).unwrap());
            Arc::new(TableHandle { meta, reader })
        };
        let task = |inputs: Vec<Arc<TableHandle>>, next_inputs, is_bottom| CompactionTask {
            level: 1,
            inputs,
            next_inputs,
            is_bottom,
        };
        let moves = |task: &CompactionTask, opts: &Options| movable(task, opts).is_some();
        let fits = table("fits", 121, false);
        assert!(moves(&task(vec![fits.clone()], vec![], true), &opts));
        assert!(!moves(
            &task(vec![table("big", 122, false)], vec![], true),
            &opts
        ));
        let under = vec![table("under", 10, false)];
        assert!(!moves(&task(vec![fits.clone()], under, true), &opts));
        let two = vec![fits.clone(), table("other", 10, false)];
        assert!(!moves(&task(two, vec![], true), &opts));

        let deleting = table("deleting", 121, true);
        assert!(!moves(&task(vec![deleting.clone()], vec![], true), &opts));
        assert!(moves(&task(vec![deleting], vec![], false), &opts));
        let recovered = Arc::new(TableHandle {
            meta: TableMeta {
                tombstones: None,
                ..fits.meta.clone()
            },
            reader: Arc::clone(&fits.reader),
        });
        assert!(!moves(&task(vec![recovered.clone()], vec![], true), &opts));
        assert!(moves(&task(vec![recovered], vec![], false), &opts));

        let small = vec![table("small", 10, false)];
        assert!(moves(&task(small.clone(), vec![], true), &opts));
        let wider = Options {
            value_width: 40,
            ..opts.clone()
        };
        assert!(!moves(&task(small, vec![], true), &wider));
        let tighter_below = Options {
            per_level_epsilon: Some(vec![8, 8, 4]),
            ..opts.clone()
        };
        assert!(!moves(&task(vec![fits], vec![], true), &tighter_below));
    }

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
