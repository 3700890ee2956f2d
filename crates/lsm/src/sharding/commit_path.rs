//! The cross-shard commit path: one fence range per batch, a prepare
//! record per touched shard, the marker seal, dual-write mirroring during
//! a split, and runtime checkpointing of the marker log
//! (ARCHITECTURE.md §5; the protocol is described in [`super`]'s docs).

use std::sync::atomic::Ordering;
use std::sync::Arc;

use super::{split_batch, split_by_cut, PendingSplit, ShardedCore, ShardedDb};
use crate::batch::WriteBatch;
use crate::db::Db;
use crate::options::WriteOptions;
use crate::types::SeqNo;
use crate::wal::CrossBatchTag;
use crate::Result;
use lsm_obs::{EventKind, GLOBAL_SHARD};

impl ShardedDb {
    // ------------------------------------------------------------- writes

    /// Apply `batch` atomically across every shard it touches.
    ///
    /// The batch is split per shard ([`split_batch`]) and committed under
    /// the shared fence: one contiguous global sequence range, one
    /// group-commit WAL record per touched shard, and the published
    /// ceiling advances only after the last shard applied — readers never
    /// observe a partially applied cross-shard batch. A batch touching
    /// two or more shards additionally runs the prepare/commit protocol
    /// (see the [module docs](super)): each shard's record is a tagged
    /// prepare, and one marker append to the [`commit`] log seals the
    /// batch before the fence publishes it, making the batch
    /// all-or-nothing across crashes too. During a split's dual-write
    /// window, the fragment aimed at the splitting shard is mirrored into
    /// the children at the same sequence sub-range. Returns the last
    /// sequence number of the batch.
    ///
    /// An error *before* the seal aborts the batch and poisons the write
    /// path (the allocated sequence range must never be reissued in this
    /// process; a reopen rolls the fragments back). An error *after* the
    /// seal — a deferred flush failing — leaves the batch committed and
    /// published; it is an ordinary retryable maintenance error, fixed by
    /// calling [`ShardedDb::flush`] once the storage heals.
    ///
    /// [`commit`]: super::commit
    pub fn write(&self, batch: WriteBatch, wopts: &WriteOptions) -> Result<SeqNo> {
        let last = self.core.commit(batch, wopts)?;
        self.core.after_commit();
        Ok(last)
    }

    /// Insert or overwrite `key` (thin wrapper over [`ShardedDb::write`]).
    pub fn put(&self, key: u64, value: &[u8]) -> Result<()> {
        let mut batch = WriteBatch::with_capacity(1);
        batch.put(key, value);
        self.write(batch, &WriteOptions::default())?;
        Ok(())
    }

    /// Delete `key` (thin wrapper over [`ShardedDb::write`]).
    pub fn delete(&self, key: u64) -> Result<()> {
        let mut batch = WriteBatch::with_capacity(1);
        batch.delete(key);
        self.write(batch, &WriteOptions::default())?;
        Ok(())
    }

    /// Write `pairs` as one atomic (possibly cross-shard) batch.
    pub fn put_batch(&self, pairs: &[(u64, Vec<u8>)]) -> Result<()> {
        let mut batch = WriteBatch::with_capacity(pairs.len());
        for (k, v) in pairs {
            batch.put(*k, v);
        }
        self.write(batch, &WriteOptions::default())?;
        Ok(())
    }

    /// Checkpoint the commit-marker log now: flush every shard, then drop
    /// markers below the flush watermark into a fresh log generation.
    /// Returns whether a checkpoint ran (it is skipped when flushes are
    /// paused — a queue that cannot drain keeps its markers load-bearing).
    pub fn checkpoint_commit_markers(&self) -> Result<bool> {
        self.core.checkpoint_commit_log()
    }
}

impl ShardedCore {
    // ------------------------------------------------------------- commit

    fn commit(&self, batch: WriteBatch, wopts: &WriteOptions) -> Result<SeqNo> {
        if batch.is_empty() {
            return Ok(self.fence.visible.load(Ordering::Acquire));
        }
        let len = batch.len() as SeqNo;
        // Poison is checked under the lock: a writer that was blocked
        // here while another commit failed must not proceed — it would
        // re-allocate the failed batch's sequence range and could publish
        // a fence past the orphaned sub-batches.
        let _commit = self.coordination.enter()?;
        let state = self.current_state();
        let pending = self
            .pending
            .lock()
            .clone()
            .filter(|p| !p.cancelled.load(Ordering::Acquire));
        let mut parts = split_batch(batch, &state.router);
        let touched: Vec<usize> = parts
            .iter()
            .enumerate()
            .filter(|(_, p)| !p.is_empty())
            .map(|(pos, _)| pos)
            .collect();

        let first = self.fence.next.load(Ordering::Relaxed) + 1;
        let last = first + len - 1;
        // Single-shard batches are already crash-atomic through their one
        // WAL record. Participant sets carry stable shard ids, which
        // survive topology changes.
        let tag = (touched.len() > 1 && self.commit_log.is_some()).then(|| CrossBatchTag {
            global_first: first,
            global_last: last,
            participants: touched.iter().map(|&pos| state.ids[pos]).collect(),
        });
        let mut next = first;
        for &pos in &touched {
            let part = std::mem::take(&mut parts[pos]);
            let part_len = part.len() as SeqNo;
            // Dual-write window: the fragment aimed at the splitting
            // shard is mirrored into the children at the same sequence
            // sub-range (plain records — pre-cutover children are
            // discarded wholesale on crash, so they need no protocol).
            let mirror = pending
                .as_ref()
                .filter(|p| p.parent_pos == pos)
                .map(|p| (Arc::clone(p), split_by_cut(&part, p.cut)));
            if let Err(e) = state
                .shard(pos)
                .write_assigned(part, wopts, next, tag.as_ref())
            {
                // Poison unconditionally — even a first-shard failure can
                // leave state behind (e.g. the WAL frame was appended and
                // only the sync failed), so the allocated range must never
                // be handed out again in this process.
                self.coordination.poisoned.store(true, Ordering::Release);
                return Err(e);
            }
            if let Some((p, (left_part, right_part))) = mirror {
                if self
                    .mirror_to_children(&p, left_part, right_part, next)
                    .is_err()
                {
                    // The children are now incomplete: abandon the split.
                    // The commit itself goes on — the parent, still the
                    // routed truth, applied the fragment.
                    self.cleanup_cancelled(&p);
                }
            }
            next += part_len;
        }
        if let Some(tag) = &tag {
            // The commit point: sealing the marker is what makes the
            // prepared fragments replayable. Under `sync` the seal is
            // flushed too, so an acknowledged durable batch stays
            // committed through power loss.
            let sealed = {
                let mut log = self
                    .commit_log
                    .as_ref()
                    .expect("tag implies commit log")
                    .lock();
                log.seal(tag.global_first, tag.global_last, state.epoch)
                    .and_then(|()| if wopts.sync { log.sync() } else { Ok(()) })
            };
            if let Err(e) = sealed {
                self.coordination.poisoned.store(true, Ordering::Release);
                return Err(e);
            }
        }
        self.fence.next.store(last, Ordering::Relaxed);
        self.fence.visible.store(last, Ordering::Release);
        if tag.is_some() {
            // Deferred maintenance: inline flushes were withheld while the
            // fragments were unsealed prepares (an SSTable replays
            // unconditionally — flushing first would leak a torn batch
            // past a crash). Sealed now, the shards may flush. We are
            // past the commit point: a flush error here leaves the batch
            // committed, durable and published, so it surfaces as a
            // *retryable* maintenance error ([`ShardedDb::flush`] again
            // once the storage heals) — never as commit poison, exactly
            // like the single-`Db` inline-flush error path.
            for &pos in &touched {
                state.shard(pos).flush_deferred()?;
            }
        }
        Ok(last)
    }

    /// Mirror one dual-write fragment into the split children at the same
    /// sequence sub-range. Child records are plain (never prepares) and
    /// never synced — pre-cutover durability is the parent's job, and the
    /// cutover flushes the children before publishing them.
    fn mirror_to_children(
        &self,
        p: &PendingSplit,
        left_part: WriteBatch,
        right_part: WriteBatch,
        first_seq: SeqNo,
    ) -> Result<()> {
        let child_opts = WriteOptions::default();
        if !left_part.is_empty() {
            p.left
                .write_assigned(left_part, &child_opts, first_seq, None)?;
        }
        if !right_part.is_empty() {
            p.right
                .write_assigned(right_part, &child_opts, first_seq, None)?;
        }
        Ok(())
    }

    /// Post-commit housekeeping outside the commit lock: runtime
    /// marker-log checkpointing and (synchronous mode only — background
    /// mode checks in the worker pool) the split trigger. Failures here
    /// never fail the already-committed write; they surface as
    /// background errors.
    fn after_commit(&self) {
        if self.checkpoint_due() {
            if let Err(e) = self.checkpoint_commit_log() {
                self.bg_error.record(&e, &self.own_stats);
            }
        }
        if self.auto_split_enabled() && !self.opts.base.maintenance.is_background() {
            // Amortize the trigger evaluation (it walks every shard's
            // resident bytes) over a stride of batches.
            let tick = self.write_ticks.fetch_add(1, Ordering::Relaxed);
            // (`u64::is_multiple_of` would read better, but it landed in
            // 1.87 and the workspace MSRV is 1.82.)
            #[allow(clippy::manual_is_multiple_of)]
            if tick % 16 == 0 {
                if let Err(e) = self.try_split() {
                    self.bg_error.record(&e, &self.own_stats);
                }
            }
        }
    }

    // ------------------------------------------------------- checkpointing

    fn checkpoint_due(&self) -> bool {
        let threshold = self.opts.commit_log_checkpoint_bytes;
        threshold > 0
            && self
                .commit_log
                .as_ref()
                .is_some_and(|l| l.lock().bytes() > threshold)
    }

    /// Runtime marker-log checkpoint: flush every shard (so no prepare at
    /// or below the watermark still lives in a WAL), then rewrite the
    /// surviving markers into a fresh generation.
    fn checkpoint_commit_log(&self) -> Result<bool> {
        if self.commit_log.is_none() {
            return Ok(false);
        }
        // Phase 1 (commit lock): fix the watermark and rotate every
        // memtable — every prepare ≤ watermark is now bound for an
        // SSTable, after which its WAL (and so the prepare record) is
        // retired. Phase 2 (no lock): wait for background queues to drain.
        let mut watermark = 0;
        let shards = Db::flush_all(Some(&self.coordination), || {
            let state = self.current_state();
            watermark = self.fence.visible.load(Ordering::Acquire);
            state.shards.clone()
        })?;
        if shards.iter().any(|d| d.immutable_memtables() > 0) {
            // Paused flushes never drain — their queued prepares keep
            // their markers load-bearing, so the checkpoint must wait.
            return Ok(false);
        }
        // Phase 3 (commit lock): rewrite survivors. Markers sealed since
        // the watermark was read are above it (the fence only grows) and
        // are carried over.
        let _commit = self.coordination.enter()?;
        let log = self.commit_log.as_ref().expect("checked above");
        let mut log = log.lock();
        log.checkpoint(self.storage.as_ref(), watermark)?;
        self.own_stats
            .commit_checkpoints
            .fetch_add(1, Ordering::Relaxed);
        if let Some(o) = self.observer.as_deref() {
            o.emit(
                EventKind::CommitCheckpoint,
                GLOBAL_SHARD,
                0,
                log.live_markers() as u64,
                0,
            );
        }
        Ok(true)
    }
}
