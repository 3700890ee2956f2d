//! The cross-shard commit path: one fence range and one log record per
//! batch, each shard's part applied at its sub-range, dual-write mirroring
//! during a split, and the log's rotation, retirement and bound
//! (ARCHITECTURE.md §5; the protocol is described in [`super`]'s docs).

use std::sync::atomic::Ordering;
use std::sync::Arc;

use super::{split_batch, split_by_cut, PendingSplit, RoutingState, ShardedCore, ShardedDb};
use crate::batch::WriteBatch;
use crate::log::Log;
use crate::options::WriteOptions;
use crate::scheduler::Work;
use crate::types::SeqNo;
use crate::wal;
use crate::Result;
use lsm_obs::{EventKind, GLOBAL_SHARD};

/// Write buffers' worth of live log past which the shard pinning the oldest
/// file is flushed. Shards that flush as they fill keep the live log near
/// one buffer per shard, each buffer's log bytes below its buffer bytes.
pub const LOG_BOUND_BUFFERS: u64 = 8;

impl ShardedDb {
    // ------------------------------------------------------------- writes

    /// Apply `batch` atomically across every shard it touches.
    ///
    /// The batch is split per shard ([`split_batch`]) and committed under
    /// the shared fence: one contiguous global sequence range and **one**
    /// record in the database's log, holding every shard's part in routing
    /// order — synced when `wopts.sync` asks. That record is the batch's
    /// commit point: a reopen replays all of it or none of it. Each touched
    /// shard then applies its part at its sub-range, logging nothing, and
    /// the published ceiling advances only after the last shard applied —
    /// readers never observe a partially applied batch. During a split's
    /// dual-write window, the part aimed at the splitting shard is mirrored
    /// into the children's memtables at the same sub-range. Returns the
    /// last sequence number of the batch.
    ///
    /// A failed append or sync poisons the write path (the allocated
    /// sequence range must never be reissued in this process; a reopen
    /// replays the record whole if it landed). An error *after* the shards
    /// applied — a deferred flush failing — leaves the batch committed and
    /// published; it is an ordinary retryable maintenance error, fixed by
    /// calling [`ShardedDb::flush`] once the storage heals.
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
}

impl ShardedCore {
    // ------------------------------------------------------------- commit

    fn commit(&self, batch: WriteBatch, wopts: &WriteOptions) -> Result<SeqNo> {
        if batch.is_empty() {
            return Ok(self.fence.visible.load(Ordering::Acquire));
        }
        let len = batch.len();
        // Poison is checked under the lock: a writer that was blocked
        // here while another commit failed must not proceed — it would
        // re-allocate the failed batch's sequence range.
        let _commit = self.coordination.enter()?;
        let state = self.current_state();
        let pending = self
            .pending
            .lock()
            .clone()
            .filter(|p| !p.cancelled.load(Ordering::Acquire));
        let parts = split_batch(batch, &state.router);
        let first = self.fence.next.load(Ordering::Relaxed) + 1;
        let last = first + len as SeqNo - 1;
        // The commit point: one record, the shards' parts in routing order,
        // so op `i` of it is at `first + i` and each part at its sub-range.
        let encoded: Vec<Vec<u8>> = (parts.iter().filter(|p| !p.is_empty()))
            .map(|p| wal::encode_ops(p.ops()))
            .collect();
        let regions: Vec<&[u8]> = encoded.iter().map(Vec::as_slice).collect();
        let (synced, log_due) = match self.append(first, len, &regions, wopts.sync) {
            Ok(appended) => appended,
            Err(e) => {
                // Even a failed append may have left a frame behind, and a
                // failed sync certainly did: the range is never reissued.
                self.coordination.poisoned.store(true, Ordering::Release);
                return Err(e);
            }
        };
        if let (Some(o), Some(ns)) = (self.observer.as_deref(), synced) {
            o.emit(EventKind::WalSync, GLOBAL_SHARD, 0, ns, 0);
            // The histogram is per shard: the sync is the first part's.
            let first_part = parts.iter().position(|p| !p.is_empty());
            if let Some(obs) = first_part.and_then(|pos| state.shard(pos).observability()) {
                obs.ops.sync_wait.record(ns);
            }
        }
        let mut touched = Vec::new();
        let mut next = first;
        for (pos, part) in parts.into_iter().enumerate() {
            if part.is_empty() {
                continue;
            }
            let part_len = part.len() as SeqNo;
            // Dual-write window: the part aimed at the splitting shard is
            // mirrored into the children at the same sequence sub-range.
            let mirror = pending
                .as_ref()
                .filter(|p| p.parent_pos == pos)
                .map(|p| (Arc::clone(p), split_by_cut(&part, p.cut)));
            if let Err(e) = state.shard(pos).write_assigned(part, wopts, next) {
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
                    // routed truth, applied the part.
                    self.cleanup_cancelled(&p);
                }
            }
            touched.push(pos);
            next += part_len;
        }
        self.fence.next.store(last, Ordering::Relaxed);
        self.fence.visible.store(last, Ordering::Release);
        // Deferred maintenance: no version may be flushed before the fence
        // publishes it — a flush keeps only a key's newest version, so a
        // reader pinned without the commit lock at the old fence would find
        // the version it is entitled to gone (the module docs'
        // *Visibility*). We are past the commit point: a flush error here
        // leaves the batch committed, durable and published, so it surfaces
        // as a *retryable* maintenance error ([`ShardedDb::flush`] again
        // once the storage heals) — never as commit poison, exactly like
        // the single-`Db` inline-flush error path.
        for &pos in &touched {
            state.shard(pos).flush_deferred()?;
        }
        // The log's own housekeeping, due only when it rotated or passed
        // its bound. It is no part of this batch, which is committed: a
        // failure here is a background error, so a client never sees `Err`
        // for a batch that landed (and retries it twice).
        if log_due {
            if let Err(e) = self.maintain_log(&state) {
                self.bg_error.record(Work::Sharding, &e, &self.own_stats);
            }
        }
        Ok(last)
    }

    /// Append one batch's record, its regions one per touched shard in
    /// routing order, rotating the active file first once it holds a write
    /// buffer's bytes. Returns the sync's wall time in ns, and whether the
    /// log is due its upkeep: it rotated (a sealed file may be retirable
    /// now) or passed the bound. The caller poisons on any error — a failed
    /// rotation's too, though it appended nothing: one rule for every
    /// failure at the commit point.
    fn append(
        &self,
        first: SeqNo,
        count: usize,
        regions: &[&[u8]],
        sync: bool,
    ) -> Result<(Option<u64>, bool)> {
        let mut log = self.log.lock();
        let rotated = log.written() >= self.opts.base.write_buffer_bytes as u64;
        if rotated {
            log.rotate(&self.own_stats)?;
        }
        let (_, synced) = log.append(first, count, regions, sync, &self.own_stats)?;
        Ok((synced, rotated || self.over_bound(&log)))
    }

    /// Whether the live log files pass the bound.
    fn over_bound(&self, log: &Log) -> bool {
        log.live_bytes() > LOG_BOUND_BUFFERS * self.opts.base.write_buffer_bytes as u64
    }

    /// Under the commit lock, after a commit that rotated the log or passed
    /// its bound, or after a flush: retire the log files no shard needs any
    /// more, and once the live files pass the bound, flush the shard
    /// holding the oldest unflushed op (unless its flush is already
    /// queued).
    pub(super) fn maintain_log(&self, state: &RoutingState) -> Result<()> {
        let oldest = || {
            let floors = state.shards.iter().enumerate();
            floors
                .filter_map(|(pos, d)| Some((d.unflushed_from()?, pos)))
                .min()
        };
        let held = oldest();
        let over = {
            let mut log = self.log.lock();
            log.retire(held.map(|(seq, _)| seq))?;
            self.over_bound(&log)
        };
        if let Some((_, pos)) = held.filter(|_| over) {
            let shard = state.shard(pos);
            if shard.immutable_memtables() == 0 {
                shard.begin_flush()?;
                shard.flush_deferred()?;
                self.log.lock().retire(oldest().map(|(seq, _)| seq))?;
            }
        }
        Ok(())
    }

    /// Mirror one dual-write part into the split children's memtables at
    /// the same sequence sub-range. Nothing is logged for them: the log
    /// holds the parent's part, the children are discarded unless the
    /// cutover seals, and the cutover flushes them first. A child flushes
    /// at once: no reader can pin it before the cutover, which publishes
    /// it under the commit lock at a fence past every mirrored batch.
    fn mirror_to_children(
        &self,
        p: &PendingSplit,
        left_part: WriteBatch,
        right_part: WriteBatch,
        first_seq: SeqNo,
    ) -> Result<()> {
        let child_opts = WriteOptions::default();
        for (child, part) in [(&p.left, left_part), (&p.right, right_part)] {
            if !part.is_empty() {
                child.write_assigned(part, &child_opts, first_seq)?;
                child.flush_deferred()?;
            }
        }
        Ok(())
    }

    /// Post-commit housekeeping outside the commit lock (synchronous mode
    /// only — background mode checks in the worker pool): the split
    /// trigger. Failures here never fail the already-committed write; they
    /// surface as background errors.
    fn after_commit(&self) {
        if self.auto_split_enabled() && !self.opts.base.maintenance.is_background() {
            // Amortize the trigger evaluation (it walks every shard's
            // resident bytes) over a stride of batches.
            let tick = self.write_ticks.fetch_add(1, Ordering::Relaxed);
            // (`u64::is_multiple_of` would read better, but it landed in
            // 1.87 and the workspace MSRV is 1.82.)
            #[allow(clippy::manual_is_multiple_of)]
            if tick % 16 == 0 {
                if let Err(e) = self.try_split() {
                    self.bg_error.record(Work::Sharding, &e, &self.own_stats);
                }
            }
        }
    }
}
