//! Splitting: a cross-shard batch into per-shard sub-batches, and a hot
//! shard into two children (ARCHITECTURE.md §4; the split protocol is
//! described in [`super`]'s docs).
//!
//! A client-facing [`WriteBatch`] may touch any mix of shards. The splitter
//! routes every operation to its owning shard, preserving application
//! order *within* each shard — and because one key always routes to one
//! shard, per-shard order is all that LevelDB's "later op wins" semantics
//! needs. Ops never move between shards, so the concatenation of the
//! sub-batches is a permutation of the original that reorders only
//! independent keys.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::batch::WriteBatch;

use super::router::ShardRouter;
use super::{topology, PendingSplit, RoutingState, ShardedCore, ShardedDb, Topology};
use crate::db::Db;
use crate::options::ReadOptions;
use crate::snapshot::Snapshot;
use crate::types::SeqNo;
use crate::{Error, Result};
use lsm_obs::{EventKind, GLOBAL_SHARD};

/// Split `batch` into one sub-batch per shard (empty sub-batches for
/// shards the batch does not touch). Ops are moved, not cloned.
pub fn split_batch(batch: WriteBatch, router: &ShardRouter) -> Vec<WriteBatch> {
    let mut out: Vec<WriteBatch> = (0..router.shards()).map(|_| WriteBatch::new()).collect();
    for op in batch.into_ops() {
        out[router.shard_of(op.key)].extend(std::iter::once(op));
    }
    out
}

impl ShardedDb {
    // --------------------------------------------------------- rebalancing

    /// Evaluate the split trigger once and, if a shard qualifies, run one
    /// full live split (begin → drain → cutover). Returns whether a split
    /// was published. This is the ops hook behind both the synchronous
    /// write-path check and the background maintenance step; splitting
    /// requires [`crate::ShardedOptions::max_shards`] headroom.
    pub fn rebalance(&self) -> Result<bool> {
        self.core.try_split()
    }

    /// Staged ops/testing hook: open the dual-write window (create
    /// children, pin and drain the parent) **without** cutting over.
    /// Returns whether a split was begun. Writes, reads, snapshots and
    /// crashes between this and [`ShardedDb::complete_rebalance`]
    /// exercise the window deterministically.
    pub fn begin_rebalance(&self) -> Result<bool> {
        self.core.begin_split(true)
    }

    /// Staged ops/testing hook: publish the cutover of a split begun by
    /// [`ShardedDb::begin_rebalance`]. Returns whether a topology epoch
    /// was published.
    pub fn complete_rebalance(&self) -> Result<bool> {
        self.core.finish_split(true)
    }
}

impl ShardedCore {
    // ------------------------------------------------------------ splits

    /// The split target: the fair resident share at the topology ceiling
    /// (`total / max_shards`), floored by `min_split_bytes`. A shard
    /// qualifies for a split when it outgrows this target past
    /// `split_imbalance` — an *absolute* trigger, which is what makes the
    /// split process terminate: every split produces children at or
    /// below the target, so once every shard fits, nothing fires again
    /// (a relative max-vs-mean trigger never terminates under splitting,
    /// because each split lowers the mean it is compared against).
    fn split_target(&self, bytes: &[u64]) -> u64 {
        let total: u64 = bytes.iter().sum();
        // Aim at ~80% of the ceiling so the process terminates *before*
        // the cap: at the cap the trigger can no longer fire, so a
        // target of exactly `total/max_shards` would strand one
        // over-target shard with no headroom to cut it.
        let granularity = (self.opts.max_shards.max(2) as u64 * 4 / 5).max(1);
        (total / granularity).max(self.opts.min_split_bytes.max(1))
    }

    /// Evaluate the trigger: the hottest shard qualifies when its
    /// resident bytes outgrow the fair target share past the threshold
    /// and headroom exists. (The cut key itself is chosen later,
    /// off-lock, by [`ShardedCore::exact_cut`].)
    fn split_candidate(&self, state: &RoutingState) -> Option<usize> {
        if state.shards() >= self.opts.max_shards.max(1) {
            return None;
        }
        let bytes: Vec<u64> = state.shards.iter().map(|d| d.resident_bytes()).collect();
        let (pos, &hot) = bytes.iter().enumerate().max_by_key(|(_, b)| **b)?;
        let threshold =
            (self.split_target(&bytes) as f64 * (1.0 + self.opts.split_imbalance.max(0.0))) as u64;
        (hot > threshold).then_some(pos)
    }

    /// The exact cut key of the parent at a pinned snapshot: **peel or
    /// halve**. A parent far above the fair target share peels one
    /// target-sized child off its left edge (so repeated splits of a
    /// giant shard produce a run of fair-sized shards, not a cascade of
    /// halves); a parent below twice the target halves exactly. Two
    /// passes over the snapshot (count, then walk to the cut index) keep
    /// it O(1) memory; it runs **off** the commit lock, so writers never
    /// stall on it. Exactness matters: cut error compounds across
    /// generations of splits, so approximate (sampled) cuts never settle
    /// into balance.
    fn exact_cut(&self, parent: &Db, snap: &Snapshot, target_fraction: f64) -> Result<Option<u64>> {
        let mut it = parent.iter_with(&ReadOptions::at(snap))?;
        it.seek_to_first();
        let mut n = 0u64;
        while it.next()?.is_some() {
            n += 1;
        }
        if n < 2 {
            return Ok(None);
        }
        let q = target_fraction.clamp(0.1, 0.5);
        let cut_index = ((n as f64 * q) as u64).clamp(1, n - 1);
        let mut it = parent.iter_with(&ReadOptions::at(snap))?;
        it.seek_to_first();
        for _ in 0..cut_index {
            it.next()?;
        }
        Ok(it.next()?.map(|(k, _)| k))
    }

    /// Acquire the commit lock for a split phase. User threads block;
    /// background workers must not (`block = false`): a worker blocking
    /// here can deadlock against a writer that holds the commit lock
    /// while stalled on child backpressure only this worker pool can
    /// relieve. A contended non-blocking acquire just defers the phase
    /// to the next worker pass.
    fn lock_commit(&self, block: bool) -> Result<Option<parking_lot::MutexGuard<'_, ()>>> {
        if block {
            self.coordination.enter().map(Some)
        } else {
            self.coordination.try_enter()
        }
    }

    /// One full split: begin (dual-write window opens) → drain → cutover.
    /// Blocking — for user threads (the synchronous-mode write path and
    /// the explicit [`ShardedDb::rebalance`] hook).
    pub(super) fn try_split(&self) -> Result<bool> {
        if !self.begin_split(true)? {
            return Ok(false);
        }
        self.finish_split(true)
    }

    /// One worker-pool maintenance step: resume a pending split's cutover
    /// (or sweep a cancelled one), otherwise evaluate the trigger and run
    /// a fresh split. Never blocks on the commit lock.
    pub(super) fn split_step(&self) -> Result<bool> {
        let pending = self.pending.lock().clone();
        if let Some(p) = pending {
            if p.cancelled.load(Ordering::Acquire) {
                if let Some(_commit) = self.coordination.lock.try_lock() {
                    self.cleanup_cancelled(&p);
                }
                return Ok(false);
            }
            return self.finish_split(false);
        }
        if !self.begin_split(false)? {
            return Ok(false);
        }
        // The window is open and drained — try to cut over right away; a
        // contended lock defers the cutover to the next pass. Either way
        // the step made progress.
        self.finish_split(false)?;
        Ok(true)
    }

    /// Phase 1+2: pick the candidate and its exact cut, open the
    /// dual-write window, then (lock released — readers and writers
    /// proceed) copy the pinned parent image into the children.
    fn begin_split(&self, block: bool) -> Result<bool> {
        // Pass A (brief lock): pick the candidate and pin a scan image.
        let (pos, target_fraction, median_snap) = {
            let Some(_commit) = self.lock_commit(block)? else {
                return Ok(false);
            };
            if !self.no_pending_split_locked() {
                return Ok(false);
            }
            let state = self.current_state();
            let Some(pos) = self.split_candidate(&state) else {
                return Ok(false);
            };
            let bytes: Vec<u64> = state.shards.iter().map(|d| d.resident_bytes()).collect();
            let fraction = self.split_target(&bytes) as f64 / bytes[pos].max(1) as f64;
            let seq = self.writers.visible();
            let parent = state.shard(pos);
            (pos, fraction, parent.snapshot_at(seq, parent.view()))
        };
        // Pass B (no lock): the exact cut — peel a fair-share child or
        // halve, from the parent's pinned image. Writers landing
        // meanwhile are not mirrored (the window is not open yet); that
        // is fine, the drain snapshot below is pinned *after* the window
        // opens and covers them.
        let (state, p, snap, snap_seq) = {
            let parent = {
                let state = self.current_state();
                Arc::clone(state.shard(pos))
            };
            let cut = self.exact_cut(&parent, &median_snap, target_fraction)?;
            drop(median_snap);
            let Some(_commit) = self.lock_commit(block)? else {
                return Ok(false);
            };
            // Re-check under the re-acquired lock: another thread (a
            // worker and an explicit `rebalance`, say) may have begun its
            // own split while this one was measuring the cut off-lock —
            // proceeding would overwrite its pending window.
            if !self.no_pending_split_locked() {
                return Ok(false);
            }
            let state = self.current_state();
            // Re-validate the headroom and the cut under the lock too.
            if state.shards() >= self.opts.max_shards.max(1) {
                return Ok(false);
            }
            let (lo, hi) = state.router.shard_range(pos);
            let Some(cut) =
                cut.filter(|&m| m != 0 && lo.is_none_or(|l| m > l) && hi.is_none_or(|h| m < h))
            else {
                return Ok(false); // the shard's data cannot be halved
            };
            let left_id = self.alloc_shard_id()?;
            let right_id = self.alloc_shard_id()?;
            let left = self.open_child(left_id)?;
            let right = self.open_child(right_id)?;
            let span = self.observer.as_deref().map_or(0, |o| o.next_span());
            let p = Arc::new(PendingSplit {
                parent_pos: pos,
                parent_id: state.ids[pos],
                cut,
                left_id,
                right_id,
                left,
                right,
                drained: AtomicBool::new(false),
                cancelled: AtomicBool::new(false),
                span,
            });
            *self.pending.lock() = Some(Arc::clone(&p));
            if let Some(o) = self.observer.as_deref() {
                o.emit(
                    EventKind::SplitBegin,
                    GLOBAL_SHARD,
                    span,
                    p.parent_id as u64,
                    cut,
                );
            }
            // Pin the drain image at the ceiling, once every claimed group
            // has applied — everything at or below it comes from the drain,
            // everything above arrives through the dual-write window.
            let snap_seq = self.settled();
            let parent = state.shard(pos);
            let snap = parent.snapshot_at(snap_seq, parent.view());
            (state, p, snap, snap_seq)
        };
        match self.drain_parent(&state, &p, &snap, snap_seq) {
            Ok(()) => {
                // Only now may a cutover run: until this flag is set, a
                // concurrent `finish_split` (another worker resuming the
                // pending split) must refuse — publishing half-drained
                // children would lose every key not yet copied.
                p.drained.store(true, Ordering::Release);
                if let Some(o) = self.observer.as_deref() {
                    o.emit(
                        EventKind::SplitDualWrite,
                        GLOBAL_SHARD,
                        p.span,
                        p.parent_id as u64,
                        0,
                    );
                }
                Ok(true)
            }
            Err(e) => {
                self.abandon_split(&p);
                Err(e)
            }
        }
    }

    /// Under the commit lock: report whether no split is pending, sweeping
    /// a cancelled leftover on the way (a cancellation that could not take
    /// the lock defers its cleanup to the next split phase — this one).
    fn no_pending_split_locked(&self) -> bool {
        let pending = self.pending.lock().clone();
        match pending {
            None => true,
            Some(p) if p.cancelled.load(Ordering::Acquire) => {
                self.cleanup_cancelled(&p);
                true
            }
            Some(_) => false,
        }
    }

    /// Copy the pinned parent image into the children. Drained entries
    /// get sequence numbers `1..=n`; `n` can never exceed the pin fence
    /// (every resident entry consumed at least one sequence number), so
    /// every drained version sorts strictly below every dual-written one.
    fn drain_parent(
        &self,
        state: &RoutingState,
        p: &PendingSplit,
        snap: &Snapshot,
        snap_seq: SeqNo,
    ) -> Result<()> {
        const DRAIN_CHUNK: usize = 512;
        let parent = state.shard(p.parent_pos);
        let mut it = parent.iter_with(&ReadOptions::at(snap))?;
        it.seek_to_first();
        let mut drain_seq: SeqNo = 0;
        let mut left = WriteBatch::with_capacity(DRAIN_CHUNK);
        let mut right = WriteBatch::with_capacity(DRAIN_CHUNK);
        let mut flush_chunk = |child: &Arc<Db>, chunk: &mut WriteBatch| -> Result<()> {
            if chunk.is_empty() {
                return Ok(());
            }
            let first = drain_seq + 1;
            drain_seq += chunk.len() as SeqNo;
            debug_assert!(
                drain_seq <= snap_seq,
                "drain seqs must stay below the pin fence"
            );
            if child.options().maintenance.is_background() {
                child.core().make_room()?;
            }
            let mem = child.claim_at(first..drain_seq + 1, 1, chunk.len());
            mem.apply_batch(std::mem::take(chunk).ops(), first);
            mem.finish_applier();
            // No reader can pin a child before the cutover: it flushes at once.
            child.flush_deferred()
        };
        while let Some((k, v)) = it.next()? {
            if p.cancelled.load(Ordering::Acquire) {
                return Ok(()); // abandoned mid-drain; cutover will refuse
            }
            if self.shutdown.load(Ordering::Acquire) {
                // The pool is draining for close: the flush workers that
                // relieve the children's backpressure are exiting, so
                // writing on would wedge this thread (and the close that
                // joins it). Abandon the split — the sealed topology
                // still names the parent, nothing is lost.
                p.cancelled.store(true, Ordering::Release);
                return Ok(());
            }
            let (batch, child) = if k < p.cut {
                (&mut left, &p.left)
            } else {
                (&mut right, &p.right)
            };
            batch.put(k, &v);
            if batch.len() >= DRAIN_CHUNK {
                let child = Arc::clone(child);
                flush_chunk(&child, batch)?;
            }
        }
        flush_chunk(&Arc::clone(&p.left), &mut left)?;
        flush_chunk(&Arc::clone(&p.right), &mut right)?;
        Ok(())
    }

    /// Phase 3, the cutover: flush the children durable, seal the next
    /// topology epoch (the split's single commit point), swap the
    /// routing state, retire the parent.
    fn finish_split(&self, block: bool) -> Result<bool> {
        let Some(_commit) = self.lock_commit(block)? else {
            return Ok(false);
        };
        let Some(p) = self.pending.lock().clone() else {
            return Ok(false);
        };
        if p.cancelled.load(Ordering::Acquire) {
            self.cleanup_cancelled(&p);
            return Ok(false);
        }
        if !p.drained.load(Ordering::Acquire) {
            // The drain is still copying the parent's image (this call
            // raced it from another thread): cutting over now would
            // publish children missing everything not yet drained.
            return Ok(false);
        }
        // The groups claimed before the lock may still be applying, to the
        // parent and to the children.
        self.settled();
        // The children must be durable before any topology names them: a
        // crash right after the seal recovers *only* through them, and
        // nothing logs their drained entries — they must be in tables a
        // sealed manifest names. Paused flushes leave them buffering: the
        // cutover waits.
        let made_durable = (|| -> Result<()> {
            p.left.begin_flush()?;
            p.right.begin_flush()?;
            p.left.finish_flush()?;
            p.right.finish_flush()?;
            Ok(())
        })();
        if let Err(e) = made_durable {
            self.cleanup_cancelled(&p);
            return Err(e);
        }
        if p.left.unflushed_from().is_some() || p.right.unflushed_from().is_some() {
            return Ok(false);
        }
        let state = self.current_state();
        let mut topo_guard = self.topology.lock();
        let mut new_topo = topo_guard.with_split(p.parent_pos, p.cut, p.left_id, p.right_id);
        new_topo.next_id = self.allocated_ids_watermark(new_topo.next_id);
        if let Err(e) = new_topo.save(self.storage.as_ref()) {
            // The seal may or may not have reached the store. Both sides
            // hold every acknowledged write, but this process is about to
            // keep writing to the *parent* — a durable topology naming
            // soon-to-be-stale children would lose those writes across a
            // crash. Unseal it; if the store cannot even do that while
            // the file exists, poison the write path.
            let name = topology::topology_name(new_topo.epoch);
            if self.storage.remove(&name).is_err() && self.storage.exists(&name) {
                self.coordination.poisoned.store(true, Ordering::Release);
            }
            self.cleanup_cancelled(&p);
            return Err(e);
        }
        // Publish: children replace the parent at its routing position.
        let mut shards = state.shards.clone();
        shards.splice(
            p.parent_pos..=p.parent_pos,
            [Arc::clone(&p.left), Arc::clone(&p.right)],
        );
        let new_state = Arc::new(RoutingState {
            epoch: new_topo.epoch,
            ids: new_topo.ids.clone(),
            router: new_topo.router(),
            shards,
        });
        *topo_guard = new_topo;
        drop(topo_guard);
        *self.state.write() = new_state;
        *self.pending.lock() = None;
        self.own_stats.shard_splits.fetch_add(1, Ordering::Relaxed);
        if let Some(o) = self.observer.as_deref() {
            o.emit(
                EventKind::SplitCutover,
                GLOBAL_SHARD,
                p.span,
                p.parent_id as u64,
                self.current_state().epoch,
            );
        }
        // Retire the parent and its directory (best-effort — the sealed
        // topology no longer names it, and the next open sweeps leftovers).
        state.shard(p.parent_pos).retire();
        self.signal.bump();
        self.remove_shard_dir(p.parent_id);
        Ok(true)
    }

    /// The id allocator may have burned ids on aborted splits; the
    /// persisted watermark must cover them so a reopen never re-issues a
    /// directory this process already touched.
    fn allocated_ids_watermark(&self, at_least: u16) -> u16 {
        (self
            .next_shard_id
            .load(Ordering::Relaxed)
            .min(u16::MAX as u32) as u16)
            .max(at_least)
    }

    fn alloc_shard_id(&self) -> Result<u16> {
        let id = self.next_shard_id.fetch_add(1, Ordering::Relaxed);
        // Reserve u16::MAX so the persisted `next_id` watermark always
        // fits the topology format.
        if id >= u16::MAX as u32 {
            return Err(Error::Corruption("shard id space exhausted".into()));
        }
        Ok(id as u16)
    }

    pub(super) fn remove_shard_dir(&self, id: u16) {
        let prefix = Topology::shard_dir(id);
        if let Ok(names) = self.storage.list() {
            for name in names {
                if name.starts_with(&prefix) {
                    let _ = self.storage.remove(&name);
                }
            }
        }
    }

    /// Abandon a pending split from a context that may not be able to
    /// take the commit lock (the drain, running on a worker): mark it
    /// cancelled — committers stop mirroring immediately, the filter is
    /// lock-free — and clean up opportunistically; a later split phase
    /// finishes the sweep under its own lock if this one could not.
    pub(super) fn abandon_split(&self, p: &Arc<PendingSplit>) {
        p.cancelled.store(true, Ordering::Release);
        if let Some(_commit) = self.coordination.lock.try_lock() {
            self.cleanup_cancelled(p);
        }
    }

    /// Sweep a cancelled (or failed) split (caller holds the commit
    /// lock): the children leave the worker rotation and are discarded.
    /// Their directories are retired best-effort; recovery would sweep
    /// them anyway (they are not in any sealed topology).
    pub(super) fn cleanup_cancelled(&self, p: &Arc<PendingSplit>) {
        p.cancelled.store(true, Ordering::Release);
        let mut pending = self.pending.lock();
        if pending.as_ref().is_some_and(|cur| Arc::ptr_eq(cur, p)) {
            *pending = None;
        }
        drop(pending);
        p.left.retire();
        p.right.retire();
        self.remove_shard_dir(p.left_id);
        self.remove_shard_dir(p.right_id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::ShardingPolicy;
    use crate::types::EntryKind;

    fn range_router() -> ShardRouter {
        // Boundaries at 1000, 2000, 3000 (sample 0..4000).
        ShardRouter::train(
            4,
            &ShardingPolicy::LearnedRange {
                sample: (0..4000u64).collect(),
                epsilon: 8,
            },
        )
    }

    #[test]
    fn ops_land_on_their_shard_in_order() {
        let router = range_router();
        let mut batch = WriteBatch::new();
        batch.put(10, b"a"); // shard 0
        batch.put(2500, b"b"); // shard 2
        batch.delete(10); // shard 0, after the put
        batch.put(3999, b"c"); // shard 3
        let parts = split_batch(batch, &router);
        assert_eq!(parts.len(), 4);
        assert_eq!(parts[0].len(), 2);
        assert_eq!(parts[0].ops()[0].kind, EntryKind::Put);
        assert_eq!(parts[0].ops()[1].kind, EntryKind::Delete, "order kept");
        assert_eq!(parts[1].len(), 0, "untouched shard gets an empty batch");
        assert_eq!(parts[2].ops()[0].key, 2500);
        assert_eq!(parts[3].ops()[0].key, 3999);
    }

    #[test]
    fn split_is_a_partition_of_the_batch() {
        let router = range_router();
        let mut batch = WriteBatch::new();
        for k in (0..4000u64).step_by(17) {
            batch.put(k, &k.to_le_bytes());
        }
        let total = batch.len();
        let parts = split_batch(batch, &router);
        assert_eq!(parts.iter().map(WriteBatch::len).sum::<usize>(), total);
        for (shard, part) in parts.iter().enumerate() {
            for op in part.ops() {
                assert_eq!(router.shard_of(op.key), shard);
            }
        }
    }
}
