//! The sharded commit path: a batch put in routing order, the claim step
//! of the database's one writer queue — one sequence range and one log
//! record per group, each batch's ops registered at the shards they land
//! in — and the log's rotation, retirement and bound (ARCHITECTURE.md §5;
//! the protocol is described in [`super`]'s docs).
//!
//! A client-facing [`WriteBatch`] may touch any mix of shards. The splitter
//! routes every operation to its owning shard, preserving application
//! order *within* each shard — and because one key always routes to one
//! shard, per-shard order is all that LevelDB's "later op wins" semantics
//! needs. Ops never move between shards, so the concatenation of the
//! sub-batches is a permutation of the original that reorders only
//! independent keys.

use std::ops::Range;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use super::router::ShardRouter;
use super::{ShardedCore, ShardedDb};
use crate::batch::{BatchOp, WriteBatch};
use crate::db::{Claim, Db, WriteRequest};
use crate::log::Log;
use crate::memtable::MemTable;
use crate::options::WriteOptions;
use crate::scheduler::Work;
use crate::types::SeqNo;
use crate::wal;
use crate::Result;
use lsm_obs::EventKind::{WalSync, WriteGroupCommit};
use lsm_obs::GLOBAL_SHARD;

/// Write buffers' worth of live log past which the shard pinning the oldest
/// file is flushed. Shards that flush as they fill keep the live log near
/// one buffer per shard, each buffer's log bytes below its buffer bytes.
pub const LOG_BOUND_BUFFERS: u64 = 8;

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
    // ------------------------------------------------------------- writes

    /// Apply `batch` atomically across every shard it touches.
    ///
    /// The batch's ops are put in routing order ([`split_batch`]) and the
    /// batch joins the database's writer queue — the one a lone
    /// [`crate::Db`] runs. A leader claims one contiguous global sequence
    /// range for a run of queued batches and appends **one** record to the
    /// database's log for the group, op `i` at `first + i`, synced once
    /// when any member asks (`wopts.sync`). That record is the commit point
    /// of every batch in it: a reopen replays all of it or none of it. The
    /// leader registers the group once at each shard it lands in, the
    /// members apply their parts outside every lock, and the published
    /// ceiling advances only after the last one applied: readers never
    /// observe a partially applied batch. Returns the last sequence number
    /// of the batch.
    ///
    /// A failed append or sync fails every batch of the group and uses its
    /// range up, as a lone `Db`'s does: a reopen replays the record whole
    /// if it landed. An error *after* the batch published — a deferred
    /// flush failing — leaves the batch committed; it is an ordinary
    /// retryable maintenance error, fixed by calling [`ShardedDb::flush`]
    /// once the storage heals.
    pub fn write(&self, batch: WriteBatch, wopts: &WriteOptions) -> Result<SeqNo> {
        let core = &self.core;
        if batch.is_empty() {
            return Ok(core.writers.visible());
        }
        let started = core.observer.as_ref().map(|_| Instant::now());
        let state = &core.state;
        let parts = split_batch(batch, &state.router);
        let landing: Vec<&Arc<Db>> = (state.shards.iter().zip(&parts))
            .filter_map(|(d, part)| (!part.is_empty()).then_some(d))
            .collect();
        let ops: Vec<BatchOp> = parts.into_iter().flat_map(WriteBatch::into_ops).collect();
        let background = core.opts.base.maintenance.is_background();
        let encoded = wal::encode_ops(&ops);
        // Admission, as a lone `Db`'s, in every shard the batch lands in.
        let admit = || match background {
            true => landing.iter().try_for_each(|d| d.core().make_room()),
            false => Ok(()),
        };
        let lock = || core.commit_lock.lock();
        let claim = |_: &mut _, members: &_| core.claim_group(members);
        let last = (core.writers).commit(ops, encoded, wopts.sync, admit, lock, claim)?;
        let obs = landing.first().and_then(|d| d.observability());
        if let (Some(obs), Some(started)) = (obs, started) {
            obs.ops.write.record(started.elapsed().as_nanos() as u64);
        }
        if !background {
            landing.iter().try_for_each(|d| d.flush_deferred())?;
        }
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

    /// The claim step, under the commit lock: sequence and log one group,
    /// then register it once at each shard it lands in, under that shard's
    /// tree lock, an applier for each run of a member's ops bound there.
    /// Once: a rotation that takes a tree lock the group registered at
    /// waits for the group to apply, so the leader must not need that lock
    /// again. A failed append or sync uses the group's range up and fails
    /// it.
    fn claim_group(&self, members: &[Arc<WriteRequest>]) -> Result<Vec<Claim>> {
        let first = self.claimed.load(Ordering::Relaxed) + 1;
        let total = members.iter().map(|m| m.ops.len()).sum();
        let sync = members.iter().any(|m| m.sync);
        let last = first + total as SeqNo - 1;
        let regions: Vec<&[u8]> = members.iter().map(|m| m.encoded.as_slice()).collect();
        let appended = self.append(first, total, &regions, sync);
        self.claimed.store(last, Ordering::Relaxed);
        let (framed, synced, due) = appended.inspect_err(|_| self.writers.skip(last))?;
        let state = &self.state;
        // The log's own housekeeping, before this group registers: a flush
        // it starts waits for every registered group to publish. It is no
        // part of the group, which is committed: a failure here is a
        // background error, so a client never sees `Err` for a batch that
        // landed (and retries it twice).
        if let Err(e) = due.then(|| self.maintain_log()).transpose() {
            self.bg_error.record(Work::Sharding, &e, &self.own_stats);
        }
        if let Some(o) = self.observer.as_deref() {
            if let Some(ns) = synced {
                o.emit(WalSync, GLOBAL_SHARD, 0, ns, 0);
                // The histogram is per shard: the sync is the first part's.
                let first_part = state.shard(state.router.shard_of(members[0].ops[0].key));
                if let Some(obs) = first_part.observability() {
                    obs.ops.sync_wait.record(ns);
                }
            }
            let batches = members.len() as u64;
            o.emit(WriteGroupCommit, GLOBAL_SHARD, 0, batches, framed);
        }
        // Each member's runs of ops bound for one shard, and per shard the
        // sequences its runs span, their count and their ops. A member's
        // ops are in routing order, so its part at a shard is one run.
        let mut at: Vec<Option<(Range<SeqNo>, usize, usize)>> = vec![None; state.shards()];
        let mut next = first;
        let member_runs: Vec<(SeqNo, Runs)> = (members.iter())
            .map(|m| {
                let first = next;
                next += m.ops.len() as SeqNo;
                let runs = runs_of(&m.ops, |k| state.router.shard_of(k));
                for (pos, run) in &runs {
                    let seqs = first + run.start as SeqNo..first + run.end as SeqNo;
                    let (span, count, ops) = at[*pos].get_or_insert((seqs.clone(), 0, 0));
                    (span.end, *count, *ops) = (seqs.end, *count + 1, *ops + run.len());
                }
                (first, runs)
            })
            .collect();
        let group = self.writers.open_group(last, members.len());
        let mems: Vec<Option<MemTable>> = (at.into_iter().zip(&state.shards))
            .map(|(at, d)| at.map(|(seqs, count, entries)| d.claim_at(seqs, count, entries)))
            .collect();
        let claims = member_runs.into_iter().map(|(first, runs)| {
            let runs = runs
                .into_iter()
                .map(|(pos, run)| (mems[pos].clone().expect("registered above"), run));
            let (runs, group) = (runs.collect(), Arc::clone(&group));
            Claim { first, runs, group }
        });
        Ok(claims.collect())
    }

    /// Append one group's record over its members' regions, rotating the
    /// active file first once it holds a write buffer's bytes. Returns the
    /// framed bytes, the sync's wall time in ns, and whether the log is due
    /// its upkeep: it rotated (a sealed file may be retirable now) or
    /// passed the bound. A failed rotation fails the group too, though it
    /// appended nothing: one rule for every failure at the commit point.
    fn append(
        &self,
        first: SeqNo,
        count: usize,
        regions: &[&[u8]],
        sync: bool,
    ) -> Result<(u64, Option<u64>, bool)> {
        let mut log = self.log.lock();
        let rotated = log.written() >= self.opts.base.write_buffer_bytes as u64;
        if rotated {
            log.rotate(&self.own_stats)?;
        }
        let (framed, synced) = log.append(first, count, regions, sync, &self.own_stats)?;
        Ok((framed, synced, rotated || self.over_bound(&log)))
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
    pub(super) fn maintain_log(&self) -> Result<()> {
        let state = &self.state;
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
}

/// Runs of consecutive ops bound for one shard: its position, the ops'
/// range.
type Runs = Vec<(usize, Range<usize>)>;

/// `ops` as runs of consecutive ops whose keys `target` sends to one shard.
fn runs_of(ops: &[BatchOp], target: impl Fn(u64) -> usize) -> Runs {
    let mut runs = Runs::new();
    for (i, op) in ops.iter().enumerate() {
        let to = target(op.key);
        match runs.last_mut() {
            Some((at, run)) if *at == to => run.end = i + 1,
            _ => runs.push((to, i..i + 1)),
        }
    }
    runs
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
