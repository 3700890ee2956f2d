//! The sharded commit path: the claim step of the database's one writer
//! queue — one sequence range and one log record per group, each batch's
//! ops routed to the shards, and a pending split's children, they land in
//! — and the log's rotation, retirement and bound (ARCHITECTURE.md §5; the
//! protocol is described in [`super`]'s docs).

use std::ops::Range;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use super::{split_batch, PendingSplit, RoutingState, ShardedCore, ShardedDb};
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

impl ShardedDb {
    // ------------------------------------------------------------- writes

    /// Apply `batch` atomically across every shard it touches.
    ///
    /// The batch's ops are put in routing order ([`split_batch`]) and the
    /// batch joins the database's writer queue — the one a lone [`Db`]
    /// runs. A leader claims one contiguous global sequence range for a run
    /// of queued batches and appends **one** record to the database's log
    /// for the group, op `i` at `first + i`, synced once when any member
    /// asks (`wopts.sync`). That record is the commit point of every batch
    /// in it: a reopen replays all of it or none of it. The leader
    /// registers the group once at each shard it lands in — during a
    /// split's dual-write window, at the children too —, the members apply
    /// their parts outside every lock, and the published ceiling advances
    /// only after the last one applied: readers never observe a partially
    /// applied batch. Returns the last sequence number of the batch.
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
        let state = core.current_state();
        let parts = split_batch(batch, &state.router).into_iter();
        let ops: Vec<BatchOp> = parts.flat_map(WriteBatch::into_ops).collect();
        let landing = core.landing(&state, &ops);
        let background = core.opts.base.maintenance.is_background();
        let encoded = wal::encode_ops(&ops);
        // Admission, as a lone `Db`'s, in every shard the batch lands in.
        let admit = || match background {
            true => core.each_landing(&landing, |d| d.core().make_room()),
            false => Ok(()),
        };
        // The commit lock serializes claims with each other and with a
        // split's phases. A split's cutover poisons the write path if it
        // cannot unseal a failed topology (`split.rs`): that fails the group
        // before it claims anything.
        let lock = || core.coordination.lock.lock();
        let claim = |_: &mut _, members: &_| {
            (core.coordination.check_poisoned()).and_then(|()| core.claim_group(members))
        };
        let last = (core.writers).commit(ops, encoded, wopts.sync, admit, lock, claim)?;
        let obs = landing.first().and_then(|d| d.observability());
        if let (Some(obs), Some(started)) = (obs, started) {
            obs.ops.write.record(started.elapsed().as_nanos() as u64);
        }
        if !background {
            // Under the commit lock, so no cutover or swept split retires a
            // shard and removes its files while it flushes.
            let _commit = core.coordination.lock.lock();
            core.each_landing(&landing, Db::flush_deferred)?;
        }
        core.after_commit();
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

    /// The shards `ops`, in routing order, land in under `state`, in
    /// routing order — and a pending split's children after them when the
    /// splitting shard is one: what admission and inline maintenance run
    /// on.
    fn landing(&self, state: &RoutingState, ops: &[BatchOp]) -> Vec<Arc<Db>> {
        let mut at: Vec<usize> = ops.iter().map(|op| state.router.shard_of(op.key)).collect();
        at.dedup();
        let split = self.pending_split().filter(|p| at.contains(&p.parent_pos));
        let children = split.iter().flat_map(|p| [&p.left, &p.right]);
        let shards = at.iter().map(|&pos| state.shard(pos)).chain(children);
        shards.cloned().collect()
    }

    /// Run `step` on each of `shards`. A split child's failure abandons the
    /// split — the parent, still the routed truth, holds every write — and
    /// any other fails the write.
    fn each_landing(&self, shards: &[Arc<Db>], step: impl Fn(&Db) -> Result<()>) -> Result<()> {
        for shard in shards {
            if let Err(e) = step(shard) {
                let child = |p: &Arc<PendingSplit>| {
                    [&p.left, &p.right].iter().any(|c| Arc::ptr_eq(c, shard))
                };
                match self.pending_split().filter(child) {
                    Some(p) => self.abandon_split(&p),
                    None => return Err(e),
                }
            }
        }
        Ok(())
    }

    /// The claim step, under the commit lock: sequence and log one group,
    /// then register it once at each buffer it lands in — a shard's by
    /// routing position, and a pending split's child's beside the splitting
    /// shard's —, under that one's tree lock, an applier for each run of a
    /// member's ops bound there. Once: a rotation that takes a tree lock
    /// the group registered at waits for the group to apply, so the leader
    /// must not need that lock again. A failed append or sync uses the
    /// group's range up and fails it.
    fn claim_group(&self, members: &[Arc<WriteRequest>]) -> Result<Vec<Claim>> {
        let first = self.claimed.load(Ordering::Relaxed) + 1;
        let total = members.iter().map(|m| m.ops.len()).sum();
        let sync = members.iter().any(|m| m.sync);
        let last = first + total as SeqNo - 1;
        let regions: Vec<&[u8]> = members.iter().map(|m| m.encoded.as_slice()).collect();
        let appended = self.append(first, total, &regions, sync);
        self.claimed.store(last, Ordering::Relaxed);
        let (framed, synced, due) = appended.inspect_err(|_| self.writers.skip(last))?;
        let state = self.current_state();
        // The log's own housekeeping, before this group registers: a flush
        // it starts waits for every registered group to publish. It is no
        // part of the group, which is committed: a failure here is a
        // background error, so a client never sees `Err` for a batch that
        // landed (and retries it twice).
        if let Err(e) = due.then(|| self.maintain_log(&state)).transpose() {
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
        let pending = self.pending_split();
        let children = pending.iter().flat_map(|p| [&p.left, &p.right]);
        let targets: Vec<&Arc<Db>> = state.shards.iter().chain(children).collect();
        // Each member's runs of ops bound for one target, and per target
        // the sequences its runs span, their count and their ops. A
        // member's ops are in routing order, so its part at a shard is one
        // run; a splitting shard's part is cut into runs for the children.
        let mut at: Vec<Option<(Range<SeqNo>, usize, usize)>> = vec![None; targets.len()];
        let mut next = first;
        let member_runs: Vec<(SeqNo, Runs)> = (members.iter())
            .map(|m| {
                let first = next;
                next += m.ops.len() as SeqNo;
                let mut runs = runs_of(&m.ops, 0..m.ops.len(), |k| state.router.shard_of(k));
                if let Some(p) = &pending {
                    if let Some((_, part)) = runs.iter().find(|r| r.0 == p.parent_pos).cloned() {
                        let child = |k| state.shards() + usize::from(k >= p.cut);
                        runs.extend(runs_of(&m.ops, part, child));
                    }
                }
                for (target, run) in &runs {
                    let seqs = first + run.start as SeqNo..first + run.end as SeqNo;
                    let (span, count, ops) = at[*target].get_or_insert((seqs.clone(), 0, 0));
                    (span.end, *count, *ops) = (seqs.end, *count + 1, *ops + run.len());
                }
                (first, runs)
            })
            .collect();
        let group = self.writers.open_group(last, members.len());
        let mems: Vec<Option<MemTable>> = (at.into_iter().zip(&targets))
            .map(|(at, d)| at.map(|(seqs, count, entries)| d.claim_at(seqs, count, entries)))
            .collect();
        let claims = member_runs.into_iter().map(|(first, runs)| {
            let runs = runs
                .into_iter()
                .map(|(target, run)| (mems[target].clone().expect("registered above"), run));
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

/// Runs of consecutive ops bound for one place: its index, the ops' range.
type Runs = Vec<(usize, Range<usize>)>;

/// The ops of `ops[span]` as runs of consecutive ops whose keys `target`
/// sends to one place.
fn runs_of(ops: &[BatchOp], span: Range<usize>, target: impl Fn(u64) -> usize) -> Runs {
    let mut runs = Runs::new();
    for i in span {
        let to = target(ops[i].key);
        match runs.last_mut() {
            Some((at, run)) if *at == to => run.end = i + 1,
            _ => runs.push((to, i..i + 1)),
        }
    }
    runs
}
