//! The single-shard write path: the writer queue, group commit under the
//! tree lock, parallel apply and the fence-publish ceiling
//! (ARCHITECTURE.md §1; the protocol is described in [`super`]'s docs).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::sync::Mutex as StdMutex;
use std::time::{Duration, Instant};

use super::{Db, DbCore, Inner};
use crate::batch::{BatchOp, WriteBatch};
use crate::memtable::{MemTable, ENTRY_OVERHEAD};
use crate::options::WriteOptions;
use crate::types::SeqNo;
use crate::wal;
use crate::{clone_error, Error, Result};
use lsm_obs::EventKind;

// ------------------------------------------------- writer queue (group commit)

/// Cap on batches fused into one commit group. Bounds how much work a
/// single leader does under the tree lock (LevelDB caps similarly).
const MAX_GROUP_BATCHES: usize = 128;

/// Cap on a commit group's payload bytes — keeps one fused WAL record (and
/// the latency of the batches riding it) bounded.
const MAX_GROUP_BYTES: usize = 1 << 20;

/// Upper bound on how long a leader yields for in-flight writers to join a
/// *synced* group before flushing without them (see [`DbCore::lead_group`]).
/// Well under any real flush latency, so the window can only shrink the
/// number of flushes, never dominate commit latency.
const COMMIT_WINDOW: Duration = Duration::from_micros(50);

/// One queued write. Shared between the submitting thread (which waits on
/// `slot`) and whichever thread becomes the commit leader (which fills it).
struct WriteRequest {
    ops: Vec<BatchOp>,
    /// The ops' WAL region, pre-encoded by the submitting thread *outside*
    /// the commit path ([`wal::encode_ops`]) so the leader's serial
    /// section only concatenates member regions. Empty on a shard, which
    /// logs nothing.
    encoded: Vec<u8>,
    sync: bool,
    /// Externally assigned first sequence number (the sharding fence).
    /// Such a write commits as a singleton group: its range is not ours to
    /// extend.
    assigned: Option<SeqNo>,
    slot: StdMutex<SlotState>,
}

/// Where a queued write is in its lifecycle. The submitter owns the
/// transition *out of* `Claimed`/`Failed`; the leader owns the transition
/// *into* them.
enum SlotState {
    /// Still on the queue (or being committed right now).
    Queued,
    /// Logged and sequenced; the submitter must now apply its ops to `mem`
    /// and report into the group ticket.
    Claimed(ClaimedWrite),
    /// The group's log append or sync failed; the write was not
    /// acknowledged.
    Failed(Error),
}

/// A member's share of a committed group: its own first sequence number,
/// the buffer generation its ops must land in (pinned by handle — a
/// rotation cannot swap it out from under the applier), and the group
/// ticket it reports completion to.
struct ClaimedWrite {
    first_seq: SeqNo,
    mem: MemTable,
    group: Arc<GroupTicket>,
}

/// Completion tracking for one commit group, queued FIFO on
/// [`DbCore::publish`]: when `remaining` hits zero the group is `done`,
/// and once every *earlier* group is done too, `visible` advances to
/// `last_seq` — the fence-publish discipline.
struct GroupTicket {
    last_seq: SeqNo,
    remaining: AtomicUsize,
    done: AtomicBool,
}

#[derive(Default)]
pub(super) struct WriteQueue {
    queue: VecDeque<Arc<WriteRequest>>,
    /// A leader is mid-commit; followers wait instead of electing another.
    leader_active: bool,
}

#[derive(Default)]
pub(super) struct PublishQueue {
    /// Committed-but-not-yet-fully-applied groups, claim (= sequence) order.
    pending: VecDeque<Arc<GroupTicket>>,
}

/// Decrements [`DbCore::writers_in_flight`] on scope exit, covering every
/// return path out of `write_impl` (success, admission failure, group
/// failure).
struct InFlightGuard<'a>(&'a AtomicUsize);

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

impl Db {
    // ------------------------------------------------------------- writes

    /// Apply `batch` atomically — the single write entry point.
    ///
    /// The batch joins the writer queue, receives one contiguous sequence
    /// range, and is logged inside **one** CRC-framed WAL record — possibly
    /// fused with other concurrently queued batches (pipelined group
    /// commit; see the module docs). The call returns the last sequence
    /// number assigned to the batch, after the batch — and every batch
    /// sequenced before it — is fully visible to readers.
    ///
    /// Under background maintenance this is also where backpressure
    /// applies, by the rule [`Db::write_pressure`] reports: the write may
    /// be delayed (`Slowdown`) or blocked (`Stop`) before it is admitted.
    ///
    /// ```rust
    /// use lsm_tree::{Db, Options, WriteBatch, WriteOptions};
    ///
    /// let db = Db::open_memory(Options::small_for_tests()).unwrap();
    ///
    /// // One batch, atomic to readers, one (possibly fused) WAL record.
    /// let mut batch = WriteBatch::new();
    /// batch.put(1, b"one");
    /// batch.put(2, b"two");
    /// batch.delete(3);
    /// let seq = db.write(batch, &WriteOptions::default()).unwrap();
    ///
    /// // The returned sequence is the batch's last — and it is already
    /// // visible: no separate "wait for apply" step exists in the API.
    /// assert_eq!(db.latest_seq(), seq);
    /// assert_eq!(db.get(2).unwrap().as_deref(), Some(&b"two"[..]));
    /// assert_eq!(db.get(3).unwrap(), None);
    ///
    /// // `durable()` additionally syncs the fused WAL record before
    /// // acknowledging (one flush per *group*, not per batch).
    /// let mut batch = WriteBatch::new();
    /// batch.put(4, b"four");
    /// db.write(batch, &WriteOptions::durable()).unwrap();
    /// ```
    pub fn write(&self, batch: WriteBatch, wopts: &WriteOptions) -> Result<SeqNo> {
        // A shard logs nothing itself: a write that did not come through
        // the owner's log would be lost by a crash.
        if self.core.coordination.is_some() {
            return Err(Error::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "a shard of a sharded database takes writes only through its owner's log",
            )));
        }
        self.write_impl(batch, wopts, None)
    }

    /// [`Db::write`] with an externally assigned first sequence number, on
    /// a shard: the sharding layer has logged the batch already.
    ///
    /// The sharding layer allocates **one** contiguous range per
    /// cross-shard batch from a shared fence and hands each shard's
    /// sub-batch its sub-range, so sequence numbers stay globally unique
    /// and per-shard monotone. `first_seq` must exceed every sequence this
    /// instance has seen (the caller's allocator + commit lock guarantee
    /// it). The synchronous-mode inline flush is left to the caller
    /// ([`Db::flush_deferred`]): no shard may flush a version the fence has
    /// not published yet — the flush keeps only a key's newest version,
    /// and a reader pinned below the fence would lose the one it is
    /// entitled to.
    pub(crate) fn write_assigned(
        &self,
        batch: WriteBatch,
        wopts: &WriteOptions,
        first_seq: SeqNo,
    ) -> Result<SeqNo> {
        self.write_impl(batch, wopts, Some(first_seq))
    }

    /// The writer-queue protocol. Every write — plain or assigned-sequence
    /// — rides the same queue:
    ///
    /// 1. enqueue a [`WriteRequest`] and wait on its slot;
    /// 2. whichever waiter finds itself at the queue front (with no leader
    ///    active) becomes **leader**: it claims the sequence range for a
    ///    maximal run of compatible queued batches and appends one fused
    ///    WAL record for all of them ([`DbCore::lead_group`]);
    /// 3. every member — leader included — then applies its own ops to the
    ///    concurrent memtable *outside all locks*, in parallel with the
    ///    other members and with the next group's WAL append;
    /// 4. the last member to finish marks the group done, and
    ///    [`DbCore::publish_groups`] advances the `visible` ceiling in
    ///    group order; each member returns once its group is visible.
    fn write_impl(
        &self,
        batch: WriteBatch,
        wopts: &WriteOptions,
        assigned: Option<SeqNo>,
    ) -> Result<SeqNo> {
        if batch.is_empty() {
            return Ok(self.core.visible.load(Ordering::Acquire));
        }
        let core = &self.core;
        // Observability: the write histogram measures enqueue → fence
        // publish, so the clock starts before admission control.
        let started = core.obs.as_ref().map(|_| Instant::now());
        core.writers_in_flight.fetch_add(1, Ordering::Relaxed);
        let _in_flight = InFlightGuard(&core.writers_in_flight);
        let background = core.opts.maintenance.is_background();
        if background {
            // Admission runs *before* queueing, so a stalled write never
            // blocks the leader pipeline.
            core.make_room()?;
        }
        let ops = batch.into_ops();
        // Encode the WAL region here, on the submitting thread, so the
        // leader's serial section does no per-op byte shuffling.
        let encoded = match core.coordination {
            None => wal::encode_ops(&ops),
            Some(_) => Vec::new(),
        };
        let req = Arc::new(WriteRequest {
            encoded,
            ops,
            sync: wopts.sync,
            assigned,
            slot: StdMutex::new(SlotState::Queued),
        });
        {
            // A writer that finds the queue empty is its front: it leads a
            // group of one through the same `lead_group` as everyone else.
            let mut q = core.write_queue.lock().unwrap();
            q.queue.push_back(Arc::clone(&req));
            core.write_queue_cv.notify_all();
        }
        let claim = 'wait: loop {
            let mut q = core.write_queue.lock().unwrap();
            loop {
                {
                    let mut slot = req.slot.lock().unwrap();
                    match std::mem::replace(&mut *slot, SlotState::Queued) {
                        SlotState::Claimed(c) => break 'wait c,
                        SlotState::Failed(e) => return Err(e),
                        SlotState::Queued => {}
                    }
                }
                let should_lead =
                    !q.leader_active && q.queue.front().is_some_and(|f| Arc::ptr_eq(f, &req));
                if should_lead {
                    q.leader_active = true;
                    drop(q);
                    core.lead_group();
                    // Our own slot is now Claimed or Failed; loop to pick
                    // it up through the common path.
                    continue 'wait;
                }
                q = core.write_queue_cv.wait(q).unwrap();
            }
        };
        self.finish_write(&req, claim, background, started)
    }

    /// The member half of a commit: apply the claimed ops, publish when the
    /// group completes, and block until the fence admits them.
    fn finish_write(
        &self,
        req: &WriteRequest,
        claim: ClaimedWrite,
        background: bool,
        started: Option<Instant>,
    ) -> Result<SeqNo> {
        let core = &self.core;
        // Apply outside every lock: group members insert into the shared
        // skiplist in parallel, while the next leader is already logging.
        claim.mem.apply_batch(&req.ops, claim.first_seq);
        claim.mem.finish_applier();
        if claim.group.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            claim.group.done.store(true, Ordering::Release);
            core.publish_groups();
        }
        // Fence-publish: do not acknowledge until the whole group (and
        // every earlier group) is readable — an ack'd write must be
        // immediately visible to the writer, and the ceiling must never
        // expose another member's half-applied batch.
        core.wait_visible(claim.group.last_seq);
        if let (Some(obs), Some(started)) = (core.obs.as_deref(), started) {
            obs.ops.write.record(started.elapsed().as_nanos() as u64);
        }
        let last_seq = claim.first_seq + req.ops.len() as SeqNo - 1;
        if background {
            // The overlap witness: this write completed while a background
            // worker was mid-flush or mid-compaction.
            if core.stats.active_background_workers() > 0 {
                core.stats
                    .writes_during_maintenance
                    .fetch_add(1, Ordering::Relaxed);
            }
        } else if req.assigned.is_none() {
            // The sharding layer's writes flush once the fence publishes
            // them ([`Db::flush_deferred`]).
            core.maintain_inline()?;
        }
        Ok(last_seq)
    }

    /// The deferred half of a [`Db::write_assigned`]: flush the memtable if
    /// it is over budget, now that the fence has published the batch. Under
    /// background maintenance this is a no-op — the next write's admission
    /// control rotates the buffer at the same threshold.
    pub(crate) fn flush_deferred(&self) -> Result<()> {
        if self.core.opts.maintenance.is_background() {
            return Ok(());
        }
        self.core.maintain_inline()
    }

    /// Insert or overwrite `key` (thin wrapper over [`Db::write`]).
    pub fn put(&self, key: u64, value: &[u8]) -> Result<()> {
        let mut batch = WriteBatch::with_capacity(1);
        batch.put(key, value);
        self.write(batch, &WriteOptions::default())?;
        Ok(())
    }

    /// Delete `key` — writes a tombstone (thin wrapper over [`Db::write`]).
    pub fn delete(&self, key: u64) -> Result<()> {
        let mut batch = WriteBatch::with_capacity(1);
        batch.delete(key);
        self.write(batch, &WriteOptions::default())?;
        Ok(())
    }
}

impl DbCore {
    // --------------------------------------------- pipelined group commit

    /// Run one commit group as leader. Called by the writer that found
    /// itself at the queue front with `leader_active` freshly set; on
    /// return every popped member's slot (the leader's own included) holds
    /// `Claimed` or `Failed`, and `leader_active` is cleared.
    ///
    /// Lock order: the tree lock is taken **before** the queue lock —
    /// popping members under the tree lock means the WAL append order of
    /// successive groups is their queue order, so sequence ranges in the
    /// log are monotone.
    fn lead_group(&self) {
        let mut inner = self.inner.write();
        let mut q = self.write_queue.lock().unwrap();
        // Commit window: if the head batch wants a flush and other writers
        // are in flight but not yet queued, yield briefly so they join and
        // one `sync` covers the lot. The wait is evidence-driven — a lone
        // writer satisfies the target instantly and never waits — and
        // bounded, so a straggler stuck in admission can only delay a
        // group by `COMMIT_WINDOW`, never park it.
        if q.queue
            .front()
            .is_some_and(|h| h.sync && h.assigned.is_none())
        {
            let deadline = Instant::now() + COMMIT_WINDOW;
            loop {
                let target = self
                    .writers_in_flight
                    .load(Ordering::Relaxed)
                    .min(MAX_GROUP_BATCHES);
                if q.queue.len() >= target || Instant::now() >= deadline {
                    break;
                }
                drop(q);
                std::thread::yield_now();
                q = self.write_queue.lock().unwrap();
            }
        }
        let members: Vec<Arc<WriteRequest>> = {
            let mut members: Vec<Arc<WriteRequest>> = Vec::new();
            if let Some(head) = q.queue.pop_front() {
                // The head defines the group. An assigned-sequence batch
                // commits alone; plain batches fuse with following plain
                // batches, up to the group caps.
                let exclusive = head.assigned.is_some();
                let mut bytes: usize = head
                    .ops
                    .iter()
                    .map(|o| ENTRY_OVERHEAD + o.value.len())
                    .sum();
                members.push(head);
                while !exclusive && members.len() < MAX_GROUP_BATCHES && bytes < MAX_GROUP_BYTES {
                    match q.queue.front() {
                        Some(next) if next.assigned.is_none() => {
                            let next = q.queue.pop_front().expect("front just checked");
                            bytes += next
                                .ops
                                .iter()
                                .map(|o| ENTRY_OVERHEAD + o.value.len())
                                .sum::<usize>();
                            members.push(next);
                        }
                        _ => break,
                    }
                }
            }
            members
        };
        drop(q);
        debug_assert!(!members.is_empty(), "a leader always has its own request");
        let result = self.commit_group(&mut inner, &members);
        drop(inner);
        let mut q = self.write_queue.lock().unwrap();
        match result {
            Ok(claims) => {
                for (req, claim) in members.iter().zip(claims) {
                    *req.slot.lock().unwrap() = SlotState::Claimed(claim);
                }
            }
            Err(e) => {
                // The group failed: deliver the error to every member
                // (approximated — `Error` is not `Clone`); none of the
                // writes was acknowledged.
                for req in &members {
                    *req.slot.lock().unwrap() = SlotState::Failed(clone_error(&e));
                }
            }
        }
        q.leader_active = false;
        self.write_queue_cv.notify_all();
    }

    /// Sequence + log one commit group under the tree lock. On success the
    /// group's ops are *claimed but not yet applied*: each returned
    /// [`ClaimedWrite`] is registered as an applier on the current buffer
    /// (so a rotation will quiesce on it) and the group's ticket is queued
    /// for publication. A failed log append or sync uses up the group's
    /// range and fails every member: none was acknowledged, and a reopen
    /// may replay the record if it landed.
    fn commit_group(
        &self,
        inner: &mut Inner,
        members: &[Arc<WriteRequest>],
    ) -> Result<Vec<ClaimedWrite>> {
        let head = &members[0];
        let first_seq = head.assigned.unwrap_or(inner.seq + 1);
        let total: usize = members.iter().map(|m| m.ops.len()).sum();
        let last_seq = first_seq + total as SeqNo - 1;
        let mut framed = 0;
        if let Some(log) = inner.log.as_mut() {
            // One fused, CRC-framed record for the whole group; replay is
            // all-or-nothing and indistinguishable from one large batch,
            // which is safe because no member was acknowledged unless the
            // whole record landed. Members pre-encoded their regions
            // off-path.
            let parts: Vec<&[u8]> = members.iter().map(|m| m.encoded.as_slice()).collect();
            let sync = members.iter().any(|m| m.sync);
            let synced = match log.append(first_seq, total, &parts, sync, &self.stats) {
                Ok((bytes, synced)) => {
                    framed = bytes;
                    synced
                }
                Err(e) => {
                    // The record may have landed (a failed sync follows a
                    // whole append), so its range is used up: recovery
                    // reads each range once, and a later batch reissued at
                    // it would be skipped. It publishes as an empty group.
                    inner.seq = inner.seq.max(last_seq);
                    self.queue_group(last_seq, 0);
                    self.publish_groups();
                    return Err(e);
                }
            };
            if let (Some(obs), Some(ns)) = (self.obs.as_deref(), synced) {
                obs.ops.sync_wait.record(ns);
                obs.emit(EventKind::WalSync, 0, ns, 0);
            }
        }
        if let Some(obs) = self.obs.as_deref() {
            obs.emit(EventKind::WriteGroupCommit, 0, members.len() as u64, framed);
        }
        // Every write sealed: the sequences below this group went to other
        // shards, so this one's tables reach up to it.
        if inner.unflushed_from().is_none() {
            inner.flushed = first_seq - 1;
        }
        inner.mem_first.get_or_insert(first_seq);
        inner.seq = inner.seq.max(last_seq);
        self.stats.write_groups.fetch_add(1, Ordering::Relaxed);
        self.stats
            .write_batches
            .fetch_add(members.len() as u64, Ordering::Relaxed);
        self.stats
            .write_entries
            .fetch_add(total as u64, Ordering::Relaxed);
        let group = self.queue_group(last_seq, members.len());
        let mut claims = Vec::with_capacity(members.len());
        let mut next_seq = first_seq;
        for m in members {
            // Registered under the tree lock, so a rotation (which also
            // holds it) either sees this applier and waits for it, or
            // completes entirely before this claim — never in between.
            inner.mem.register_applier();
            claims.push(ClaimedWrite {
                first_seq: next_seq,
                mem: inner.mem.clone(),
                group: Arc::clone(&group),
            });
            next_seq += m.ops.len() as SeqNo;
        }
        Ok(claims)
    }

    /// Queue the ticket of a group of `members` ending at `last_seq` for
    /// publication, done at once when it has none. The caller holds the
    /// tree lock: claim order == publication order == sequence order.
    fn queue_group(&self, last_seq: SeqNo, members: usize) -> Arc<GroupTicket> {
        let group = Arc::new(GroupTicket {
            last_seq,
            remaining: AtomicUsize::new(members),
            done: AtomicBool::new(members == 0),
        });
        let mut publish = self.publish.lock().unwrap();
        publish.pending.push_back(Arc::clone(&group));
        group
    }

    /// Advance the `visible` ceiling over every fully-applied group at the
    /// front of the publication queue. Publication is strictly FIFO: a
    /// done group behind a still-applying one stays unpublished, so the
    /// ceiling never jumps a gap.
    fn publish_groups(&self) {
        let mut p = self.publish.lock().unwrap();
        let mut published = false;
        while let Some(front) = p.pending.front() {
            if !front.done.load(Ordering::Acquire) {
                break;
            }
            let ticket = p.pending.pop_front().expect("front just checked");
            self.visible.fetch_max(ticket.last_seq, Ordering::Release);
            published = true;
        }
        if published {
            self.publish_cv.notify_all();
        }
    }

    /// Block until the `visible` ceiling covers `seq`. The check-then-wait
    /// races nothing: `publish_groups` stores `visible` while holding the
    /// publish lock, which this reacquires before every re-check.
    pub(super) fn wait_visible(&self, seq: SeqNo) {
        if self.visible.load(Ordering::Acquire) >= seq {
            return;
        }
        let mut p = self.publish.lock().unwrap();
        while self.visible.load(Ordering::Acquire) < seq {
            p = self.publish_cv.wait(p).unwrap();
        }
    }
}
