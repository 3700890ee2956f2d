//! The write path: the one writer queue and fence-publish ceiling a log's
//! owner runs — a lone `Db`, or a sharded database for all its shards — and
//! the lone `Db`'s claim step, group commit under the tree lock
//! (ARCHITECTURE.md §1; the protocol is described in [`super`]'s docs).

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::sync::{Condvar, Mutex as StdMutex};
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
/// single leader does under its owner lock (LevelDB caps similarly).
const MAX_GROUP_BATCHES: usize = 128;

/// Cap on a commit group's payload bytes — keeps one fused WAL record (and
/// the latency of the batches riding it) bounded.
const MAX_GROUP_BYTES: usize = 1 << 20;

/// Upper bound on how long a leader yields for in-flight writers to join a
/// *synced* group before flushing without them (see
/// [`WriterQueue::pop_group`]). Well under any real flush latency, so the
/// window can only shrink the number of flushes, never dominate commit
/// latency.
const COMMIT_WINDOW: Duration = Duration::from_micros(50);

/// One queued write. Shared between the submitting thread (which waits on
/// `slot`) and whichever thread becomes the commit leader (which fills it).
pub(crate) struct WriteRequest {
    pub(crate) ops: Vec<BatchOp>,
    /// The ops' WAL region, pre-encoded by the submitting thread *outside*
    /// the commit path ([`wal::encode_ops`]) so the leader's serial
    /// section only concatenates member regions.
    pub(crate) encoded: Vec<u8>,
    pub(crate) sync: bool,
    slot: StdMutex<SlotState>,
}

/// Where a queued write is in its lifecycle. The submitter owns the
/// transition *out of* `Claimed`/`Failed`; the leader owns the transition
/// *into* them.
enum SlotState {
    /// Still on the queue (or being committed right now).
    Queued,
    /// Logged and sequenced; the submitter must now apply its ops and
    /// report into the group ticket.
    Claimed(Claim),
    /// The group's log append or sync failed; the write was not
    /// acknowledged.
    Failed(Error),
}

/// A member's share of a claimed group: op `i` of its batch is at
/// `first + i`; each run of its ops lands in the buffer the owner
/// registered an applier for it in (pinned by handle — a rotation cannot
/// swap it out from under the applier, and waits for it); and the group
/// ticket it reports to.
pub(crate) struct Claim {
    pub(crate) first: SeqNo,
    pub(crate) runs: Vec<(MemTable, Range<usize>)>,
    pub(crate) group: Arc<GroupTicket>,
}

/// Completion tracking for one commit group, queued FIFO on the
/// [`WriterQueue`]: when `remaining` hits zero the group is `done`, and once
/// every *earlier* group is done too, the ceiling advances to `last_seq`.
pub(crate) struct GroupTicket {
    last_seq: SeqNo,
    remaining: AtomicUsize,
    done: AtomicBool,
}

#[derive(Default)]
struct Queue {
    requests: VecDeque<Arc<WriteRequest>>,
    /// A leader is mid-commit; followers wait instead of electing another.
    leader_active: bool,
}

/// The writer queue of one log and its published sequence ceiling. Its
/// owner — a lone `Db`, or a sharded database, whose shards read the
/// ceiling through a shared handle — supplies its owner lock and its claim
/// step to [`WriterQueue::commit`]: the elected leader takes the lock,
/// pops a group ([`WriterQueue::pop_group`]), runs the claim step, which
/// sequences and logs it, and hands out the claims
/// ([`WriterQueue::deliver`]).
///
/// Reads observe exactly the writes at or below the ceiling. It trails the
/// last claimed sequence by the groups whose members are still inserting,
/// and advances only over done groups, in claim (= sequence) order — the
/// fence-publish discipline. `std` primitives on purpose: the vendored
/// `parking_lot` shim has no `Condvar`.
#[derive(Default)]
pub(crate) struct WriterQueue {
    queue: StdMutex<Queue>,
    queued: Condvar,
    /// Writers inside [`WriterQueue::commit`], admission included. The
    /// commit window's fusion target: when a *synced* group is about to
    /// commit and other writers are demonstrably in flight, the leader
    /// briefly yields for them to join so one flush covers all of them. A
    /// lone writer never waits (queue length already equals the count).
    in_flight: AtomicUsize,
    visible: AtomicU64,
    /// Claimed groups not yet published, claim order.
    pending: StdMutex<VecDeque<Arc<GroupTicket>>>,
    published: Condvar,
}

impl WriterQueue {
    /// The published ceiling.
    pub(crate) fn visible(&self) -> SeqNo {
        self.visible.load(Ordering::Acquire)
    }

    /// Publish `seq` outright: an open's replay or a bulk load, which no
    /// group is claiming beside.
    pub(crate) fn raise(&self, seq: SeqNo) {
        self.visible.fetch_max(seq, Ordering::Release);
    }

    /// Queue the ticket of a group of `members` ending at `last_seq` for
    /// publication. The caller holds its owner lock: claim order ==
    /// publication order == sequence order.
    pub(crate) fn open_group(&self, last_seq: SeqNo, members: usize) -> Arc<GroupTicket> {
        let group = Arc::new(GroupTicket {
            last_seq,
            remaining: AtomicUsize::new(members),
            done: AtomicBool::new(members == 0),
        });
        self.pending.lock().unwrap().push_back(Arc::clone(&group));
        group
    }

    /// A failed group's range up to `last_seq` is used up: the record may
    /// have landed (a failed sync follows a whole append), recovery reads
    /// each range once, and a later batch reissued at it would be skipped.
    /// It publishes as an empty group.
    pub(crate) fn skip(&self, last_seq: SeqNo) {
        self.open_group(last_seq, 0);
        self.publish();
    }

    /// Advance the ceiling over every done group at the front of the
    /// queue. Strictly FIFO: a done group behind a still-applying one stays
    /// unpublished, so the ceiling never jumps a gap.
    fn publish(&self) {
        let mut pending = self.pending.lock().unwrap();
        let mut published = false;
        while pending
            .front()
            .is_some_and(|g| g.done.load(Ordering::Acquire))
        {
            let ticket = pending.pop_front().expect("front just checked");
            self.visible.fetch_max(ticket.last_seq, Ordering::Release);
            published = true;
        }
        if published {
            self.published.notify_all();
        }
    }

    /// Block until the ceiling covers `seq`. The check-then-wait races
    /// nothing: `publish` stores `visible` while holding the pending
    /// queue's lock, which this reacquires before every re-check.
    pub(crate) fn wait_visible(&self, seq: SeqNo) {
        if self.visible() >= seq {
            return;
        }
        let mut pending = self.pending.lock().unwrap();
        while self.visible() < seq {
            pending = self.published.wait(pending).unwrap();
        }
    }

    /// Writes queued for the next group: waiting for a leader to claim them.
    pub(crate) fn queued(&self) -> usize {
        self.queue.lock().unwrap().requests.len()
    }

    /// The writer-queue protocol, the writer in flight from its `admit`ion,
    /// which may stall, to its acknowledgement:
    ///
    /// 1. enqueue a [`WriteRequest`] and wait on its slot;
    /// 2. whichever waiter finds itself at the queue front (with no leader
    ///    active) becomes **leader**: under the owner lock `lock` takes —
    ///    before the queue lock, so the WAL append order of successive
    ///    groups is their queue order — it pops a group and runs the
    ///    owner's claim step, which claims a sequence range for it and
    ///    appends one fused WAL record for all its batches;
    /// 3. every member — leader included — then applies its own ops
    ///    *outside all locks*, in parallel with the other members and with
    ///    the next group's WAL append;
    /// 4. the last member to finish marks the group done, and the ceiling
    ///    advances in group order; each member returns its last sequence
    ///    once its group is visible.
    pub(crate) fn commit<G>(
        &self,
        ops: Vec<BatchOp>,
        encoded: Vec<u8>,
        sync: bool,
        admit: impl FnOnce() -> Result<()>,
        lock: impl Fn() -> G,
        claim_group: impl Fn(&mut G, &[Arc<WriteRequest>]) -> Result<Vec<Claim>>,
    ) -> Result<SeqNo> {
        self.in_flight.fetch_add(1, Ordering::Relaxed);
        let committed = (|| {
            admit()?;
            let slot = StdMutex::new(SlotState::Queued);
            let req = Arc::new(WriteRequest {
                ops,
                encoded,
                sync,
                slot,
            });
            {
                // A writer that finds the queue empty is its front: it
                // leads a group of one down the same path as everyone else.
                let mut q = self.queue.lock().unwrap();
                q.requests.push_back(Arc::clone(&req));
                self.queued.notify_all();
            }
            let claim = 'wait: loop {
                let mut q = self.queue.lock().unwrap();
                loop {
                    match std::mem::replace(&mut *req.slot.lock().unwrap(), SlotState::Queued) {
                        SlotState::Claimed(c) => break 'wait c,
                        SlotState::Failed(e) => return Err(e),
                        SlotState::Queued => {}
                    }
                    let front = q.requests.front().is_some_and(|f| Arc::ptr_eq(f, &req));
                    if front && !q.leader_active {
                        q.leader_active = true;
                        drop(q);
                        let mut owner = lock();
                        let members = self.pop_group();
                        let claims = claim_group(&mut owner, &members);
                        drop(owner);
                        self.deliver(&members, claims);
                        // Our own slot is now Claimed or Failed; loop to
                        // pick it up through the common path.
                        continue 'wait;
                    }
                    q = self.queued.wait(q).unwrap();
                }
            };
            // Apply outside every lock: group members insert into the
            // shared skiplists in parallel, while the next leader is
            // already logging.
            for (mem, run) in &claim.runs {
                mem.apply_batch(&req.ops[run.clone()], claim.first + run.start as SeqNo);
                mem.finish_applier();
            }
            if claim.group.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                claim.group.done.store(true, Ordering::Release);
                self.publish();
            }
            // Fence-publish: do not acknowledge until the whole group (and
            // every earlier group) is readable — an ack'd write must be
            // immediately visible to the writer, and the ceiling must
            // never expose another member's half-applied batch.
            self.wait_visible(claim.group.last_seq);
            Ok(claim.first + req.ops.len() as SeqNo - 1)
        })();
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
        committed
    }

    /// The leader's pop, under its owner lock: the head and the batches
    /// behind it, up to the group caps.
    ///
    /// Commit window: if the head batch wants a sync and other writers are
    /// in flight but not yet queued, yield briefly so they join and one
    /// `sync` covers the lot. The wait is evidence-driven — a lone writer
    /// satisfies the target instantly and never waits — and bounded, so a
    /// straggler stuck in admission can only delay a group by
    /// `COMMIT_WINDOW`, never park it.
    fn pop_group(&self) -> Vec<Arc<WriteRequest>> {
        let mut q = self.queue.lock().unwrap();
        if q.requests.front().is_some_and(|h| h.sync) {
            let deadline = Instant::now() + COMMIT_WINDOW;
            loop {
                let target = self
                    .in_flight
                    .load(Ordering::Relaxed)
                    .min(MAX_GROUP_BATCHES);
                if q.requests.len() >= target || Instant::now() >= deadline {
                    break;
                }
                drop(q);
                std::thread::yield_now();
                q = self.queue.lock().unwrap();
            }
        }
        let mut members = Vec::new();
        let mut bytes = 0;
        while members.len() < MAX_GROUP_BATCHES && bytes < MAX_GROUP_BYTES {
            let Some(next) = q.requests.pop_front() else {
                break;
            };
            bytes += (next.ops.iter())
                .map(|o| ENTRY_OVERHEAD + o.value.len())
                .sum::<usize>();
            members.push(next);
        }
        debug_assert!(!members.is_empty(), "a leader always has its own request");
        members
    }

    /// Hand each popped member its claim — or, the group having failed,
    /// the error (approximated: `Error` is not `Clone`; none of the writes
    /// was acknowledged) — and end the leader's turn.
    fn deliver(&self, members: &[Arc<WriteRequest>], claims: Result<Vec<Claim>>) {
        let mut q = self.queue.lock().unwrap();
        match claims {
            Ok(claims) => {
                for (req, claim) in members.iter().zip(claims) {
                    *req.slot.lock().unwrap() = SlotState::Claimed(claim);
                }
            }
            Err(e) => {
                for req in members {
                    *req.slot.lock().unwrap() = SlotState::Failed(clone_error(&e));
                }
            }
        }
        q.leader_active = false;
        self.queued.notify_all();
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
        let core = &self.core;
        // A shard logs nothing itself: a write that did not come through
        // the owner's log would be lost by a crash.
        if core.commit_lock.is_some() {
            return Err(Error::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "a shard of a sharded database takes writes only through its owner's log",
            )));
        }
        if batch.is_empty() {
            return Ok(core.writers.visible());
        }
        // Observability: the write histogram measures enqueue → fence
        // publish, so the clock starts before admission control.
        let started = core.obs.as_ref().map(|_| Instant::now());
        let background = core.opts.maintenance.is_background();
        let ops = batch.into_ops();
        // Encode the WAL region here, on the submitting thread, so the
        // leader's serial section does no per-op byte shuffling.
        let encoded = wal::encode_ops(&ops);
        // Admission runs *before* queueing, so a stalled write never blocks
        // the leader pipeline.
        let admit = || match background {
            true => core.make_room(),
            false => Ok(()),
        };
        let lock = || core.inner.write();
        let last_seq =
            (core.writers).commit(ops, encoded, wopts.sync, admit, lock, |inner, m| {
                core.commit_group(inner, m)
            })?;
        if let (Some(obs), Some(started)) = (core.obs.as_deref(), started) {
            obs.ops.write.record(started.elapsed().as_nanos() as u64);
        }
        if background {
            // The overlap witness: this write completed while a background
            // worker was mid-flush or mid-compaction.
            if core.stats.active_background_workers() > 0 {
                core.stats
                    .writes_during_maintenance
                    .fetch_add(1, Ordering::Relaxed);
            }
        } else {
            core.maintain_inline()?;
        }
        Ok(last_seq)
    }

    /// A sharded database's synchronous-mode inline maintenance of a shard
    /// its write landed in, run once the write is published: flush the
    /// memtable if it is over budget. No shard may flush a version the
    /// ceiling has not published yet — the flush keeps only a key's newest
    /// version, and a reader pinned below the ceiling would lose the one it
    /// is entitled to. Under background maintenance this is a no-op — the
    /// next write's admission control rotates the buffer at the same
    /// threshold.
    pub(crate) fn flush_deferred(&self) -> Result<()> {
        let core = &self.core;
        if core.opts.maintenance.is_background() {
            return Ok(());
        }
        core.maintain_inline()
    }

    /// The one way into a shard's buffer: claim `seqs` for `entries` ops
    /// in `runs` runs, one applier registered for each, under the shard's
    /// tree lock, so a rotation waits for them; the caller then applies
    /// them (the sharded claim step's parts).
    pub(crate) fn claim_at(&self, seqs: Range<SeqNo>, runs: usize, entries: usize) -> MemTable {
        let mut inner = self.core.inner.write();
        self.core.claim(&mut inner, seqs, runs, entries)
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

    /// The lone `Db`'s claim step: sequence + log one commit group under the
    /// tree lock, which its writer queue takes before popping. On success the
    /// group's ops are *claimed but not yet applied*: each member's
    /// [`Claim`] holds an applier registered on the current buffer (so a
    /// rotation will quiesce on it) and the group's ticket is queued for
    /// publication. A failed log append or sync uses up the group's range
    /// and fails every member: none was acknowledged, and a reopen may
    /// replay the record if it landed.
    fn commit_group(&self, inner: &mut Inner, members: &[Arc<WriteRequest>]) -> Result<Vec<Claim>> {
        let first_seq = inner.seq + 1;
        let total = members.iter().map(|m| m.ops.len()).sum();
        let sync = members.iter().any(|m| m.sync);
        let last_seq = first_seq + total as SeqNo - 1;
        let log = inner.log.as_mut().expect("a lone Db keeps its log");
        // One fused, CRC-framed record for the whole group; replay is
        // all-or-nothing and indistinguishable from one large batch, which
        // is safe because no member was acknowledged unless the whole
        // record landed. Members pre-encoded their regions off-path.
        let parts: Vec<&[u8]> = members.iter().map(|m| m.encoded.as_slice()).collect();
        let (framed, synced) = match log.append(first_seq, total, &parts, sync, &self.stats) {
            Ok(appended) => appended,
            Err(e) => {
                inner.seq = inner.seq.max(last_seq);
                self.writers.skip(last_seq);
                return Err(e);
            }
        };
        if let Some(obs) = self.obs.as_deref() {
            if let Some(ns) = synced {
                obs.ops.sync_wait.record(ns);
                obs.emit(EventKind::WalSync, 0, ns, 0);
            }
            obs.emit(EventKind::WriteGroupCommit, 0, members.len() as u64, framed);
        }
        let mem = self.claim(inner, first_seq..last_seq + 1, members.len(), total);
        let group = self.writers.open_group(last_seq, members.len());
        let mut next = first_seq;
        let claims = members.iter().map(|m| {
            let (first, len) = (next, m.ops.len());
            next += len as SeqNo;
            let group = Arc::clone(&group);
            Claim {
                first,
                runs: vec![(mem.clone(), 0..len)],
                group,
            }
        });
        Ok(claims.collect())
    }

    /// Claim `seqs` in this tree's buffer for `entries` ops in `runs`
    /// runs, one applier registered for each. Under the tree lock, so a
    /// rotation (which also holds it) either sees these appliers and waits
    /// for them, or completes entirely before this claim — never in between.
    fn claim(
        &self,
        inner: &mut Inner,
        seqs: Range<SeqNo>,
        runs: usize,
        entries: usize,
    ) -> MemTable {
        // Every write sealed: the sequences below these went to other
        // shards, so this one's tables reach up to them.
        if inner.unflushed_from().is_none() {
            inner.flushed = seqs.start - 1;
        }
        inner.mem_first.get_or_insert(seqs.start);
        inner.seq = inner.seq.max(seqs.end - 1);
        self.stats.write_groups.fetch_add(1, Ordering::Relaxed);
        self.stats
            .write_batches
            .fetch_add(runs as u64, Ordering::Relaxed);
        self.stats
            .write_entries
            .fetch_add(entries as u64, Ordering::Relaxed);
        for _ in 0..runs {
            inner.mem.register_applier();
        }
        inner.mem.clone()
    }
}
