//! In-memory write buffer.
//!
//! A concurrent sorted run over [`InternalKey`] — key ascending, sequence
//! descending — so a flush streams entries in exactly the order the SSTable
//! builder needs. The paper's write buffer is 64 MB for the compaction
//! experiment; size is tracked approximately and *logically* (key slot +
//! metadata + value bytes, `ENTRY_OVERHEAD` a record), whatever the
//! skiplist's two arenas hold, so a rotation point is a function of the
//! writes alone.
//!
//! The buffer is a lock-free [`SkipList`] shared via `Arc`: commit-group
//! members (`crates/lsm/src/db/write.rs`) clone the handle under the write
//! lock, then insert **in parallel outside it**. The `appliers` gate counts
//! in-flight group members so a rotation or flush can wait for the buffer to
//! quiesce (`MemTable::wait_quiescent`) — a sealed buffer must contain every
//! sequence number the WAL says it does.
//!
//! There is one representation from the first insert to the L0 table, and a
//! write is copied once on the way in: [`MemTable::apply_batch`] copies each
//! value from the batch straight into the list's value arena, where its node
//! points. Under background maintenance a full buffer is **sealed**, not
//! copied: its handle moves into an [`ImmutableMemTable`] on the flush queue
//! beside the name of the WAL file that made it durable (a shard of a
//! sharded database has none: its writes are in the owner's log), and a fresh
//! skiplist takes its place (`crates/lsm/src/db/maintenance.rs`). Nothing
//! inserts into a sealed buffer — claims register on the active one under
//! the tree lock the rotation holds — so the flush worker, readers and
//! pinned snapshots all read the same nodes, through the same
//! [`MemTable::get`] and [`MemCursor`] the live buffer is read with. A flush borrows each key from its node and each value
//! through its node's pointer; no entry is cloned out.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::iter::Cursor;
use crate::skiplist::{Node, SkipList};
use crate::types::{EntryKind, InternalKey, SeqNo};
use crate::Result;

/// Approximate per-entry bookkeeping overhead, matching the on-disk entry
/// header (24-byte key slot + 8-byte meta + 4-byte length). Shared with
/// `WriteBatch::approximate_bytes` so batch sizing matches buffer sizing.
pub(crate) const ENTRY_OVERHEAD: usize = 36;

#[derive(Debug, Default)]
struct MemShared {
    list: SkipList,
    /// Commit-group members currently inserting. Guarded by the protocol in
    /// `db/write.rs`: registration happens under the DB write lock, so once a
    /// rotation (holding that lock) observes zero it stays zero.
    appliers: AtomicUsize,
}

/// Concurrent sorted in-memory buffer of recent writes.
///
/// Cloning is cheap (an `Arc` bump) and clones share the same buffer —
/// this is what lets commit-group members keep inserting into a buffer the
/// writer lock has already moved on from.
#[derive(Debug, Clone, Default)]
pub struct MemTable {
    shared: Arc<MemShared>,
}

impl MemTable {
    /// New empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Apply a whole batch whose first operation commits at `first_seq`
    /// (operation `i` at `first_seq + i`) — the buffer's one insert path, and
    /// the one place a value is copied: from the batch into the list's value
    /// arena.
    /// Inserts are quiet — the shared `len`/`approx_bytes` counters are
    /// settled once per batch, not twice per entry, so parallel commit-group
    /// appliers don't serialize on the counter cache line.
    pub fn apply_batch(&self, ops: &[crate::batch::BatchOp], first_seq: SeqNo) {
        let mut bytes = 0usize;
        for (i, op) in ops.iter().enumerate() {
            let value: &[u8] = match op.kind {
                EntryKind::Put => &op.value,
                EntryKind::Delete => &[],
            };
            bytes += ENTRY_OVERHEAD + value.len();
            let key = InternalKey {
                user_key: op.key,
                seq: first_seq + i as SeqNo,
                kind: op.kind,
            };
            self.shared.list.insert_quiet(key, value);
        }
        self.shared.list.add_stats(ops.len(), bytes);
    }

    /// Newest version of `user_key` visible at `snapshot`:
    /// `None` = not in this buffer, `Some(None)` = deleted,
    /// `Some(Some(v))` = present.
    pub fn get(&self, user_key: u64, snapshot: SeqNo) -> Option<Option<&[u8]>> {
        let from = InternalKey {
            user_key,
            seq: snapshot,
            kind: EntryKind::Put,
        };
        let n = self.shared.list.find_ge(&from)?;
        if n.key().user_key != user_key {
            return None;
        }
        match n.key().kind {
            EntryKind::Put => Some(Some(n.value())),
            EntryKind::Delete => Some(None),
        }
    }

    /// A cursor over the buffer, live or sealed: for merge iteration and
    /// for the flush. It holds its own `Arc` to the buffer, so it outlives
    /// rotations.
    pub fn cursor(&self) -> MemCursor {
        MemCursor {
            mem: self.clone(),
            node: None,
        }
    }

    /// Approximate resident bytes.
    pub fn approximate_bytes(&self) -> usize {
        self.shared.list.approximate_bytes()
    }

    /// Number of records (versions, not distinct keys).
    pub fn len(&self) -> usize {
        self.shared.list.len()
    }

    /// Whether the buffer holds no records.
    pub fn is_empty(&self) -> bool {
        self.shared.list.is_empty()
    }

    /// Announce one commit-group member that will insert into this buffer.
    /// Must be called under the DB write lock (see `db/write.rs`) so that
    /// [`MemTable::wait_quiescent`], also under that lock, cannot race a
    /// late registration.
    pub(crate) fn register_applier(&self) {
        self.shared.appliers.fetch_add(1, Ordering::AcqRel);
    }

    /// The matching release for [`MemTable::register_applier`]; called after
    /// the member's inserts are all in the list.
    pub(crate) fn finish_applier(&self) {
        self.shared.appliers.fetch_sub(1, Ordering::AcqRel);
    }

    /// Spin until no commit-group member is mid-insert. Callers hold the DB
    /// write lock, which blocks new registrations, so this terminates.
    pub(crate) fn wait_quiescent(&self) {
        while self.shared.appliers.load(Ordering::Acquire) != 0 {
            std::thread::yield_now();
        }
    }
}

/// Cursor over a [`MemTable`]: `'static` (it owns an `Arc` to the buffer)
/// and re-seekable, which is what a [`Cursor`] needs.
pub struct MemCursor {
    mem: MemTable,
    /// Current node, `None` when exhausted / unpositioned. `'static` stands
    /// for "as long as `mem`": nothing borrowed from it leaves the cursor
    /// for longer than a borrow of the cursor.
    node: Option<Node<'static>>,
}

// SAFETY: `node` and the value it points at lie in the arenas `mem`'s `Arc`
// keeps alive, wherever the cursor moves; both are immutable after linking.
unsafe impl Send for MemCursor {}

impl MemCursor {
    /// Position on the node `find` picks from the buffer's list.
    fn position(&mut self, find: impl FnOnce(&SkipList) -> Option<Node<'_>>) {
        // SAFETY: `self.mem` keeps the list alive for as long as `self.node`
        // exists, and the list frees no node or value before it drops.
        self.node = find(&self.mem.shared.list).map(|n| unsafe { n.detach() });
    }
}

impl Cursor for MemCursor {
    fn seek(&mut self, key: u64) -> Result<()> {
        self.position(|list| list.find_ge(&InternalKey::seek_to(key)));
        Ok(())
    }

    fn seek_to_first(&mut self) {
        self.position(SkipList::front);
    }

    fn key(&mut self) -> Result<Option<InternalKey>> {
        Ok(self.node.map(|n| *n.key()))
    }

    fn value(&mut self) -> &[u8] {
        self.node.map(Node::value).unwrap_or_default()
    }

    fn advance(&mut self) {
        if let Some(n) = self.node {
            self.node = n.next0();
        }
    }
}

/// A sealed write buffer queued for flush (background maintenance): the
/// skiplist it was while it took writes, which the flush worker, readers,
/// iterators and snapshots share by handle. Its records are in the log
/// until the flush's manifest seal covers them; no name ties it to a log
/// file.
#[derive(Debug)]
pub struct ImmutableMemTable {
    /// The buffer. The rotation that sealed it quiesced it first
    /// (`MemTable::wait_quiescent`), and nothing inserts into it since.
    pub mem: MemTable,
    /// The sequence number of the first write claimed into the buffer.
    pub first: SeqNo,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::WriteBatch;
    use crate::skiplist::live_chunks;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BTreeMap;

    fn put(m: &MemTable, key: u64, seq: SeqNo, value: &[u8]) {
        m.apply_batch(WriteBatch::new().put(key, value).ops(), seq);
    }

    fn delete(m: &MemTable, key: u64, seq: SeqNo) {
        m.apply_batch(WriteBatch::new().delete(key).ops(), seq);
    }

    /// `(user key, seq)` of every record from the cursor's position on.
    fn keys_from(c: &mut MemCursor) -> Vec<(u64, SeqNo)> {
        let mut out = Vec::new();
        while let Some(key) = c.key().unwrap() {
            out.push((key.user_key, key.seq));
            c.advance();
        }
        out
    }

    #[test]
    fn newest_version_wins() {
        let m = MemTable::new();
        put(&m, 5, 1, b"old");
        put(&m, 5, 3, b"new");
        assert_eq!(m.get(5, u64::MAX >> 8), Some(Some(&b"new"[..])));
    }

    #[test]
    fn snapshot_reads_see_past() {
        let m = MemTable::new();
        put(&m, 5, 1, b"v1");
        put(&m, 5, 5, b"v5");
        assert_eq!(m.get(5, 1), Some(Some(&b"v1"[..])));
        assert_eq!(m.get(5, 4), Some(Some(&b"v1"[..])));
        assert_eq!(m.get(5, 5), Some(Some(&b"v5"[..])));
        assert_eq!(m.get(5, 0), None, "nothing visible before seq 1");
    }

    #[test]
    fn tombstone_reported_as_deleted() {
        let m = MemTable::new();
        put(&m, 7, 1, b"x");
        delete(&m, 7, 2);
        assert_eq!(m.get(7, u64::MAX >> 8), Some(None));
        assert_eq!(m.get(7, 1), Some(Some(&b"x"[..])));
    }

    #[test]
    fn absent_key_is_none() {
        let m = MemTable::new();
        assert_eq!(m.get(1, u64::MAX >> 8), None);
    }

    #[test]
    fn flush_order_is_key_asc_seq_desc() {
        let m = MemTable::new();
        put(&m, 2, 1, b"a");
        put(&m, 1, 2, b"b");
        put(&m, 1, 9, b"c");
        let mut c = m.cursor();
        c.seek_to_first();
        assert_eq!(keys_from(&mut c), vec![(1, 9), (1, 2), (2, 1)]);
    }

    #[test]
    fn size_tracks_values() {
        let m = MemTable::new();
        assert_eq!(m.approximate_bytes(), 0);
        put(&m, 1, 1, &[0u8; 100]);
        assert_eq!(m.approximate_bytes(), 136);
        delete(&m, 2, 2);
        assert_eq!(m.approximate_bytes(), 172);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn clones_share_one_buffer() {
        let a = MemTable::new();
        let b = a.clone();
        put(&b, 1, 1, b"via-clone");
        assert_eq!(a.get(1, u64::MAX >> 8), Some(Some(&b"via-clone"[..])));
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn cursor_survives_handle_drop() {
        let m = MemTable::new();
        put(&m, 1, 1, b"a");
        put(&m, 2, 2, b"b");
        let mut c = m.cursor();
        drop(m);
        let user_key = |c: &mut MemCursor| c.key().unwrap().map(|k| k.user_key);
        c.seek_to_first();
        assert_eq!(user_key(&mut c), Some(1));
        c.advance();
        assert_eq!(user_key(&mut c), Some(2));
        assert_eq!(c.value(), b"b");
        c.advance();
        assert_eq!(user_key(&mut c), None);
        c.seek(2).unwrap();
        assert_eq!(user_key(&mut c), Some(2));
    }

    /// The arena goes when the last handle does, whichever kind it is: a
    /// cursor that outlived every `MemTable` handle still reads its nodes,
    /// and dropping it returns every chunk.
    #[test]
    fn last_handle_returns_every_chunk() {
        let before = live_chunks::get();
        let m = MemTable::new();
        for k in 0..64u64 {
            put(&m, k, k + 1, &[k as u8; 500]);
        }
        let chunks = live_chunks::get() - before;
        assert!(chunks >= 4, "32 KiB of nodes span chunks: {chunks}");
        let mut c = m.cursor();
        drop(m);
        assert_eq!(
            live_chunks::get() - before,
            chunks,
            "the cursor holds the buffer"
        );
        c.seek(63).unwrap();
        assert_eq!(c.value(), &[63u8; 500]);
        drop(c);
        assert_eq!(live_chunks::get(), before);
    }

    #[test]
    fn freeze_preserves_contents() {
        let m = MemTable::new();
        put(&m, 1, 5, b"v5");
        put(&m, 1, 2, b"v2");
        delete(&m, 9, 7);
        let bytes = m.approximate_bytes();
        let imm = ImmutableMemTable {
            mem: m.clone(),
            first: 2,
        };
        drop(m);
        assert_eq!(imm.mem.approximate_bytes(), bytes);
        assert_eq!(imm.mem.len(), 3);
        // Read the way a `ReadView` reads a queued buffer.
        assert_eq!(imm.mem.get(1, MAX_VISIBLE), Some(Some(&b"v5"[..])));
        assert_eq!(imm.mem.get(1, 2), Some(Some(&b"v2"[..])));
        assert_eq!(imm.mem.get(9, MAX_VISIBLE), Some(None), "tombstone");
        assert_eq!(imm.mem.get(4, MAX_VISIBLE), None);
    }

    const MAX_VISIBLE: SeqNo = u64::MAX >> 8;

    #[test]
    fn range_from_seeks_mid_key() {
        let m = MemTable::new();
        for k in 0..10u64 {
            put(&m, k, k + 1, b"v");
        }
        let mut c = m.cursor();
        c.seek(5).unwrap();
        assert_eq!(keys_from(&mut c)[0], (5, 6), "entries from 5");
    }

    #[test]
    fn parallel_appliers_land_every_record() {
        let m = MemTable::new();
        let threads: Vec<_> = (0..4u64)
            .map(|t| {
                let mem = m.clone();
                mem.register_applier();
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        put(&mem, i * 4 + t, i * 4 + t + 1, b"v");
                    }
                    mem.finish_applier();
                })
            })
            .collect();
        m.wait_quiescent();
        for h in threads {
            h.join().unwrap();
        }
        assert_eq!(m.len(), 2000);
        let mut c = m.cursor();
        c.seek_to_first();
        let keys = keys_from(&mut c);
        assert_eq!(keys.len(), 2000);
        for w in keys.windows(2) {
            assert!(w[0].0 < w[1].0, "sorted after concurrent inserts");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random puts, empty values and tombstones over a few keys, applied
        /// in batches of five with values long enough to cross chunk edges:
        /// `get` at random snapshots and a full cursor walk agree with a
        /// `BTreeMap` in internal-key order.
        #[test]
        fn get_and_cursor_agree_with_a_btreemap(
            ops in prop::collection::vec((0u64..24, 0u8..5, 0usize..2_000), 1..160),
            probes in prop::collection::vec((0u64..26, 0u64..170), 40),
        ) {
            let m = MemTable::new();
            let mut model: BTreeMap<(u64, Reverse<SeqNo>), Option<Vec<u8>>> = BTreeMap::new();
            for (i, chunk) in ops.chunks(5).enumerate() {
                let first_seq = (i * 5 + 1) as SeqNo;
                let mut batch = WriteBatch::new();
                for (j, &(key, kind, len)) in chunk.iter().enumerate() {
                    let seq = first_seq + j as SeqNo;
                    let value = match kind {
                        0 => None,
                        1 => Some(Vec::new()),
                        _ => Some(vec![seq as u8; len]),
                    };
                    match &value {
                        None => batch.delete(key),
                        Some(v) => batch.put(key, v),
                    };
                    model.insert((key, Reverse(seq)), value);
                }
                m.apply_batch(batch.ops(), first_seq);
            }
            prop_assert_eq!(m.len(), model.len());
            for &(key, snapshot) in &probes {
                let want = model
                    .range((key, Reverse(snapshot))..=(key, Reverse(0)))
                    .next()
                    .map(|(_, v)| v.as_deref());
                prop_assert_eq!(m.get(key, snapshot), want, "key {} at {}", key, snapshot);
            }
            let mut c = m.cursor();
            c.seek_to_first();
            for (&(key, Reverse(seq)), value) in &model {
                let at = c.key().unwrap().expect("the cursor ends with the model");
                prop_assert_eq!((at.user_key, at.seq), (key, seq));
                prop_assert_eq!(at.kind == EntryKind::Delete, value.is_none());
                prop_assert_eq!(c.value(), value.as_deref().unwrap_or_default());
                c.advance();
            }
            prop_assert_eq!(c.key().unwrap(), None);
        }
    }
}
