//! Lock-free concurrent skiplist — the memtable's ordered core.
//!
//! LevelDB's memtable is a skiplist precisely because a skiplist takes
//! concurrent inserts with nothing more than per-pointer CAS loops: group
//! members of the pipelined commit protocol ([`crate::db`]) insert their
//! batches **in parallel, outside the write lock**, which is what converts
//! the write path from "one core per tree" to "all cores per tree".
//!
//! The structure is deliberately *insert-only*:
//!
//! * overwrites and deletes are new entries at higher sequence numbers
//!   (tombstones are entries like any other), so nothing is ever unlinked —
//!   no node is freed until the whole list drops, which removes the entire
//!   ABA/reclamation problem a general lock-free list has to solve;
//! * readers traverse with plain `Acquire` loads and never take a lock; a
//!   cursor stays valid indefinitely because the nodes it points at can
//!   neither move nor die while the list is alive (the owning
//!   [`crate::memtable::MemTable`] is `Arc`-shared for exactly this reason);
//! * visibility of *partially applied* write groups is not this module's
//!   problem: entries above the published sequence ceiling are filtered by
//!   the read paths (the fence-publish discipline in [`crate::db`]), so the
//!   list may contain in-flight entries at any time.
//!
//! Towers are linked bottom-up with `compare_exchange` per level; a lost
//! race re-finds the splice at that level only. Keys are [`InternalKey`]s
//! (user key asc, seq desc), identical to the `BTreeMap` encoding this
//! replaces, so a flush walks level 0 in SSTable order. Nothing here copies an
//! entry out: readers, cursors and the flush borrow keys and values from the
//! nodes ([`crate::memtable::MemCursor`]).

use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};

use crate::types::InternalKey;

/// Maximum tower height. With branching factor 4 (LevelDB's choice),
/// 12 levels comfortably cover hundreds of millions of entries.
const MAX_HEIGHT: usize = 12;

/// One node: an immutable `(key, value)` pair plus its forward tower.
/// Nodes are heap-allocated raw and freed only by [`SkipList::drop`].
pub(crate) struct Node {
    key: InternalKey,
    value: Vec<u8>,
    /// Forward pointers, level 0 at index 0. Slots above the node's drawn
    /// height stay null and are never traversed.
    next: [AtomicPtr<Node>; MAX_HEIGHT],
}

impl Node {
    fn alloc(key: InternalKey, value: Vec<u8>) -> *mut Node {
        Box::into_raw(Box::new(Node {
            key,
            value,
            next: Default::default(),
        }))
    }

    pub(crate) fn key(&self) -> &InternalKey {
        &self.key
    }

    pub(crate) fn value(&self) -> &[u8] {
        &self.value
    }

    /// Successor at level 0 (cursor traversal).
    pub(crate) fn next0(&self) -> *mut Node {
        self.next[0].load(Ordering::Acquire)
    }
}

/// Lock-free insert-only skiplist over [`InternalKey`]s.
///
/// All operations take `&self`; concurrent `insert`s and traversals are
/// safe. See the module docs for the reclamation argument.
pub struct SkipList {
    /// Sentinel head; its key is never read.
    head: *mut Node,
    /// Current maximum tower height in use.
    height: AtomicUsize,
    /// Entry count (records, including versions).
    len: AtomicUsize,
    /// Approximate resident bytes (entry overhead + value bytes).
    approx_bytes: AtomicUsize,
}

// SAFETY: nodes are reached only through atomic pointers with
// Acquire/Release ordering; node payloads are immutable after linking and
// are `Send`. Nothing is freed before the list itself drops.
unsafe impl Send for SkipList {}
unsafe impl Sync for SkipList {}

impl Default for SkipList {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for SkipList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SkipList")
            .field("len", &self.len())
            .field("approx_bytes", &self.approximate_bytes())
            .finish()
    }
}

impl SkipList {
    /// New empty list.
    pub fn new() -> Self {
        SkipList {
            head: Node::alloc(InternalKey::seek_to(0), Vec::new()),
            height: AtomicUsize::new(1),
            len: AtomicUsize::new(0),
            approx_bytes: AtomicUsize::new(0),
        }
    }

    /// Tower height for `key`: level `h+1` with probability 1/4 per level,
    /// LevelDB's branching factor. The height is a pure SplitMix-style hash
    /// of the internal key — `(user_key, seq)` pairs are unique, so heights
    /// stay geometrically distributed, and deriving them locally avoids a
    /// shared PRNG cell that every concurrent insert would contend on.
    fn height_for(key: &InternalKey) -> usize {
        let mut x = key.user_key.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ key.seq.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        let mut h = 1;
        while h < MAX_HEIGHT && x & 3 == 0 {
            h += 1;
            x >>= 2;
        }
        h
    }

    /// Insert `(key, value)`. Insert-only: an overwrite is a new entry at a
    /// new sequence number, so duplicates of `key` never arise in correct
    /// use (and would merely coexist if they did).
    ///
    /// Quiet: the shared `len` / `approx_bytes` counters are not touched.
    /// Batch appliers link a whole write group with zero counter traffic,
    /// then settle the accounting with one [`add_stats`](Self::add_stats)
    /// call — under many concurrent writers a per-entry `fetch_add` is
    /// cache-line ping-pong that serializes the otherwise parallel apply
    /// phase.
    pub fn insert_quiet(&self, key: InternalKey, value: Vec<u8>) {
        let height = Self::height_for(&key);
        // Raise the list height first; a racing taller insert is fine —
        // `fetch_max` keeps the larger.
        self.height.fetch_max(height, Ordering::Relaxed);
        let node = Node::alloc(key, value);
        // Link bottom-up so a node reachable at any level is reachable at
        // every level below it (searches descend, never ascend).
        for level in 0..height {
            loop {
                let (pred, succ) = self.find_splice(&key, level);
                // SAFETY: `node` is ours until the CAS below publishes it;
                // `pred` is a live node (nothing is ever freed).
                unsafe {
                    (*node).next[level].store(succ, Ordering::Relaxed);
                    if (*pred).next[level]
                        .compare_exchange(succ, node, Ordering::Release, Ordering::Relaxed)
                        .is_ok()
                    {
                        break;
                    }
                }
                // Lost the race at this level: re-find the splice and retry.
            }
        }
    }

    /// Credit `n` entries and `bytes` resident bytes to the list's
    /// counters. Pairs with [`insert_quiet`](Self::insert_quiet): one call
    /// per applied batch instead of two `fetch_add`s per entry.
    pub fn add_stats(&self, n: usize, bytes: usize) {
        self.len.fetch_add(n, Ordering::Relaxed);
        self.approx_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// The predecessor/successor pair bracketing `key` at `level`
    /// (predecessor strictly less; successor first node ≥ `key`, possibly
    /// null).
    fn find_splice(&self, key: &InternalKey, level: usize) -> (*mut Node, *mut Node) {
        let mut pred = self.head;
        let mut l = self.height.load(Ordering::Relaxed).max(level + 1) - 1;
        loop {
            // SAFETY: `pred` is the head or a linked node; both outlive `&self`.
            let next = unsafe { (*pred).next[l].load(Ordering::Acquire) };
            if !next.is_null() && unsafe { (*next).key < *key } {
                pred = next;
            } else if l == level {
                return (pred, next);
            } else {
                l -= 1;
            }
        }
    }

    /// First node with key ≥ `key` (null when past the end).
    pub(crate) fn find_ge(&self, key: &InternalKey) -> *mut Node {
        self.find_splice(key, 0).1
    }

    /// First node of the list (null when empty).
    pub(crate) fn front(&self) -> *mut Node {
        // SAFETY: head outlives `&self`.
        unsafe { (*self.head).next0() }
    }

    /// Number of records (versions, not distinct keys).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Whether the list holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Caller-accounted approximate resident bytes.
    pub fn approximate_bytes(&self) -> usize {
        self.approx_bytes.load(Ordering::Relaxed)
    }
}

impl Drop for SkipList {
    fn drop(&mut self) {
        // Exclusive access: free the level-0 chain, which reaches every
        // node (towers share the same allocations).
        let mut cur = self.head;
        while !cur.is_null() {
            // SAFETY: each node was allocated by `Node::alloc` and is freed
            // exactly once here.
            let next = unsafe { (*cur).next0() };
            drop(unsafe { Box::from_raw(cur) });
            cur = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Entry, EntryKind, SeqNo};
    use std::sync::Arc;

    /// Every entry from `node` on, in list order.
    fn entries_from(_list: &SkipList, mut node: *mut Node) -> Vec<Entry> {
        let mut out = Vec::new();
        // SAFETY: non-null nodes are live as long as the list is borrowed.
        while let Some(n) = unsafe { node.as_ref() } {
            let (key, value) = (*n.key(), n.value().to_vec());
            out.push(Entry { key, value });
            node = n.next0();
        }
        out
    }

    fn entries(list: &SkipList) -> Vec<Entry> {
        entries_from(list, list.front())
    }

    fn insert(l: &SkipList, key: InternalKey, value: Vec<u8>, bytes: usize) {
        l.insert_quiet(key, value);
        l.add_stats(1, bytes);
    }

    fn key(user_key: u64, seq: SeqNo) -> InternalKey {
        InternalKey {
            user_key,
            seq,
            kind: EntryKind::Put,
        }
    }

    #[test]
    fn sorted_iteration_key_asc_seq_desc() {
        let l = SkipList::new();
        insert(&l, key(2, 1), b"a".to_vec(), 1);
        insert(&l, key(1, 2), b"b".to_vec(), 1);
        insert(&l, key(1, 9), b"c".to_vec(), 1);
        let got: Vec<(u64, SeqNo)> = entries(&l)
            .iter()
            .map(|e| (e.key.user_key, e.key.seq))
            .collect();
        assert_eq!(got, vec![(1, 9), (1, 2), (2, 1)]);
        assert_eq!(l.len(), 3);
        assert_eq!(l.approximate_bytes(), 3);
    }

    #[test]
    fn find_ge_seeks_mid_list() {
        let l = SkipList::new();
        for k in (0..100u64).rev() {
            insert(&l, key(k, k + 1), vec![k as u8], 1);
        }
        let from_37 = entries_from(&l, l.find_ge(&InternalKey::seek_to(37)));
        assert_eq!(from_37[0].key.user_key, 37);
        assert!(l.find_ge(&InternalKey::seek_to(1000)).is_null());
    }

    #[test]
    fn empty_list_behaves() {
        let l = SkipList::new();
        assert!(l.is_empty());
        assert!(entries(&l).is_empty());
        assert!(l.front().is_null());
    }

    #[test]
    fn concurrent_inserts_all_land_sorted() {
        let list = Arc::new(SkipList::new());
        let threads = 8;
        let per = 2_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let l = Arc::clone(&list);
                std::thread::spawn(move || {
                    for i in 0..per {
                        // Interleave key ranges across threads so CAS races
                        // actually happen on shared splices.
                        let k = i * threads + t;
                        insert(&l, key(k, k + 1), k.to_le_bytes().to_vec(), 8);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let n = threads * per;
        assert_eq!(list.len() as u64, n);
        let entries = entries(&list);
        assert_eq!(entries.len() as u64, n);
        for (i, e) in entries.iter().enumerate() {
            assert_eq!(e.key.user_key, i as u64, "dense sorted keys");
            assert_eq!(e.value, (i as u64).to_le_bytes().to_vec());
        }
        for w in entries.windows(2) {
            assert!(w[0].key < w[1].key, "strictly sorted");
        }
    }
}
