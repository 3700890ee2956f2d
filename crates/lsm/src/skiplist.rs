//! Lock-free concurrent skiplist in an arena — the memtable's ordered core.
//!
//! LevelDB's memtable is a skiplist precisely because a skiplist takes
//! concurrent inserts with nothing more than per-pointer CAS loops: group
//! members of the pipelined commit protocol (`crates/lsm/src/db/write.rs`)
//! insert their batches **in parallel, outside the write lock**, which is
//! what converts the write path from "one core per tree" to "all cores per
//! tree". It is a skiplist *in an arena* because a write buffer is built
//! once, read for a while and thrown away whole: a node is one bump
//! allocation — header, exactly as many tower slots as its height, then the
//! value bytes — so an insert copies its value once and calls no allocator,
//! and dropping the list frees a handful of chunks without visiting a node.
//!
//! The structure is deliberately *insert-only*:
//!
//! * overwrites and deletes are new entries at higher sequence numbers
//!   (tombstones are entries like any other), so nothing is ever unlinked
//!   and no chunk is freed until the whole list drops — every node pointer a
//!   traversal can load stays valid for as long as the list does, which
//!   removes the entire ABA/reclamation problem a general lock-free list has
//!   to solve. A full chunk is never freed or reused either: it is replaced
//!   as the *current* one and stays on the chain `Drop` walks;
//! * readers traverse with plain `Acquire` loads and never take a lock; a
//!   cursor stays valid indefinitely because the nodes it points at can
//!   neither move nor die while the list is alive (the owning
//!   [`crate::memtable::MemTable`] is `Arc`-shared for exactly this reason);
//! * visibility of *partially applied* write groups is not this module's
//!   problem: entries above the published sequence ceiling are filtered by
//!   the read paths (the fence-publish discipline in
//!   `crates/lsm/src/db/write.rs`), so the list may contain in-flight
//!   entries at any time.
//!
//! An insert finds its splice at every level in one descent, then links the
//! tower bottom-up with one `compare_exchange` per level; a lost race walks
//! on from that level's predecessor only. Keys are [`InternalKey`]s (user
//! key asc, seq desc) — SSTable order, so a flush walks level 0 straight
//! into the table builder. Nothing here copies an entry out: readers,
//! cursors and the flush borrow keys and values from the nodes
//! ([`crate::memtable::MemCursor`]).

use std::alloc::{alloc_zeroed, dealloc, handle_alloc_error, Layout};
use std::marker::PhantomData;
use std::mem::size_of;
use std::ptr::{self, NonNull};
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::types::InternalKey;

/// Maximum tower height. With branching factor 4 (LevelDB's choice),
/// 12 levels comfortably cover hundreds of millions of entries.
const MAX_HEIGHT: usize = 12;

/// Chunk sizes: the first is `MIN_CHUNK`, each next one twice the last up to
/// `MAX_CHUNK` — a 16 KiB test buffer costs kilobytes, the paper's 64 MiB
/// buffer a few dozen allocations.
const MIN_CHUNK: usize = 4 << 10;
const MAX_CHUNK: usize = 1 << 20;

/// Every node starts on, and is sized in multiples of, this many bytes (the
/// alignment of [`Header`] and of a tower slot).
const NODE_ALIGN: usize = 8;

/// The head of one arena allocation; node bytes follow it. It has a cache
/// line to itself: `used` is written by every insert, the nodes behind it
/// are read by every search.
#[repr(C, align(64))]
struct Chunk {
    /// Bytes handed out, this header included. A bump that does not fit is
    /// not undone, so a full chunk reads past `size`.
    used: AtomicUsize,
    /// Bytes in the whole allocation.
    size: usize,
    /// The chunk this one replaced (null for the first): the chain `Drop`
    /// frees.
    prev: *mut Chunk,
}

impl Chunk {
    fn layout(size: usize) -> Layout {
        Layout::from_size_align(size, std::mem::align_of::<Chunk>())
            .expect("a chunk's size fits a Layout")
    }

    /// A zeroed chunk of `size` bytes in all (a fresh tower is null without
    /// being written).
    fn alloc(size: usize, prev: *mut Chunk) -> *mut Chunk {
        let layout = Self::layout(size);
        // SAFETY: `size` covers at least this header, so it is not zero.
        let chunk = unsafe { alloc_zeroed(layout) }.cast::<Chunk>();
        if chunk.is_null() {
            handle_alloc_error(layout);
        }
        let used = AtomicUsize::new(size_of::<Chunk>());
        // SAFETY: freshly allocated for `layout`, which fits and aligns a
        // `Chunk`; nothing else can reach it yet.
        unsafe { chunk.write(Chunk { used, size, prev }) };
        #[cfg(test)]
        live_chunks::add(1);
        chunk
    }
}

/// Bump allocator the nodes live in: memory is handed out, never taken
/// back, and freed all at once when the list drops.
struct Arena {
    /// The chunk allocations are carved from.
    current: AtomicPtr<Chunk>,
    /// Size of the next chunk. `current` is replaced under this lock, by
    /// whichever inserter finds the chunk full first; carving takes no lock.
    next_size: Mutex<usize>,
}

impl Arena {
    fn new() -> Arena {
        Arena {
            current: AtomicPtr::new(Chunk::alloc(MIN_CHUNK, ptr::null_mut())),
            next_size: Mutex::new(2 * MIN_CHUNK),
        }
    }

    /// `size` zeroed bytes at `NODE_ALIGN`, the caller's alone, live until
    /// the arena drops.
    fn alloc(&self, size: usize) -> *mut u8 {
        debug_assert!(size & (NODE_ALIGN - 1) == 0);
        loop {
            // Acquire: pairs with `grow`'s Release store, so the new chunk's
            // header is written before we read it.
            let chunk = self.current.load(Ordering::Acquire);
            // SAFETY: a chunk, once installed, is live until the arena drops.
            // Relaxed: `used` only divides the chunk between inserters; the
            // bytes are published by the CAS that links the node.
            let (offset, capacity) = unsafe {
                (
                    (*chunk).used.fetch_add(size, Ordering::Relaxed),
                    (*chunk).size,
                )
            };
            if offset <= capacity && size <= capacity - offset {
                // SAFETY: `offset..offset + size` lies inside the chunk, and
                // the `fetch_add` gave that range to this call only.
                return unsafe { chunk.cast::<u8>().add(offset) };
            }
            self.grow(chunk, size);
        }
    }

    /// Replace `full` as the current chunk by one that fits `size` bytes,
    /// unless another inserter already has.
    fn grow(&self, full: *mut Chunk, size: usize) {
        let mut next_size = self
            .next_size
            .lock()
            .expect("no panic under the arena lock");
        // Relaxed: the lock orders this load after any other grower's store.
        if self.current.load(Ordering::Relaxed) != full {
            return;
        }
        // A request larger than the schedule gets a chunk of its own size.
        let chunk = Chunk::alloc((*next_size).max(size_of::<Chunk>() + size), full);
        *next_size = (*next_size * 2).min(MAX_CHUNK);
        // Release: pairs with `alloc`'s Acquire load (the header above).
        self.current.store(chunk, Ordering::Release);
    }
}

impl Drop for Arena {
    fn drop(&mut self) {
        let mut chunk = *self.current.get_mut();
        while !chunk.is_null() {
            // SAFETY: `&mut self` — no inserter or reader is left; every
            // chunk on the chain came from `Chunk::alloc` with this layout
            // and is freed exactly once here.
            unsafe {
                let (prev, size) = ((*chunk).prev, (*chunk).size);
                dealloc(chunk.cast(), Chunk::layout(size));
                chunk = prev;
            }
            #[cfg(test)]
            live_chunks::add(-1);
        }
    }
}

/// What a node starts with. In the arena it is followed by `height` tower
/// slots (`AtomicPtr<Header>`, level 0 first) and then `value_len` value
/// bytes. A `&Header` covers the header alone, so the tower and the value
/// are only ever reached from the node's raw pointer ([`slot`],
/// [`Node::value`]), which carries the whole chunk's provenance.
#[repr(C)]
struct Header {
    key: InternalKey,
    value_len: u32,
    height: u32,
}

const _: () = assert!(size_of::<Header>() & (NODE_ALIGN - 1) == 0);

/// Tower slot `level` of `node`.
///
/// # Safety
/// `node` points at a node of a live arena whose header has been written.
unsafe fn slot<'a>(node: *mut Header, level: usize) -> &'a AtomicPtr<Header> {
    // SAFETY: the caller's contract — the header is readable, and a slot
    // below its `height` lies in the node's own allocation, right behind it.
    unsafe {
        debug_assert!(level < (*node).height as usize);
        &*node.add(1).cast::<AtomicPtr<Header>>().add(level)
    }
}

/// The last node before `key` at `level` and its successor there (the first
/// node ≥ `key`, possibly null), walking on from `pred`.
///
/// # Safety
/// `pred` is the head or a linked node of a live list, is taller than
/// `level`, and sorts before `key`.
unsafe fn walk(
    mut pred: *mut Header,
    level: usize,
    key: &InternalKey,
) -> (*mut Header, *mut Header) {
    loop {
        // SAFETY: `pred` is linked and taller than `level` — the caller's
        // contract at first, then because it was reached through a level
        // `level` pointer. Acquire: pairs with the Release CAS that linked
        // `next`, so its header and lower tower are written before the key
        // is read through it.
        let next = unsafe { slot(pred, level) }.load(Ordering::Acquire);
        // SAFETY: a non-null slot holds a linked node; nothing is freed.
        if next.is_null() || unsafe { (*next).key >= *key } {
            return (pred, next);
        }
        pred = next;
    }
}

/// A linked node, borrowed from its list: an immutable `(key, value)` pair.
#[derive(Clone, Copy)]
pub(crate) struct Node<'a> {
    ptr: NonNull<Header>,
    list: PhantomData<&'a SkipList>,
}

impl<'a> Node<'a> {
    /// # Safety
    /// `ptr` is null or a linked node of a list that outlives `'a`.
    unsafe fn new(ptr: *mut Header) -> Option<Node<'a>> {
        let list = PhantomData;
        NonNull::new(ptr).map(|ptr| Node { ptr, list })
    }

    /// The same node, no longer tied to a borrow of its list.
    ///
    /// # Safety
    /// The caller keeps the list alive for as long as it uses the result
    /// (and whatever it borrows from it).
    pub(crate) unsafe fn detach(self) -> Node<'static> {
        let (ptr, list) = (self.ptr, PhantomData);
        Node { ptr, list }
    }

    pub(crate) fn key(self) -> &'a InternalKey {
        // SAFETY: a linked node's header is immutable and lives for `'a`.
        unsafe { &(*self.ptr.as_ptr()).key }
    }

    pub(crate) fn value(self) -> &'a [u8] {
        let node = self.ptr.as_ptr();
        // SAFETY: `insert_quiet` laid the node out as header, `height` slots,
        // `value_len` bytes, in one chunk, before linking it; none of it is
        // written again.
        unsafe {
            let tower = node.add(1).cast::<AtomicPtr<Header>>();
            let value = tower.add((*node).height as usize).cast::<u8>();
            std::slice::from_raw_parts(value, (*node).value_len as usize)
        }
    }

    /// Successor at level 0 (cursor traversal).
    pub(crate) fn next0(self) -> Option<Node<'a>> {
        // SAFETY: `self` is a linked node; whatever its slot holds is null or
        // linked too. Acquire: as in `walk`.
        unsafe { Node::new(slot(self.ptr.as_ptr(), 0).load(Ordering::Acquire)) }
    }
}

/// Lock-free insert-only skiplist over [`InternalKey`]s.
///
/// All operations take `&self`; concurrent `insert`s and traversals are
/// safe. See the module docs for the reclamation argument.
pub struct SkipList {
    /// Sentinel head, `MAX_HEIGHT` tall; its key is never read.
    head: *mut Header,
    /// Current maximum tower height in use.
    height: AtomicUsize,
    /// Entry count (records, including versions).
    len: AtomicUsize,
    /// Approximate resident bytes as the callers account them (entry
    /// overhead + value bytes) — not what the arena holds.
    approx_bytes: AtomicUsize,
    /// Where `head` and every node live. Nothing is freed before it drops.
    arena: Arena,
}

// SAFETY: `head` and the chunk pointers inside `arena` own their memory
// (freed in `Arena::drop` only), so the list can move between threads; nodes
// are reached only through atomic pointers with Acquire/Release ordering,
// node payloads are immutable plain bytes after linking, and the arena's
// bump is atomic, so `&SkipList` can be shared.
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
        let arena = Arena::new();
        SkipList {
            head: Self::new_node(&arena, InternalKey::seek_to(0), MAX_HEIGHT, &[]),
            height: AtomicUsize::new(1),
            len: AtomicUsize::new(0),
            approx_bytes: AtomicUsize::new(0),
            arena,
        }
    }

    /// An unlinked node in `arena`: header written, `value` copied in, every
    /// tower slot null.
    fn new_node(arena: &Arena, key: InternalKey, height: usize, value: &[u8]) -> *mut Header {
        // The table and log formats carry a value's length in 4 bytes too.
        let value_len = u32::try_from(value.len()).expect("a value is shorter than 4 GiB");
        let tower = height * size_of::<AtomicPtr<Header>>();
        let size = size_of::<Header>() + tower + value.len().next_multiple_of(NODE_ALIGN);
        let node = arena.alloc(size).cast::<Header>();
        // SAFETY: `size` zeroed bytes at `node`, aligned for a `Header`, are
        // this call's alone; the value's place starts `tower` bytes past the
        // header and `size` leaves room for all of it.
        unsafe {
            node.write(Header {
                key,
                value_len,
                height: height as u32,
            });
            let dst = node.add(1).cast::<u8>().add(tower);
            ptr::copy_nonoverlapping(value.as_ptr(), dst, value.len());
        }
        node
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

    /// Insert `(key, value)`, copying `value` into the new node. Insert-only:
    /// an overwrite is a new entry at a new sequence number, so duplicates of
    /// `key` never arise in correct use (and would merely coexist if they
    /// did).
    ///
    /// Quiet: the shared `len` / `approx_bytes` counters are not touched.
    /// Batch appliers link a whole write group with zero counter traffic,
    /// then settle the accounting with one [`add_stats`](Self::add_stats)
    /// call — under many concurrent writers a per-entry `fetch_add` is
    /// cache-line ping-pong that serializes the otherwise parallel apply
    /// phase.
    pub fn insert_quiet(&self, key: InternalKey, value: &[u8]) {
        let height = Self::height_for(&key);
        // Raise the list height first; a racing taller insert is fine —
        // `fetch_max` keeps the larger. Relaxed: the height is a hint for
        // where descents start; levels above what a search sees are skipped,
        // never misread.
        let top = self.height.fetch_max(height, Ordering::Relaxed).max(height);
        let node = Self::new_node(&self.arena, key, height, value);
        // One descent finds the splice at every level the tower will use.
        let mut splice = [(self.head, ptr::null_mut()); MAX_HEIGHT];
        let mut pred = self.head;
        for level in (0..top).rev() {
            // SAFETY: `pred` is the head (taller than any level) or a node
            // found before `key` at a level above this one.
            splice[level] = unsafe { walk(pred, level, &key) };
            pred = splice[level].0;
        }
        // Link bottom-up so a node reachable at any level is reachable at
        // every level below it (searches descend, never ascend).
        for (level, at) in splice.iter_mut().enumerate().take(height) {
            loop {
                let (pred, succ) = *at;
                // SAFETY: `node` is ours until the CAS below publishes it;
                // `pred` is a live node (nothing is ever freed) that was
                // found at `level`, so it is that tall.
                unsafe {
                    // Relaxed: published by the Release CAS that follows.
                    slot(node, level).store(succ, Ordering::Relaxed);
                    // Release: the node's header, value and lower levels are
                    // written before a reader can load this pointer. Failure
                    // Relaxed: the retry reloads through `walk`.
                    if slot(pred, level)
                        .compare_exchange(succ, node, Ordering::Release, Ordering::Relaxed)
                        .is_ok()
                    {
                        break;
                    }
                    // Lost the race at this level: the splice moved on
                    // between `pred` and `key`, so walk on from `pred`.
                    *at = walk(pred, level, &key);
                }
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

    /// First node with key ≥ `key` (`None` when past the end).
    pub(crate) fn find_ge(&self, key: &InternalKey) -> Option<Node<'_>> {
        let mut at = (self.head, ptr::null_mut());
        // Relaxed: a stale height only starts the descent a level low.
        for level in (0..self.height.load(Ordering::Relaxed)).rev() {
            // SAFETY: as in `insert_quiet`'s descent.
            at = unsafe { walk(at.0, level, key) };
        }
        // SAFETY: a successor is null or a linked node of this list.
        unsafe { Node::new(at.1) }
    }

    /// First node of the list (`None` when empty).
    pub(crate) fn front(&self) -> Option<Node<'_>> {
        // SAFETY: head outlives `&self`; Acquire as in `walk`.
        unsafe { Node::new(slot(self.head, 0).load(Ordering::Acquire)) }
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

/// Arena chunks allocated and not yet freed, counted per thread (tests run
/// side by side): what shows that a dropped list returns every chunk.
#[cfg(test)]
pub(crate) mod live_chunks {
    use std::cell::Cell;

    thread_local! {
        static BALANCE: Cell<isize> = const { Cell::new(0) };
    }

    pub(super) fn add(chunks: isize) {
        BALANCE.set(BALANCE.get() + chunks);
    }

    /// Chunks this thread allocated minus chunks it freed.
    pub(crate) fn get() -> isize {
        BALANCE.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Entry, EntryKind, SeqNo};
    use std::sync::Arc;

    /// Every entry from `node` on, in list order.
    fn entries_from(mut node: Option<Node<'_>>) -> Vec<Entry> {
        let mut out = Vec::new();
        while let Some(n) = node {
            let (key, value) = (*n.key(), n.value().to_vec());
            out.push(Entry { key, value });
            node = n.next0();
        }
        out
    }

    fn entries(list: &SkipList) -> Vec<Entry> {
        entries_from(list.front())
    }

    fn insert(l: &SkipList, key: InternalKey, value: &[u8], bytes: usize) {
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
        insert(&l, key(2, 1), b"a", 1);
        insert(&l, key(1, 2), b"b", 1);
        insert(&l, key(1, 9), b"c", 1);
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
            insert(&l, key(k, k + 1), &[k as u8], 1);
        }
        let from_37 = entries_from(l.find_ge(&InternalKey::seek_to(37)));
        assert_eq!(from_37[0].key.user_key, 37);
        assert!(l.find_ge(&InternalKey::seek_to(1000)).is_none());
    }

    #[test]
    fn empty_list_behaves() {
        let l = SkipList::new();
        assert!(l.is_empty());
        assert!(entries(&l).is_empty());
        assert!(l.front().is_none());
    }

    /// `threads` threads, released together, insert interleaved keys
    /// `i * threads + t` whose values `value_of` gives; every record must
    /// land, sorted, with its value intact.
    fn insert_concurrently(threads: u64, per: u64, value_of: fn(u64) -> Vec<u8>) {
        let list = SkipList::new();
        let start = std::sync::Barrier::new(threads as usize);
        std::thread::scope(|s| {
            for t in 0..threads {
                let (list, start) = (&list, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..per {
                        // Interleave key ranges across threads so CAS races
                        // actually happen on shared splices.
                        let k = i * threads + t;
                        insert(list, key(k, k + 1), &value_of(k), 8);
                    }
                });
            }
        });
        let n = threads * per;
        assert_eq!(list.len() as u64, n);
        let entries = entries(&list);
        assert_eq!(entries.len() as u64, n);
        for (i, e) in entries.iter().enumerate() {
            assert_eq!(e.key.user_key, i as u64, "dense sorted keys");
            assert_eq!(e.value, value_of(i as u64));
        }
        for w in entries.windows(2) {
            assert!(w[0].key < w[1].key, "strictly sorted");
        }
    }

    #[test]
    fn concurrent_inserts_all_land_sorted() {
        let per = if cfg!(miri) { 100 } else { 2_000 };
        insert_concurrently(8, per, |k| k.to_le_bytes().to_vec());
    }

    /// Values a little over half the largest chunk: no two nodes share a
    /// chunk, so every insert finds the current chunk full and the eight
    /// threads race to install the next one.
    #[test]
    fn concurrent_inserts_across_chunk_edges() {
        for _ in 0..if cfg!(miri) { 1 } else { 4 } {
            insert_concurrently(8, 4, |k| vec![k as u8; MAX_CHUNK / 2 + k as usize]);
        }
    }

    #[test]
    fn a_value_larger_than_any_chunk_gets_its_own() {
        let before = live_chunks::get();
        let l = SkipList::new();
        let big: Vec<u8> = (0..3 * MAX_CHUNK + 5).map(|i| (i % 251) as u8).collect();
        insert(&l, key(1, 1), b"small", 5);
        insert(&l, key(2, 2), &big, big.len());
        assert_eq!(
            live_chunks::get() - before,
            2,
            "the first chunk and the value's"
        );
        insert(&l, key(3, 3), b"", 0);
        let got = entries(&l);
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].value, b"small");
        assert_eq!(got[1].value, big);
        assert_eq!(got[2].value, b"");
        assert_eq!(
            live_chunks::get() - before,
            3,
            "the next insert opened a new chunk"
        );
    }

    #[test]
    fn chunks_grow_geometrically_and_drop_returns_every_one() {
        let before = live_chunks::get();
        let l = SkipList::new();
        assert_eq!(
            live_chunks::get() - before,
            1,
            "an empty list is one 4 KiB chunk"
        );
        // Just under 4 MiB of nodes: 4 + 8 + … + 512 KiB is eight chunks and
        // the first MiB, then three chunks of 1 MiB.
        for k in 0..4096u64 {
            insert(&l, key(k, k + 1), &[0u8; 1024 - 48], 1024);
        }
        let chunks = live_chunks::get() - before;
        assert_eq!(chunks, 11);
        let l = Arc::new(l);
        let shared = Arc::clone(&l);
        drop(l);
        assert_eq!(live_chunks::get() - before, chunks, "a handle is still out");
        drop(shared);
        assert_eq!(live_chunks::get(), before, "every chunk came back");
    }
}
