//! Memory governance: a globally budgeted, lock-striped block cache whose
//! budget open tables also charge.
//!
//! The paper's Section 1 guideline — "wisely allocate the memory budget" —
//! is about the components that *compete* for one ceiling: cached data
//! blocks, open table handles, bloom filters, and the learned index models
//! themselves. This module gives the engine a single [`CacheBudget`] that
//! all of them charge:
//!
//! * **Blocks** live in a [`BlockCache`]: N independent lock-striped LRU
//!   segments keyed by `hash(table_id, block_no)`, so concurrent readers on
//!   different segments never contend on one global mutex. Insertion
//!   reserves bytes against the shared budget *before* taking any segment
//!   lock; when the reservation fails, victims are evicted — from the
//!   inserting key's own segment first, then sweeping the others — until it
//!   fits. Because every shard of a [`crate::sharding::ShardedDb`] shares
//!   the same budget, evicting a cold shard's blocks funds a hot shard's
//!   working set.
//! * **Table handles** (the resident `TableReader`s: index model + bloom
//!   filter + fixed overhead) charge the same budget as *pinned* bytes the
//!   moment they open and release on drop — index memory squeezes block
//!   space, exactly the trade the paper's figures sweep. Nothing else holds
//!   a reader: the charge lasts as long as some `Version` lists the table.
//!
//! The budget is a pair of atomics, so [`EngineCache`]'s `Debug` (and every
//! gauge accessor) reads without taking a lock — formatting one of these
//! from a panic hook mid-insert can never deadlock.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// Cache key: table identity + block index within the table file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockKey {
    pub table_id: u64,
    pub block_no: u64,
}

/// Fixed per-handle overhead charged for an open table beyond its measured
/// index + bloom bytes (file handle, footer, metadata).
pub const TABLE_HANDLE_OVERHEAD: usize = 256;

/// One byte ceiling shared by every charging component (and, through
/// [`EngineCache`], by every shard of a `ShardedDb`).
///
/// Two charge classes, one atomic each — total usage is *derived* as their
/// sum, so `used = blocks + tables` holds by construction:
/// * *block* bytes are *reserved* — `CacheBudget::try_reserve_block`
///   refuses to grow them past `capacity - table bytes`, and the block
///   cache evicts until a reservation succeeds, so block bytes never
///   overshoot the ceiling at any instant;
/// * *pinned* bytes (table handles, filters, index models) are charged
///   unconditionally — a table the engine needs open cannot be refused —
///   and block evictions compensate on the next reservation.
pub struct CacheBudget {
    capacity: usize,
    block_bytes: AtomicUsize,
    table_bytes: AtomicUsize,
}

impl CacheBudget {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            block_bytes: AtomicUsize::new(0),
            table_bytes: AtomicUsize::new(0),
        }
    }

    /// Reserve `bytes` for a block if the budget can hold them; the caller
    /// evicts and retries on failure.
    fn try_reserve_block(&self, bytes: usize) -> bool {
        let mut blocks = self.block_bytes.load(Ordering::Relaxed);
        loop {
            // Pinned charges are never refused, so on their own they may
            // exceed the ceiling: no room is left, not a negative amount.
            let room = self.capacity.saturating_sub(self.table_bytes());
            if blocks + bytes > room {
                return false;
            }
            match self.block_bytes.compare_exchange_weak(
                blocks,
                blocks + bytes,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(cur) => blocks = cur,
            }
        }
    }

    fn release_block(&self, bytes: usize) {
        self.block_bytes.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// Pinned charge (open table handle): never refused — the block side
    /// yields the space instead.
    fn charge_table(&self, bytes: usize) {
        self.table_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    fn release_table(&self, bytes: usize) {
        self.table_bytes.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// Configured ceiling.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity
    }

    /// Bytes charged right now, all components.
    pub fn used_bytes(&self) -> usize {
        self.block_bytes() + self.table_bytes()
    }

    /// Bytes held by cached blocks.
    pub fn block_bytes(&self) -> usize {
        self.block_bytes.load(Ordering::Relaxed)
    }

    /// Bytes pinned by open table handles (index models + filters).
    pub fn table_bytes(&self) -> usize {
        self.table_bytes.load(Ordering::Relaxed)
    }
}

const NIL: usize = usize::MAX;

/// A [`BlockKey`] with its hash, computed once per cache operation: the
/// stripe is picked from it and the stripe's map takes it as is.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Hashed {
    hash: u64,
    key: BlockKey,
}

impl Hash for Hashed {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// Hands a [`Hashed`]'s value to the map unchanged. The keys are the
/// engine's own, so SipHash's protection against chosen keys is not missed.
#[derive(Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn write(&mut self, _: &[u8]) {
        unreachable!("only `Hashed` keys, which write one u64");
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

struct Slot {
    key: Hashed,
    data: Arc<Vec<u8>>,
    prev: usize,
    next: usize,
    /// Logical last-touch time from the cache-wide clock — cross-segment
    /// eviction compares tail ages so a burst into one stripe displaces
    /// the globally coldest block, not its own stripe's recent entries.
    tick: u64,
}

/// One lock stripe: a slab-backed intrusive LRU list (O(1) get/insert).
struct LruSegment {
    map: HashMap<Hashed, usize, BuildHasherDefault<PassThrough>>,
    slots: Vec<Slot>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
}

impl LruSegment {
    fn new() -> Self {
        Self {
            map: HashMap::default(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    fn detach(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        if prev != NIL {
            self.slots[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, i: usize) {
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// Remove slot `i` from the list, map and slab; returns its byte size.
    fn remove(&mut self, i: usize) -> usize {
        self.detach(i);
        let k = self.slots[i].key;
        let bytes = self.slots[i].data.len();
        self.slots[i].data = Arc::new(Vec::new());
        self.map.remove(&k);
        self.free.push(i);
        bytes
    }

    /// Evict the least-recently-used entry; returns its byte size.
    fn pop_tail(&mut self) -> Option<usize> {
        let victim = self.tail;
        if victim == NIL {
            return None;
        }
        Some(self.remove(victim))
    }
}

/// Sharded, thread-safe block cache: lock-striped LRU segments over one
/// shared [`CacheBudget`].
pub struct BlockCache {
    segments: Box<[Mutex<LruSegment>]>,
    /// `segments.len() - 1`; the count is a power of two.
    mask: usize,
    budget: Arc<CacheBudget>,
    /// Logical clock stamped onto entries at each touch (see `Slot::tick`).
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for BlockCache {
    // Reads only atomics — safe to format from any context, including one
    // already inside a segment lock (the old single-mutex impl deadlocked
    // there).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockCache")
            .field("segments", &(self.mask + 1))
            .field("capacity_bytes", &self.budget.capacity_bytes())
            .field("used_bytes", &self.budget.block_bytes())
            .finish()
    }
}

/// splitmix64 — cheap and well mixed.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Lock stripes of a block cache: one per core, rounded to a power of two,
/// clamped to `[4, 64]`.
fn auto_segments() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(8)
        .next_power_of_two()
        .clamp(4, 64)
}

impl BlockCache {
    /// Standalone cache with its own budget and the automatic stripe count.
    pub fn new(capacity_bytes: usize) -> Self {
        Self::with_budget(Arc::new(CacheBudget::new(capacity_bytes)), auto_segments())
    }

    /// Cache charging `budget`, striped over `segments` (rounded up to a
    /// power of two).
    pub fn with_budget(budget: Arc<CacheBudget>, segments: usize) -> Self {
        let n = segments.max(1).next_power_of_two();
        Self {
            segments: (0..n).map(|_| Mutex::new(LruSegment::new())).collect(),
            mask: n - 1,
            budget,
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn hashed(key: BlockKey) -> Hashed {
        Hashed {
            hash: mix64(key.table_id ^ key.block_no.rotate_left(32)),
            key,
        }
    }

    /// From bits the stripe's own map does not use (it indexes with the low
    /// bits and tags with the top seven).
    fn segment_of(&self, key: Hashed) -> usize {
        (key.hash >> 32) as usize & self.mask
    }

    /// Fetch a block, marking it most-recently-used within its segment.
    pub fn get(&self, key: BlockKey) -> Option<Arc<Vec<u8>>> {
        let key = Self::hashed(key);
        let mut seg = self.segments[self.segment_of(key)].lock();
        match seg.map.get(&key).copied() {
            Some(i) => {
                seg.detach(i);
                seg.push_front(i);
                seg.slots[i].tick = self.clock.fetch_add(1, Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&seg.slots[i].data))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Evict one entry: scan every stripe's LRU tail and pop the globally
    /// oldest (by logical touch time), so a hot stripe's burst displaces
    /// the coldest block anywhere, not its own recent entries. Holds at
    /// most one segment lock at a time; the victim choice may race with a
    /// concurrent touch, which costs nothing but precision. Falls back to
    /// a sweep from `start` if the chosen stripe drained meanwhile.
    fn evict_one(&self, start: usize) -> bool {
        let mut victim: Option<(usize, u64)> = None;
        for idx in 0..=self.mask {
            let seg = self.segments[idx].lock();
            if seg.tail != NIL {
                let tick = seg.slots[seg.tail].tick;
                if victim.is_none_or(|(_, best)| tick < best) {
                    victim = Some((idx, tick));
                }
            }
        }
        if let Some((idx, _)) = victim {
            if let Some(bytes) = self.segments[idx].lock().pop_tail() {
                self.budget.release_block(bytes);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                return true;
            }
        }
        for off in 0..=self.mask {
            let idx = (start + off) & self.mask;
            if let Some(bytes) = self.segments[idx].lock().pop_tail() {
                self.budget.release_block(bytes);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                return true;
            }
        }
        false
    }

    /// Insert (or refresh) a block. Bytes are reserved against the shared
    /// budget *first*; eviction makes room, so the budget is never
    /// overshot. When every block is gone and pinned charges still leave
    /// no room, the insert is dropped — pinned components win.
    pub fn insert(&self, key: BlockKey, data: Arc<Vec<u8>>) {
        let key = Self::hashed(key);
        let seg_idx = self.segment_of(key);
        // Retire any existing version of the key so the path below is a
        // plain insert (refresh keeps the newest payload and MRU position).
        {
            let mut seg = self.segments[seg_idx].lock();
            if let Some(&i) = seg.map.get(&key) {
                let bytes = seg.remove(i);
                self.budget.release_block(bytes);
            }
        }
        while !self.budget.try_reserve_block(data.len()) {
            if !self.evict_one(seg_idx) {
                return; // nothing left to evict; the block does not fit
            }
        }
        let mut seg = self.segments[seg_idx].lock();
        if let Some(&i) = seg.map.get(&key) {
            // A concurrent insert of the same key won the race: keep one
            // copy and hand back this call's reservation.
            let old = std::mem::replace(&mut seg.slots[i].data, data);
            self.budget.release_block(old.len());
            seg.detach(i);
            seg.push_front(i);
            seg.slots[i].tick = self.clock.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let slot = Slot {
            key,
            data,
            prev: NIL,
            next: NIL,
            tick: self.clock.fetch_add(1, Ordering::Relaxed),
        };
        let i = match seg.free.pop() {
            Some(i) => {
                seg.slots[i] = slot;
                i
            }
            None => {
                seg.slots.push(slot);
                seg.slots.len() - 1
            }
        };
        seg.map.insert(key, i);
        seg.push_front(i);
        self.insertions.fetch_add(1, Ordering::Relaxed);
    }

    /// Drop every cached block belonging to `table_id` (table deleted).
    pub fn evict_table(&self, table_id: u64) {
        for m in self.segments.iter() {
            let mut seg = m.lock();
            let victims: Vec<usize> = seg
                .map
                .iter()
                .filter(|(k, _)| k.key.table_id == table_id)
                .map(|(_, &i)| i)
                .collect();
            for i in victims {
                let bytes = seg.remove(i);
                self.budget.release_block(bytes);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Bytes currently held by cached blocks.
    pub fn used_bytes(&self) -> usize {
        self.budget.block_bytes()
    }

    /// Ceiling of the shared budget this cache charges.
    pub fn capacity_bytes(&self) -> usize {
        self.budget.capacity_bytes()
    }

    /// (hits, misses) so far.
    pub fn hit_miss(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

/// Point-in-time cache counters, per component (the `cache_*` rows of the
/// `METRICS` scrape).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub block_hits: u64,
    pub block_misses: u64,
    pub block_insertions: u64,
    pub block_evictions: u64,
    /// Bytes held by cached blocks.
    pub block_used_bytes: u64,
    /// Bytes pinned by open table handles (index models + filters).
    pub table_used_bytes: u64,
    /// Total charged bytes, all components.
    pub used_bytes: u64,
    /// The shared ceiling.
    pub capacity_bytes: u64,
}

/// The engine-wide cache: one [`CacheBudget`] charged by the block cache
/// and every open `TableReader`'s pinned bytes.
///
/// A standalone [`crate::Db`] builds one when `Options::block_cache_bytes`
/// is nonzero; a [`crate::sharding::ShardedDb`] builds exactly one and
/// threads it through every shard — including children created by live
/// splits — so the whole topology shares a single byte ceiling.
pub struct EngineCache {
    budget: Arc<CacheBudget>,
    blocks: BlockCache,
}

impl std::fmt::Debug for EngineCache {
    // Atomics only — never blocks (see the module docs).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineCache")
            .field("capacity_bytes", &self.budget.capacity_bytes())
            .field("used_bytes", &self.budget.used_bytes())
            .field("block_bytes", &self.budget.block_bytes())
            .field("table_bytes", &self.budget.table_bytes())
            .finish()
    }
}

impl EngineCache {
    /// New cache with `capacity_bytes` shared across all components.
    pub fn new(capacity_bytes: usize) -> Self {
        let budget = Arc::new(CacheBudget::new(capacity_bytes));
        Self {
            blocks: BlockCache::with_budget(Arc::clone(&budget), auto_segments()),
            budget,
        }
    }

    /// Build from engine options; `None` when caching is disabled.
    pub fn from_options(opts: &crate::Options) -> Option<Arc<EngineCache>> {
        (opts.block_cache_bytes > 0).then(|| Arc::new(EngineCache::new(opts.block_cache_bytes)))
    }

    /// The block half.
    pub fn blocks(&self) -> &BlockCache {
        &self.blocks
    }

    /// Pinned charge for an open table handle (index + bloom + overhead).
    pub(crate) fn charge_table(&self, bytes: usize) {
        self.budget.charge_table(bytes);
    }

    /// Release a pinned table charge (handle dropped).
    pub(crate) fn release_table(&self, bytes: usize) {
        self.budget.release_table(bytes);
    }

    /// Total charged bytes, all components.
    pub fn used_bytes(&self) -> usize {
        self.budget.used_bytes()
    }

    /// The shared ceiling.
    pub fn capacity_bytes(&self) -> usize {
        self.budget.capacity_bytes()
    }

    /// Block-cache (hits, misses) — the headline hit rate.
    pub fn hit_miss(&self) -> (u64, u64) {
        self.blocks.hit_miss()
    }

    /// Snapshot every per-component counter.
    pub fn stats(&self) -> CacheStats {
        let (block_hits, block_misses) = self.blocks.hit_miss();
        let block_used_bytes = self.budget.block_bytes() as u64;
        let table_used_bytes = self.budget.table_bytes() as u64;
        CacheStats {
            block_hits,
            block_misses,
            block_insertions: self.blocks.insertions.load(Ordering::Relaxed),
            block_evictions: self.blocks.evictions.load(Ordering::Relaxed),
            block_used_bytes,
            table_used_bytes,
            // Derived from the same two reads, so the parts always add up.
            used_bytes: block_used_bytes + table_used_bytes,
            capacity_bytes: self.budget.capacity_bytes() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(t: u64, b: u64) -> BlockKey {
        BlockKey {
            table_id: t,
            block_no: b,
        }
    }

    fn block(fill: u8, len: usize) -> Arc<Vec<u8>> {
        Arc::new(vec![fill; len])
    }

    /// Single-stripe cache: global LRU order is exact.
    fn unsharded(capacity: usize) -> BlockCache {
        BlockCache::with_budget(Arc::new(CacheBudget::new(capacity)), 1)
    }

    #[test]
    fn get_after_insert() {
        let c = BlockCache::new(1 << 20);
        assert!(c.get(key(1, 0)).is_none());
        c.insert(key(1, 0), block(7, 4096));
        assert_eq!(c.get(key(1, 0)).unwrap()[0], 7);
        assert_eq!(c.hit_miss(), (1, 1));
        assert_eq!(c.used_bytes(), 4096);
    }

    #[test]
    fn lru_eviction_order() {
        let c = unsharded(3 * 4096);
        for b in 0..3 {
            c.insert(key(1, b), block(b as u8, 4096));
        }
        // Touch block 0 so block 1 becomes LRU.
        c.get(key(1, 0)).unwrap();
        c.insert(key(1, 3), block(3, 4096));
        assert!(c.get(key(1, 1)).is_none(), "block 1 was LRU");
        assert!(c.get(key(1, 0)).is_some());
        assert!(c.get(key(1, 2)).is_some());
        assert!(c.get(key(1, 3)).is_some());
        assert!(c.used_bytes() <= 3 * 4096);
    }

    #[test]
    fn reinsert_updates_in_place() {
        let c = BlockCache::new(1 << 16);
        c.insert(key(1, 0), block(1, 4096));
        c.insert(key(1, 0), block(2, 4096));
        assert_eq!(c.get(key(1, 0)).unwrap()[0], 2);
        assert_eq!(c.used_bytes(), 4096);
    }

    #[test]
    fn oversized_block_rejected() {
        let c = BlockCache::new(100);
        c.insert(key(1, 0), block(1, 4096));
        assert!(c.get(key(1, 0)).is_none());
        assert_eq!(c.used_bytes(), 0);
    }

    #[test]
    fn evict_table_clears_only_that_table() {
        let c = BlockCache::new(1 << 20);
        c.insert(key(1, 0), block(1, 100));
        c.insert(key(1, 1), block(1, 100));
        c.insert(key(2, 0), block(2, 100));
        c.evict_table(1);
        assert!(c.get(key(1, 0)).is_none());
        assert!(c.get(key(1, 1)).is_none());
        assert!(c.get(key(2, 0)).is_some());
        assert_eq!(c.used_bytes(), 100);
    }

    #[test]
    fn slots_recycled_after_eviction() {
        let c = unsharded(2 * 4096);
        for b in 0..100u64 {
            c.insert(key(1, b), block(b as u8, 4096));
        }
        let slots = c.segments[0].lock().slots.len();
        assert!(slots <= 4, "slab must recycle: {slots}");
    }

    #[test]
    fn budget_never_exceeded_across_segments() {
        let c = BlockCache::new(16 * 4096);
        for b in 0..500u64 {
            c.insert(key(b % 7, b), block(b as u8, 4096));
            assert!(
                c.used_bytes() <= c.capacity_bytes(),
                "overshoot at {b}: {} > {}",
                c.used_bytes(),
                c.capacity_bytes()
            );
        }
    }

    #[test]
    fn cross_segment_eviction_funds_hot_stripe() {
        // Fill the budget from many tables (spread over all stripes), then
        // hammer inserts that all land in one stripe: they must succeed by
        // stealing bytes from the other stripes.
        let c = BlockCache::new(8 * 4096);
        for b in 0..8u64 {
            c.insert(key(b, b), block(1, 4096));
        }
        assert_eq!(c.used_bytes(), 8 * 4096);
        for b in 0..8u64 {
            c.insert(key(99, b), block(2, 4096));
        }
        let resident = (0..8u64).filter(|&b| c.get(key(99, b)).is_some()).count();
        assert!(
            resident >= 7,
            "hot inserts must displace cold stripes: only {resident}/8 resident"
        );
        assert!(c.used_bytes() <= c.capacity_bytes());
    }

    #[test]
    fn debug_takes_no_lock() {
        let c = BlockCache::new(1 << 20);
        c.insert(key(1, 0), block(1, 4096));
        // Hold a segment lock and format anyway — the old implementation
        // locked its single mutex here and deadlocked.
        let _guard = c.segments[c.segment_of(BlockCache::hashed(key(1, 0)))].lock();
        let s = format!("{c:?}");
        assert!(s.contains("used_bytes"), "{s}");
    }

    #[test]
    fn pinned_charges_squeeze_block_space() {
        let cache = EngineCache::new(4 * 4096);
        cache.charge_table(3 * 4096);
        // Only one block's worth of head-room remains.
        cache.blocks().insert(key(1, 0), block(1, 4096));
        cache.blocks().insert(key(1, 1), block(1, 4096));
        assert!(cache.used_bytes() <= cache.capacity_bytes());
        assert_eq!(cache.blocks().used_bytes(), 4096, "one block fits");
        cache.release_table(3 * 4096);
        cache.blocks().insert(key(1, 2), block(1, 4096));
        assert!(cache.blocks().used_bytes() >= 2 * 4096, "space came back");
    }

    #[test]
    fn engine_cache_stats_roundtrip() {
        let cache = EngineCache::new(1 << 20);
        cache.blocks().insert(key(1, 0), block(1, 512));
        cache.blocks().get(key(1, 0));
        cache.blocks().get(key(1, 9));
        cache.charge_table(1000);
        let s = cache.stats();
        assert_eq!(s.block_hits, 1);
        assert_eq!(s.block_misses, 1);
        assert_eq!(s.block_insertions, 1);
        assert_eq!(s.block_used_bytes, 512);
        assert_eq!(s.table_used_bytes, 1000);
        assert_eq!(s.used_bytes, 1512);
        assert_eq!(s.capacity_bytes, 1 << 20);
    }
}
