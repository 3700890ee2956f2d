//! Memory governance: one byte budget, charged by cached blocks and by open
//! tables, held by one lock-striped LRU cache.
//!
//! The paper's Section 1 guideline — "wisely allocate the memory budget" —
//! is about the components that *compete* for one ceiling: cached data
//! blocks, open table handles, bloom filters, and the learned index models
//! themselves. A [`BlockCache`] is that ceiling and both of its tenants:
//!
//! * **Blocks** live in N independent LRU stripes; a key's stripe is picked
//!   from its mixed 64-bit hash, so each stripe sees a uniform sample of
//!   the traffic and concurrent readers on different stripes never contend.
//!   An insert is one hold of its key's **own** stripe: retire an existing
//!   version, reserve the bytes against the budget, evict that stripe's
//!   tail until the reservation succeeds, link. Every shard of a
//!   [`crate::sharding::ShardedDb`] shares the one cache, so evicting a
//!   cold shard's blocks funds a hot shard's working set.
//! * **Spares.** A missed block is written once: the reader asks
//!   `BlockCache::buffer` for the buffer the device fills, and that same
//!   `Arc` is what `insert` links. The buffers come from evictions — a
//!   popped tail whose `Arc` nobody else holds waits in the stripe that
//!   evicted it, at most `SPARES` of them, for the next miss there; a
//!   block a cursor or a lookup still reads is dropped instead, never
//!   rewritten. Spares are not charged to the budget: at most `stripes ×
//!   SPARES × 4 KiB` of them exist, and they replace the run buffer and the
//!   per-block copies a miss used to allocate outside the budget every time.
//! * **Table handles** (the resident `TableReader`s: index model + bloom
//!   filter + fixed overhead) charge the same budget as *pinned* bytes the
//!   moment they open and release on drop — index memory squeezes block
//!   space, exactly the trade the paper's figures sweep. Nothing else holds
//!   a reader: the charge lasts as long as some `Version` lists the table.
//!
//! The ledger is a pair of atomics, so `Debug` (and every gauge accessor)
//! reads without taking a lock — formatting the cache from a panic hook
//! mid-insert can never deadlock.

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

/// The block size the reader fetches in (the device model's 4 KiB): the one
/// buffer size worth keeping, since only a table's last block differs.
pub(crate) const BLOCK_BYTES: usize = 4096;

/// Evicted buffers a stripe keeps for its next misses. One is the steady
/// state (a miss takes it, the insert's eviction puts one back); the rest
/// cover a run with several blocks in one stripe and a second reader.
const SPARES: usize = 4;

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
}

/// One lock stripe: a slab-backed intrusive LRU list (O(1) get/insert).
struct Stripe {
    map: HashMap<Hashed, usize, BuildHasherDefault<PassThrough>>,
    slots: Vec<Slot>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    /// `BLOCK_BYTES`-long buffers with one owner, at most `SPARES`.
    spares: Vec<Arc<Vec<u8>>>,
    /// What a vacated slot holds.
    empty: Arc<Vec<u8>>,
}

impl Stripe {
    fn new() -> Self {
        Self {
            map: HashMap::default(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            spares: Vec::with_capacity(SPARES),
            empty: Arc::default(),
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

    /// Remove slot `i` from the list, map and slab; returns its block.
    fn remove(&mut self, i: usize) -> Arc<Vec<u8>> {
        self.detach(i);
        let k = self.slots[i].key;
        self.map.remove(&k);
        self.free.push(i);
        std::mem::replace(&mut self.slots[i].data, Arc::clone(&self.empty))
    }

    /// Keep a removed block's buffer for the next miss, if it is whole, a
    /// place is free and nobody else holds it: a reader that does keeps its
    /// bytes, and the buffer is freed when the reader is done.
    fn keep_spare(&mut self, mut block: Arc<Vec<u8>>) {
        let spare = block.len() == BLOCK_BYTES
            && self.spares.len() < SPARES
            && Arc::get_mut(&mut block).is_some();
        if spare {
            self.spares.push(block);
        }
    }
}

/// The engine-wide cache: lock-striped LRU block storage and the byte
/// ledger that blocks and open `TableReader`s both charge.
///
/// A standalone [`crate::Db`] builds one when `Options::block_cache_bytes`
/// is nonzero; a [`crate::sharding::ShardedDb`] builds exactly one and
/// threads it through every shard — including children created by live
/// splits — so the whole topology shares a single byte ceiling.
///
/// Two charge classes, one atomic each — total usage is *derived* as their
/// sum, so `used = blocks + tables` holds by construction:
/// * *block* bytes are *reserved* — `try_reserve` refuses to grow them past
///   `capacity - table bytes`, and `insert` evicts until a reservation
///   succeeds, so block bytes never overshoot the ceiling at any instant;
/// * *pinned* bytes (table handles, filters, index models) are charged
///   unconditionally — a table the engine needs open cannot be refused —
///   and block evictions compensate on the next reservation.
pub struct BlockCache {
    stripes: Box<[Mutex<Stripe>]>,
    /// `stripes.len() - 1`; the count is a power of two.
    mask: usize,
    capacity: usize,
    block_bytes: AtomicUsize,
    table_bytes: AtomicUsize,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for BlockCache {
    // Reads only atomics — safe to format from any context, including one
    // already inside a stripe lock.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockCache")
            .field("stripes", &(self.mask + 1))
            .field("capacity_bytes", &self.capacity)
            .field("used_bytes", &self.used_bytes())
            .field("block_bytes", &self.block_bytes())
            .field("table_bytes", &self.table_bytes())
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

impl BlockCache {
    /// New cache with `capacity_bytes` shared by blocks and pinned charges,
    /// one stripe per core (rounded to a power of two, clamped to `[4, 64]`).
    pub fn new(capacity_bytes: usize) -> Self {
        let cores = std::thread::available_parallelism().map_or(8, |n| n.get());
        Self::with_stripes(capacity_bytes, cores.next_power_of_two().clamp(4, 64))
    }

    /// `stripes` is rounded up to a power of two; one stripe is an exact LRU.
    fn with_stripes(capacity: usize, stripes: usize) -> Self {
        let n = stripes.max(1).next_power_of_two();
        Self {
            stripes: (0..n).map(|_| Mutex::new(Stripe::new())).collect(),
            mask: n - 1,
            capacity,
            block_bytes: AtomicUsize::new(0),
            table_bytes: AtomicUsize::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Build from engine options; `None` when caching is disabled.
    pub fn from_options(opts: &crate::Options) -> Option<Arc<BlockCache>> {
        (opts.block_cache_bytes > 0).then(|| Arc::new(BlockCache::new(opts.block_cache_bytes)))
    }

    fn hashed(key: BlockKey) -> Hashed {
        Hashed {
            hash: mix64(key.table_id ^ key.block_no.rotate_left(32)),
            key,
        }
    }

    /// From bits the stripe's own map does not use (it indexes with the low
    /// bits and tags with the top seven).
    fn stripe_of(&self, key: Hashed) -> usize {
        (key.hash >> 32) as usize & self.mask
    }

    /// Fetch a block, marking it most-recently-used within its stripe.
    pub fn get(&self, key: BlockKey) -> Option<Arc<Vec<u8>>> {
        let key = Self::hashed(key);
        let mut stripe = self.stripes[self.stripe_of(key)].lock();
        match stripe.map.get(&key).copied() {
            Some(i) => {
                stripe.detach(i);
                stripe.push_front(i);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&stripe.slots[i].data))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Reserve `bytes` for a block if the budget can hold them; the caller
    /// evicts and retries on failure.
    fn try_reserve(&self, bytes: usize) -> bool {
        let reserve = |blocks: usize| {
            // Pinned charges are never refused, so on their own they may
            // exceed the ceiling: no room is left, not a negative amount.
            let room = self.capacity.saturating_sub(self.table_bytes());
            (blocks + bytes <= room).then_some(blocks + bytes)
        };
        self.block_bytes
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, reserve)
            .is_ok()
    }

    fn release(&self, bytes: usize) {
        self.block_bytes.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// Evict stripe `stripe`'s LRU tail, if it has one, keeping its buffer.
    fn evict_tail(&self, stripe: &mut Stripe) -> bool {
        if stripe.tail == NIL {
            return false;
        }
        let block = stripe.remove(stripe.tail);
        self.release(block.len());
        self.evictions.fetch_add(1, Ordering::Relaxed);
        stripe.keep_spare(block);
        true
    }

    /// Reserve `bytes`, evicting `stripe`'s tail until they fit; false when
    /// the stripe ran out of blocks first.
    fn fund(&self, stripe: &mut Stripe, bytes: usize) -> bool {
        loop {
            if self.try_reserve(bytes) {
                return true;
            }
            if !self.evict_tail(stripe) {
                return false;
            }
        }
    }

    /// A `len`-byte buffer, its contents arbitrary, for the block about to
    /// be read from the device and inserted under `key`: a spare of the
    /// key's own stripe — where that insert's eviction will leave the next —
    /// or a new one. The `Arc` has one owner.
    pub(crate) fn buffer(&self, key: BlockKey, len: usize) -> Arc<Vec<u8>> {
        if len == BLOCK_BYTES {
            let own = self.stripe_of(Self::hashed(key));
            if let Some(spare) = self.stripes[own].lock().spares.pop() {
                return spare;
            }
        }
        Arc::new(vec![0; len])
    }

    /// Insert (or refresh) a block, in one hold of its stripe's lock. Bytes
    /// are reserved against the budget *first*; evicting the stripe's own
    /// tail makes room, so the budget is never overshot. A stripe is a
    /// uniform sample of the traffic (see `stripe_of`), so its tail is as
    /// cold as any. Only when it is empty — pinned charges or an oversized
    /// block left it nothing to give — is its lock dropped and the other
    /// stripes swept in order, one lock at a time, for the first with a
    /// tail. When every block is gone and pinned charges still leave no
    /// room, the insert is dropped — pinned components win.
    pub fn insert(&self, key: BlockKey, data: Arc<Vec<u8>>) {
        let key = Self::hashed(key);
        let own = self.stripe_of(key);
        let mut stripe = self.stripes[own].lock();
        loop {
            // Retire any existing version of the key — one may have landed
            // while the lock was dropped — so what follows is a plain insert
            // (refresh keeps the newest payload and MRU position).
            if let Some(&i) = stripe.map.get(&key) {
                let old = stripe.remove(i);
                self.release(old.len());
                stripe.keep_spare(old);
            }
            if self.fund(&mut stripe, data.len()) {
                break;
            }
            drop(stripe);
            let swept = (1..=self.mask)
                .any(|off| self.evict_tail(&mut self.stripes[(own + off) & self.mask].lock()));
            if !swept {
                return; // nothing left to evict; the block does not fit
            }
            stripe = self.stripes[own].lock();
        }
        let slot = Slot {
            key,
            data,
            prev: NIL,
            next: NIL,
        };
        let i = match stripe.free.pop() {
            Some(i) => {
                stripe.slots[i] = slot;
                i
            }
            None => {
                stripe.slots.push(slot);
                stripe.slots.len() - 1
            }
        };
        stripe.map.insert(key, i);
        stripe.push_front(i);
        self.insertions.fetch_add(1, Ordering::Relaxed);
    }

    /// Drop every cached block of the tables in `table_ids` (their files
    /// were deleted), in one pass over the stripes.
    pub fn evict_tables(&self, table_ids: &[u64]) {
        for m in self.stripes.iter() {
            let mut stripe = m.lock();
            let victims: Vec<usize> = stripe
                .map
                .iter()
                .filter(|(k, _)| table_ids.contains(&k.key.table_id))
                .map(|(_, &i)| i)
                .collect();
            // A compaction retires thousands of blocks at once: they are
            // dropped, not kept as spares.
            for i in victims {
                self.release(stripe.remove(i).len());
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Pinned charge for an open table handle (index + bloom + overhead):
    /// never refused — the block side yields the space instead.
    pub(crate) fn charge_table(&self, bytes: usize) {
        self.table_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Release a pinned table charge (handle dropped).
    pub(crate) fn release_table(&self, bytes: usize) {
        self.table_bytes.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// The ceiling.
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

    /// Block (hits, misses) so far — the headline hit rate.
    pub fn hit_miss(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Snapshot every per-component counter.
    pub fn stats(&self) -> CacheStats {
        let (block_hits, block_misses) = self.hit_miss();
        let block_used_bytes = self.block_bytes() as u64;
        let table_used_bytes = self.table_bytes() as u64;
        CacheStats {
            block_hits,
            block_misses,
            block_insertions: self.insertions.load(Ordering::Relaxed),
            block_evictions: self.evictions.load(Ordering::Relaxed),
            block_used_bytes,
            table_used_bytes,
            // Derived from the same two reads, so the parts always add up.
            used_bytes: block_used_bytes + table_used_bytes,
            capacity_bytes: self.capacity as u64,
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use lsm_workloads::dist::ZipfianGen;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
        BlockCache::with_stripes(capacity, 1)
    }

    fn stripe_lens(c: &BlockCache) -> Vec<usize> {
        c.stripes.iter().map(|m| m.lock().map.len()).collect()
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
        c.insert(key(3, 0), block(3, 100));
        c.evict_tables(&[1, 3]);
        assert!(c.get(key(1, 0)).is_none());
        assert!(c.get(key(1, 1)).is_none());
        assert!(c.get(key(3, 0)).is_none());
        assert!(c.get(key(2, 0)).is_some());
        assert_eq!(c.used_bytes(), 100);
    }

    #[test]
    fn slots_recycled_after_eviction() {
        let c = unsharded(2 * 4096);
        for b in 0..100u64 {
            c.insert(key(1, b), block(b as u8, 4096));
        }
        let slots = c.stripes[0].lock().slots.len();
        assert!(slots <= 4, "slab must recycle: {slots}");
    }

    fn spare_bytes(c: &BlockCache) -> usize {
        let of = |s: &Stripe| s.spares.iter().map(|b| b.len()).sum::<usize>();
        c.stripes.iter().map(|m| of(&m.lock())).sum()
    }

    #[test]
    fn an_evicted_buffer_is_the_next_one_unless_a_reader_holds_it() {
        let c = unsharded(BLOCK_BYTES);
        let held = block(1, BLOCK_BYTES);
        c.insert(key(1, 0), Arc::clone(&held));
        // Evicted while a reader holds it: dropped by the cache, not kept.
        let second = block(2, BLOCK_BYTES);
        let second_at = Arc::as_ptr(&second);
        c.insert(key(1, 1), second);
        assert_eq!(spare_bytes(&c), 0);
        assert!(held.iter().all(|&x| x == 1));
        // Evicted with no other owner: the next miss's buffer.
        c.insert(key(1, 2), block(3, BLOCK_BYTES));
        assert_eq!(spare_bytes(&c), BLOCK_BYTES);
        let mut next = c.buffer(key(1, 3), BLOCK_BYTES);
        assert_eq!(Arc::as_ptr(&next), second_at);
        assert!(Arc::get_mut(&mut next).is_some(), "one owner");
        assert_eq!(spare_bytes(&c), 0);
        // A short block (a table's last) is not kept, nor a spare cut down
        // to serve one.
        let c = unsharded(BLOCK_BYTES);
        c.insert(key(1, 0), block(1, 100));
        c.insert(key(1, 1), block(2, BLOCK_BYTES));
        assert_eq!(spare_bytes(&c), 0);
        c.insert(key(1, 2), block(3, BLOCK_BYTES));
        assert_eq!(c.buffer(key(1, 3), 100).len(), 100);
        assert_eq!(spare_bytes(&c), BLOCK_BYTES);
    }

    /// Spares are the one thing the ledger does not count, so their number
    /// is bounded per stripe whatever an insert evicts at once, and a
    /// retired table's blocks are dropped, not kept.
    #[test]
    fn spares_stay_within_their_bound() {
        const STRIPES: usize = 4;
        let bound = STRIPES * SPARES * BLOCK_BYTES;
        let c = BlockCache::with_stripes(256 * BLOCK_BYTES, STRIPES);
        let miss = |table: u64, b: u64| {
            c.insert(key(table, b), c.buffer(key(table, b), BLOCK_BYTES));
            assert!(c.used_bytes() <= c.capacity_bytes());
            assert!(spare_bytes(&c) <= bound);
        };
        for b in 0..2_000 {
            miss(1, b);
        }
        assert!(spare_bytes(&c) > 0, "steady state: an eviction a miss");
        // A pinned charge makes one insert evict half the cache.
        c.charge_table(128 * BLOCK_BYTES);
        miss(2, 0);
        assert!(
            spare_bytes(&c) >= SPARES * BLOCK_BYTES,
            "a stripe gave all it had"
        );
        assert!(c.block_bytes() <= 128 * BLOCK_BYTES);
        // A compaction retires what is left at once, and keeps none of it.
        for stripe in c.stripes.iter() {
            stripe.lock().spares.clear();
        }
        c.evict_tables(&[1, 2]);
        assert_eq!((c.block_bytes(), spare_bytes(&c)), (0, 0));
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
        // Fill the budget from many tables, then burst one table's blocks
        // in. Each burst block pops its own stripe's tail, and a stripe
        // holds a uniform sample of both populations, so the tails are the
        // cold blocks: the burst ends up resident, funded by every stripe.
        // (Four stripes whatever the host: at 256 blocks over 64 stripes a
        // stripe holds four, and the sample is too small to be uniform.)
        const BLOCKS: u64 = 256;
        let c = BlockCache::with_stripes(BLOCKS as usize * 4096, 4);
        for b in 0..BLOCKS {
            c.insert(key(b, b), block(1, 4096));
        }
        assert_eq!(c.used_bytes(), c.capacity_bytes());
        for b in 0..BLOCKS {
            c.insert(key(999, b), block(2, 4096));
            assert!(c.used_bytes() <= c.capacity_bytes(), "overshoot at {b}");
        }
        let resident = (0..BLOCKS).filter(|&b| c.get(key(999, b)).is_some());
        let resident = resident.count() as u64;
        assert!(
            resident * 10 >= BLOCKS * 9,
            "the burst must displace the cold blocks: only {resident}/{BLOCKS} resident"
        );
    }

    /// Gets of `blocks` zipfian(0.99) block numbers, filling on miss.
    /// Rank 0 is hottest; `mix64` scatters the ranks over table ids.
    fn zipfian_trace(blocks: usize, gets: usize) -> impl Iterator<Item = (u64, u64)> {
        let zipf = ZipfianGen::new(blocks, 0.99);
        let mut rng = StdRng::seed_from_u64(0x5eed_0020);
        (0..gets).map(move |_| {
            let rank = zipf.sample(&mut rng) as u64;
            (mix64(rank) % 32, rank)
        })
    }

    /// The evidence that the local rule costs no hits: one skewed trace
    /// over 8x the capacity, through an exact global LRU (one stripe) and
    /// through 4, 16 and 64 stripes that each evict only their own tail.
    #[test]
    fn own_stripe_eviction_matches_global_lru_on_zipfian_reads() {
        const CAPACITY: usize = 4096;
        const LEN: usize = 64;
        let data = block(0, LEN);
        let hit_share = |stripes: usize| {
            let c = BlockCache::with_stripes(CAPACITY * LEN, stripes);
            for (table, block_no) in zipfian_trace(8 * CAPACITY, 200_000) {
                if c.get(key(table, block_no)).is_none() {
                    c.insert(key(table, block_no), Arc::clone(&data));
                    assert!(c.used_bytes() <= c.capacity_bytes());
                }
            }
            let (hits, misses) = c.hit_miss();
            hits as f64 / (hits + misses) as f64
        };
        let exact = hit_share(1);
        assert!(exact > 0.5, "the trace must be cacheable: {exact}");
        for stripes in [4, 16, 64] {
            let striped = hit_share(stripes);
            assert!(
                (striped - exact).abs() < 0.01,
                "{stripes} stripes hit {striped:.4}, global LRU {exact:.4}"
            );
        }
    }

    /// Nothing rebalances the stripes but the hash: with tables retired
    /// under the readers and pinned charges taking up to half the budget
    /// and giving it back, no stripe grows past twice the mean.
    #[test]
    fn stripes_stay_balanced_under_table_eviction_and_pinned_charges() {
        const CAPACITY: usize = 4096;
        const LEN: usize = 64;
        const STEP: usize = CAPACITY * LEN / 64;
        let data = block(0, LEN);
        let c = BlockCache::with_stripes(CAPACITY * LEN, 64);
        let mut generation = [0u64; 32];
        let mut pinned = 0;
        let mut worst = 0f64;
        for (i, (table, block_no)) in zipfian_trace(8 * CAPACITY, 200_000).enumerate() {
            let id = table + 32 * generation[table as usize];
            if c.get(key(id, block_no)).is_none() {
                c.insert(key(id, block_no), Arc::clone(&data));
                assert!(c.used_bytes() <= c.capacity_bytes());
            }
            if i % 1_000 != 999 {
                continue;
            }
            // A compaction retires a table (its keys come back under a new
            // id), and a table handle opens or closes: the pinned charge
            // climbs to half the budget in 32 steps, then back down.
            let retired = (i / 1_000) as u64 % 32;
            c.evict_tables(&[retired + 32 * generation[retired as usize]]);
            generation[retired as usize] += 1;
            if (i / 32_000) % 2 == 0 {
                c.charge_table(STEP);
                pinned += STEP;
            } else {
                c.release_table(STEP);
                pinned -= STEP;
            }
            let lens = stripe_lens(&c);
            let mean = lens.iter().sum::<usize>() as f64 / lens.len() as f64;
            worst = worst.max(*lens.iter().max().unwrap() as f64 / mean);
        }
        assert!(pinned > 0 && c.table_bytes() == pinned);
        assert!(worst < 2.0, "fullest stripe at {worst:.2}x the mean");
    }

    #[test]
    fn debug_takes_no_lock() {
        let c = BlockCache::new(1 << 20);
        c.insert(key(1, 0), block(1, 4096));
        // Hold a stripe lock and format anyway — the old implementation
        // locked its single mutex here and deadlocked.
        let _guard = c.stripes[c.stripe_of(BlockCache::hashed(key(1, 0)))].lock();
        let s = format!("{c:?}");
        assert!(s.contains("used_bytes"), "{s}");
    }

    #[test]
    fn pinned_charges_squeeze_block_space() {
        let cache = BlockCache::new(4 * 4096);
        cache.charge_table(3 * 4096);
        // Only one block's worth of head-room remains.
        cache.insert(key(1, 0), block(1, 4096));
        cache.insert(key(1, 1), block(1, 4096));
        assert!(cache.used_bytes() <= cache.capacity_bytes());
        assert_eq!(cache.block_bytes(), 4096, "one block fits");
        cache.release_table(3 * 4096);
        cache.insert(key(1, 2), block(1, 4096));
        assert!(cache.block_bytes() >= 2 * 4096, "space came back");
    }

    #[test]
    fn engine_cache_stats_roundtrip() {
        let cache = BlockCache::new(1 << 20);
        cache.insert(key(1, 0), block(1, 512));
        cache.get(key(1, 0));
        cache.get(key(1, 9));
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
