//! Memory governance: one byte budget, charged by cached blocks and by open
//! tables, and the blocks themselves — found through their table, evicted
//! by a clock in each lock stripe.
//!
//! The paper's Section 1 guideline — "wisely allocate the memory budget" —
//! is about the components that *compete* for one ceiling: cached data
//! blocks, open table handles, bloom filters, and the learned index models
//! themselves. A [`BlockCache`] is that ceiling and both of its tenants:
//!
//! * **Blocks** live in their table's slots, each one allocation (an
//!   `Arc<[u8]>`: counts and bytes together). An open `TableReader`
//!   registers one slot per 4 KiB data block (`CachedTable`), and a lookup
//!   reads its whole cover under one read of that table's slot lock
//!   (`Resident`): when every block is resident it searches them where
//!   they lie, inside that hold (`Resident::cover`: CPU only, never device
//!   I/O), and otherwise a fetch clones the resident `Arc`s. Either sets
//!   the blocks' reference bits and adds its hits and misses once. A hit
//!   takes no stripe lock, hashes nothing and moves nothing. The
//!   `BlockKey` entry points reach the same slots through a `table_id →
//!   slots` map; their `insert` copies the block it is given.
//! * **Stripes** hold what a miss needs. A block's stripe is picked from
//!   its mixed 64-bit hash, so each stripe sees a uniform sample of the
//!   traffic; it keeps a clock ring of its resident blocks and a few spare
//!   buffers. An insert is one hold of its block's **own** stripe: reserve
//!   the bytes against the budget, run that stripe's hand until the
//!   reservation succeeds, publish into the slot. The hand gives a
//!   referenced block a second chance — clears its bit, moves on — and
//!   evicts the first unreferenced one (CLOCK, Corbató 1968). Every shard
//!   of a [`crate::sharding::ShardedDb`] shares the one cache, so evicting
//!   a cold shard's blocks funds a hot shard's working set.
//! * **Lock order:** stripe, then table slots. A reader holds one slot lock
//!   and never a stripe lock; an insert or the hand holds its stripe and
//!   one slot lock at a time. The `table_id → slots` map is taken alone,
//!   or by a `BlockKey` get before one slot lock.
//! * **Spares.** A missed block is written once: the reader asks
//!   `BlockCache::buffer` for the buffer the device fills, and that same
//!   `Arc` is what the insert publishes. The buffers come from evictions —
//!   an evicted block whose `Arc` nobody else holds waits in the stripe
//!   that evicted it, at most `SPARES` of them, for the next miss there; a
//!   block a cursor or a fetched span still holds is dropped instead, never
//!   rewritten, and one a lookup reads in place is not evicted until the
//!   lookup lets go of its table's slots. Spares are not charged to the
//!   budget: at most `stripes × SPARES × 4 KiB` of them exist, and they
//!   replace the run buffer and the per-block copies a miss used to
//!   allocate outside the budget every time.
//! * **Table handles** (the resident `TableReader`s: index model + bloom
//!   filter + fixed overhead) charge the same budget as *pinned* bytes the
//!   moment they open — index memory squeezes block space, exactly the
//!   trade the paper's figures sweep. Nothing else holds a reader: when the
//!   last `Version` listing it drops it, its charge is released and its
//!   slots retire, so its blocks leave the budget with it.
//!
//! The ledger is a pair of atomics, so `Debug` (and every gauge accessor)
//! reads without taking a lock — formatting the cache from a panic hook
//! mid-insert can never deadlock.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock, RwLockReadGuard};

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

/// One data block's place in its table: the block while resident, and the
/// bit a hit sets and the hand clears.
#[derive(Default)]
struct Slot {
    block: Option<Arc<[u8]>>,
    referenced: AtomicBool,
}

/// Set a hit block's bit. Read first: a hot block's bit is already set,
/// and a store would bounce its line between the cores that hit it.
fn mark(referenced: &AtomicBool) {
    if !referenced.load(Ordering::Relaxed) {
        referenced.store(true, Ordering::Relaxed);
    }
}

/// A table's slots, one per data block (a `BlockKey` table's grow to the
/// largest block inserted).
struct TableSlots {
    id: u64,
    /// Set under the write lock when the table retires: its slots are
    /// emptied and nothing is published into them again. Read under that
    /// lock, except by the ring's sweep, which a stale read only delays.
    retired: AtomicBool,
    slots: RwLock<Vec<Slot>>,
}

impl TableSlots {
    fn new(id: u64, blocks: usize) -> Arc<Self> {
        Arc::new(Self {
            id,
            retired: AtomicBool::new(false),
            slots: RwLock::new((0..blocks).map(|_| Slot::default()).collect()),
        })
    }
}

/// A new zeroed block buffer: one allocation, the `Arc`'s counts and the
/// bytes together.
pub(crate) fn new_block(len: usize) -> Arc<[u8]> {
    std::iter::repeat_n(0, len).collect()
}

/// A resident block, as its stripe's ring holds it.
struct Entry {
    table: Arc<TableSlots>,
    block_no: usize,
}

/// What a stripe's lock guards.
struct Clock {
    /// The stripe's resident blocks; the hand is the front, and a new block
    /// or a spared one goes to the back, a whole turn away.
    ring: VecDeque<Entry>,
    /// `BLOCK_BYTES`-long buffers with one owner, at most `SPARES`.
    spares: Vec<Arc<[u8]>>,
}

impl Clock {
    /// Keep an evicted block's buffer for the next miss, if it is whole, a
    /// place is free and nobody else holds it: a reader that does keeps its
    /// bytes, and the buffer is freed when the reader is done.
    fn keep_spare(&mut self, mut block: Arc<[u8]>) {
        let spare = block.len() == BLOCK_BYTES
            && self.spares.len() < SPARES
            && Arc::get_mut(&mut block).is_some();
        if spare {
            self.spares.push(block);
        }
    }
}

struct Stripe {
    clock: Mutex<Clock>,
    /// Ring entries whose table retired since the ring was last swept. A
    /// retirement empties slots without the stripe's lock; the hand skips
    /// what it left, and an insert sweeps the ring once it is half stale.
    stale: AtomicUsize,
}

/// The engine-wide cache: the byte ledger that blocks and open
/// `TableReader`s both charge, the slots every open table's blocks are
/// found in, and the lock stripes a miss evicts through.
///
/// A standalone [`crate::Db`] builds one when `Options::block_cache_bytes`
/// is nonzero; a [`crate::sharding::ShardedDb`] builds exactly one and
/// threads it through every shard — including children created by live
/// splits — so the whole topology shares a single byte ceiling.
///
/// Two charge classes, one atomic each — total usage is *derived* as their
/// sum, so `used = blocks + tables` holds by construction:
/// * *block* bytes are *reserved* — `try_reserve` refuses to grow them past
///   `capacity - table bytes`, and an insert evicts until a reservation
///   succeeds, so block bytes never overshoot the ceiling at any instant;
/// * *pinned* bytes (table handles, filters, index models) are charged
///   unconditionally — a table the engine needs open cannot be refused —
///   and block evictions compensate on the next reservation.
pub struct BlockCache {
    stripes: Box<[Stripe]>,
    /// `stripes.len() - 1`; the count is a power of two.
    mask: usize,
    /// Every table with slots, by id: the `BlockKey` entry points' way in.
    tables: RwLock<HashMap<u64, Arc<TableSlots>>>,
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

    /// `stripes` is rounded up to a power of two.
    fn with_stripes(capacity: usize, stripes: usize) -> Self {
        let n = stripes.max(1).next_power_of_two();
        let stripe = |_| Stripe {
            clock: Mutex::new(Clock {
                ring: VecDeque::new(),
                spares: Vec::with_capacity(SPARES),
            }),
            stale: AtomicUsize::new(0),
        };
        Self {
            stripes: (0..n).map(stripe).collect(),
            mask: n - 1,
            tables: RwLock::default(),
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

    fn stripe_of(&self, key: BlockKey) -> usize {
        (mix64(key.table_id ^ key.block_no.rotate_left(32)) >> 32) as usize & self.mask
    }

    /// Fetch a block, setting its reference bit.
    pub fn get(&self, key: BlockKey) -> Option<Arc<[u8]>> {
        let tables = self.tables.read();
        match tables.get(&key.table_id) {
            Some(table) => Resident::new(self, table).get(key.block_no),
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

    /// Run `clock`'s hand until it evicts a block, keeping its buffer; false
    /// when the ring ran out first. A referenced block is passed over once —
    /// its bit cleared, to the back — but no more than a turn's worth of
    /// them: readers setting bits as fast as the hand clears them cannot
    /// stall an insert.
    fn evict_one(&self, clock: &mut Clock) -> bool {
        let mut spare_turn = clock.ring.len();
        while let Some(entry) = clock.ring.pop_front() {
            let mut slots = entry.table.slots.write();
            // A retired table's entries are stale: its slots are gone.
            let Some(slot) = slots.get_mut(entry.block_no) else {
                continue;
            };
            if std::mem::take(slot.referenced.get_mut()) && spare_turn > 0 {
                spare_turn -= 1;
                drop(slots);
                clock.ring.push_back(entry);
                continue;
            }
            let block = slot.block.take().expect("a ring entry's slot is resident");
            drop(slots);
            self.release(block.len());
            self.evictions.fetch_add(1, Ordering::Relaxed);
            clock.keep_spare(block);
            return true;
        }
        false
    }

    /// Reserve `bytes`, evicting with `clock`'s hand until they fit; false
    /// when the stripe ran out of blocks first.
    fn fund(&self, clock: &mut Clock, bytes: usize) -> bool {
        loop {
            if self.try_reserve(bytes) {
                return true;
            }
            if !self.evict_one(clock) {
                return false;
            }
        }
    }

    /// A `len`-byte buffer, its contents arbitrary, for the block about to
    /// be read from the device and inserted under `key`: a spare of the
    /// key's own stripe — where that insert's eviction will leave the next —
    /// or a new one. The `Arc` has one owner.
    pub(crate) fn buffer(&self, key: BlockKey, len: usize) -> Arc<[u8]> {
        if len == BLOCK_BYTES {
            let own = &self.stripes[self.stripe_of(key)];
            if let Some(spare) = own.clock.lock().spares.pop() {
                return spare;
            }
        }
        new_block(len)
    }

    /// Insert (or refresh) a copy of a block of any table, registered or
    /// not.
    pub fn insert(&self, key: BlockKey, data: Arc<Vec<u8>>) {
        self.insert_block(key, Arc::from(data.as_slice()));
    }

    /// [`BlockCache::insert`] of the block itself: the `Arc` is what the
    /// slot keeps.
    fn insert_block(&self, key: BlockKey, data: Arc<[u8]>) {
        let table = Arc::clone(
            self.tables
                .write()
                .entry(key.table_id)
                .or_insert_with(|| TableSlots::new(key.table_id, 0)),
        );
        self.publish(&table, key.block_no, data);
    }

    /// Publish `data` as block `block_no` of `table`, in one hold of its
    /// stripe's lock. Bytes are reserved against the budget *first*; the
    /// stripe's hand makes room, so the budget is never overshot. A stripe
    /// is a uniform sample of the traffic (see `stripe_of`), so its hand
    /// finds blocks as cold as any. Only when it has nothing left to evict —
    /// pinned charges or an oversized block took it all — is its lock
    /// dropped and the other stripes' hands run in order, one lock at a
    /// time. When every block is gone and pinned charges still leave no
    /// room, the insert is dropped — pinned components win — and so is one
    /// into a table that retired meanwhile. A refresh takes the old
    /// version's place, ring entry and bit included.
    fn publish(&self, table: &Arc<TableSlots>, block_no: u64, data: Arc<[u8]>) {
        let own = self.stripe_of(BlockKey {
            table_id: table.id,
            block_no,
        });
        let stripe = &self.stripes[own];
        let mut clock = stripe.clock.lock();
        while !self.fund(&mut clock, data.len()) {
            drop(clock);
            let swept = (1..=self.mask)
                .any(|off| self.evict_one(&mut self.stripes[(own + off) & self.mask].clock.lock()));
            if !swept {
                return; // nothing left to evict; the block does not fit
            }
            clock = stripe.clock.lock();
        }
        let b = block_no as usize;
        let mut slots = table.slots.write();
        if table.retired.load(Ordering::Relaxed) {
            drop(slots);
            self.release(data.len());
            return;
        }
        if b >= slots.len() {
            slots.resize_with(b + 1, Slot::default);
        }
        let old = slots[b].block.replace(data);
        drop(slots);
        match old {
            Some(old) => {
                self.release(old.len());
                clock.keep_spare(old);
            }
            None => clock.ring.push_back(Entry {
                table: Arc::clone(table),
                block_no: b,
            }),
        }
        self.insertions.fetch_add(1, Ordering::Relaxed);
        if 2 * stripe.stale.load(Ordering::Relaxed) > clock.ring.len() {
            stripe.stale.store(0, Ordering::Relaxed);
            clock
                .ring
                .retain(|e| !e.table.retired.load(Ordering::Relaxed));
        }
    }

    /// Retire `table`'s slots: its resident blocks leave the budget now —
    /// dropped, not kept as spares (a compaction retires thousands at once)
    /// — and nothing is published into them again. Their ring entries go
    /// stale, counted per stripe.
    fn retire(&self, table: &Arc<TableSlots>) {
        let slots = {
            let mut slots = table.slots.write();
            table.retired.store(true, Ordering::Relaxed);
            std::mem::take(&mut *slots)
        };
        let (mut blocks, mut bytes) = (0, 0);
        for (b, slot) in slots.into_iter().enumerate() {
            if let Some(block) = slot.block {
                (blocks, bytes) = (blocks + 1, bytes + block.len());
                let key = BlockKey {
                    table_id: table.id,
                    block_no: b as u64,
                };
                self.stripes[self.stripe_of(key)]
                    .stale
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        self.release(bytes);
        self.evictions.fetch_add(blocks, Ordering::Relaxed);
        let mut tables = self.tables.write();
        if tables.get(&table.id).is_some_and(|t| Arc::ptr_eq(t, table)) {
            tables.remove(&table.id);
        }
    }

    /// Drop every cached block of the tables in `table_ids` (their files
    /// were deleted). An open reader's table retired here caches nothing
    /// more; a later `insert` of an unregistered id starts it afresh.
    pub fn evict_tables(&self, table_ids: &[u64]) {
        for id in table_ids {
            let table = self.tables.read().get(id).cloned();
            if let Some(table) = table {
                self.retire(&table);
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

/// An open table's place in the cache — its slots and its handle's pinned
/// charge — held by its `TableReader` and given back when that drops.
pub(crate) struct CachedTable {
    cache: Arc<BlockCache>,
    slots: Arc<TableSlots>,
    pinned: usize,
}

impl CachedTable {
    /// Charge `pinned` bytes and register `blocks` slots for table `id`.
    pub(crate) fn new(cache: Arc<BlockCache>, id: u64, blocks: usize, pinned: usize) -> Self {
        cache.charge_table(pinned);
        let slots = TableSlots::new(id, blocks);
        cache.tables.write().insert(id, Arc::clone(&slots));
        Self {
            cache,
            slots,
            pinned,
        }
    }

    /// One read of the slots, for a fetch's whole cover.
    pub(crate) fn resident(&self) -> Resident<'_> {
        Resident::new(&self.cache, &self.slots)
    }

    /// The buffer block `block_no` is read into (`BlockCache::buffer`).
    pub(crate) fn buffer(&self, block_no: u64, len: usize) -> Arc<[u8]> {
        let key = BlockKey {
            table_id: self.slots.id,
            block_no,
        };
        self.cache.buffer(key, len)
    }

    /// Offer block `block_no`, as read, to the cache.
    pub(crate) fn insert(&self, block_no: u64, data: Arc<[u8]>) {
        self.cache.publish(&self.slots, block_no, data);
    }
}

impl Drop for CachedTable {
    fn drop(&mut self) {
        self.cache.release_table(self.pinned);
        self.cache.retire(&self.slots);
    }
}

/// One read of a table's slots: the resident blocks a fetch finds, or a
/// lookup's whole cover borrowed in place, each marked referenced. Its
/// hits and misses are added to the cache's counters once, when it drops.
pub(crate) struct Resident<'a> {
    cache: &'a BlockCache,
    slots: RwLockReadGuard<'a, Vec<Slot>>,
    hits: u64,
    misses: u64,
}

impl<'a> Resident<'a> {
    fn new(cache: &'a BlockCache, table: &'a TableSlots) -> Self {
        Self {
            cache,
            slots: table.slots.read(),
            hits: 0,
            misses: 0,
        }
    }

    /// Block `block_no`, if resident.
    pub(crate) fn get(&mut self, block_no: u64) -> Option<Arc<[u8]>> {
        let Some(Slot {
            block: Some(block),
            referenced,
        }) = self.slots.get(block_no as usize)
        else {
            self.misses += 1;
            return None;
        };
        mark(referenced);
        self.hits += 1;
        Some(Arc::clone(block))
    }

    /// Blocks `first..=last`, borrowed for as long as this hold lasts, if
    /// every one is resident: each is then marked and counted a hit, as
    /// `get` would. If one is not, nothing is marked or counted.
    pub(crate) fn cover(&mut self, first: u64, last: u64) -> Option<Cover<'_>> {
        let slots = self.slots.get(first as usize..=last as usize)?;
        if !slots.iter().all(|slot| slot.block.is_some()) {
            return None;
        }
        slots.iter().for_each(|slot| mark(&slot.referenced));
        self.hits += slots.len() as u64;
        Some(Cover(slots))
    }
}

/// Consecutive resident blocks of one table, borrowed under its slot lock
/// (`Resident::cover`): no `Arc` is cloned or dropped to read them.
pub(crate) struct Cover<'a>(&'a [Slot]);

impl<'a> Cover<'a> {
    /// The cover's `i`-th block.
    #[inline]
    pub(crate) fn block(&self, i: usize) -> &'a [u8] {
        self.0[i].block.as_deref().expect("a cover is resident")
    }
}

impl Drop for Resident<'_> {
    fn drop(&mut self) {
        if self.hits > 0 {
            self.cache.hits.fetch_add(self.hits, Ordering::Relaxed);
        }
        if self.misses > 0 {
            self.cache.misses.fetch_add(self.misses, Ordering::Relaxed);
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
    use std::collections::BTreeMap;

    fn key(t: u64, b: u64) -> BlockKey {
        BlockKey {
            table_id: t,
            block_no: b,
        }
    }

    fn block(fill: u8, len: usize) -> Arc<Vec<u8>> {
        Arc::new(vec![fill; len])
    }

    /// A block as the slots keep it, for `insert_block`.
    fn shared(fill: u8, len: usize) -> Arc<[u8]> {
        Arc::from(vec![fill; len])
    }

    /// Single-stripe cache: one clock over every block.
    fn unsharded(capacity: usize) -> BlockCache {
        BlockCache::with_stripes(capacity, 1)
    }

    /// `key`'s slot, looked at without setting its bit: (resident, referenced).
    fn peek(c: &BlockCache, key: BlockKey) -> (bool, bool) {
        let tables = c.tables.read();
        let Some(table) = tables.get(&key.table_id) else {
            return (false, false);
        };
        let slots = table.slots.read();
        slots
            .get(key.block_no as usize)
            .map_or((false, false), |s| {
                (s.block.is_some(), s.referenced.load(Ordering::Relaxed))
            })
    }

    fn resident(c: &BlockCache, key: BlockKey) -> bool {
        peek(c, key).0
    }

    impl CachedTable {
        /// Every slot of the table, looked at without setting its bit:
        /// (resident, referenced).
        pub(crate) fn slot_states(&self) -> Vec<(bool, bool)> {
            let slots = self.slots.slots.read();
            let state = |s: &Slot| (s.block.is_some(), s.referenced.load(Ordering::Relaxed));
            slots.iter().map(state).collect()
        }
    }

    /// Live (not retired) ring entries per stripe: its resident blocks.
    fn stripe_lens(c: &BlockCache) -> Vec<usize> {
        let live = |clock: &Clock| {
            let ring = clock.ring.iter();
            ring.filter(|e| !e.table.retired.load(Ordering::Relaxed))
                .count()
        };
        c.stripes.iter().map(|s| live(&s.clock.lock())).collect()
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

    /// The second-chance rule on one stripe: a block is inserted
    /// unreferenced, a hit sets its bit, and the hand clears the bit once
    /// before it evicts the block.
    #[test]
    fn lru_eviction_order() {
        let c = unsharded(3 * 4096);
        for b in 0..3 {
            c.insert(key(1, b), block(b as u8, 4096));
            assert_eq!(peek(&c, key(1, b)), (true, false), "inserted unreferenced");
        }
        c.get(key(1, 0)).unwrap();
        assert_eq!(peek(&c, key(1, 0)), (true, true), "a hit sets the bit");
        // The hand meets block 0 first, clears its bit and evicts block 1.
        c.insert(key(1, 3), block(3, 4096));
        assert!(
            !resident(&c, key(1, 1)),
            "block 1 was the first unreferenced"
        );
        assert_eq!(peek(&c, key(1, 0)), (true, false), "block 0 had its chance");
        // Block 2 goes next, then block 0: its bit was cleared, not kept.
        c.insert(key(1, 4), block(4, 4096));
        assert!(!resident(&c, key(1, 2)) && resident(&c, key(1, 0)));
        c.insert(key(1, 5), block(5, 4096));
        assert!(!resident(&c, key(1, 0)));
        assert!((3..6).all(|b| resident(&c, key(1, b))));
        assert_eq!(c.used_bytes(), 3 * 4096);
    }

    #[test]
    fn reinsert_updates_in_place() {
        let c = BlockCache::new(1 << 16);
        c.insert(key(1, 0), block(1, 4096));
        c.insert(key(1, 0), block(2, 4096));
        assert_eq!(c.get(key(1, 0)).unwrap()[0], 2);
        assert_eq!(c.used_bytes(), 4096);
        assert_eq!(stripe_lens(&c).iter().sum::<usize>(), 1, "one ring entry");
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
        // A retired id inserted again starts afresh.
        c.insert(key(1, 0), block(4, 100));
        assert_eq!(c.get(key(1, 0)).unwrap()[0], 4);
    }

    /// The ring holds one entry per resident block however many went
    /// through, and a retired table's entries are swept once they are half
    /// of it.
    #[test]
    fn slots_recycled_after_eviction() {
        let c = unsharded(2 * 4096);
        for b in 0..100u64 {
            c.insert(key(1, b), block(b as u8, 4096));
        }
        let ring = |c: &BlockCache| c.stripes[0].clock.lock().ring.len();
        assert_eq!(ring(&c), 2);

        let c = unsharded(64 * 4096);
        for b in 0..64u64 {
            c.insert(key(1, b), block(1, 4096));
        }
        c.evict_tables(&[1]);
        assert_eq!((c.block_bytes(), ring(&c)), (0, 64), "stale until swept");
        c.insert(key(2, 0), block(2, 4096));
        assert_eq!(ring(&c), 1);
    }

    fn spare_bytes(c: &BlockCache) -> usize {
        let of = |clock: &Clock| clock.spares.iter().map(|b| b.len()).sum::<usize>();
        c.stripes.iter().map(|s| of(&s.clock.lock())).sum()
    }

    #[test]
    fn an_evicted_buffer_is_the_next_one_unless_a_reader_holds_it() {
        let c = unsharded(BLOCK_BYTES);
        let held = shared(1, BLOCK_BYTES);
        c.insert_block(key(1, 0), Arc::clone(&held));
        // Evicted while a reader holds it: dropped by the cache, not kept.
        let second = shared(2, BLOCK_BYTES);
        let second_at = Arc::as_ptr(&second);
        c.insert_block(key(1, 1), second);
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
            c.insert_block(key(table, b), c.buffer(key(table, b), BLOCK_BYTES));
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
            stripe.clock.lock().spares.clear();
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
        // in. Each burst block runs its own stripe's hand, and a stripe
        // holds a uniform sample of both populations, so the hand meets
        // the cold blocks first: the burst ends up resident, funded by
        // every stripe. (Four stripes whatever the host: at 256 blocks over
        // 64 stripes a stripe holds four, and the sample is too small to be
        // uniform.)
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

    /// The hit share of an exact LRU of `capacity` blocks over `trace`.
    fn exact_lru_hit_share(trace: impl Iterator<Item = (u64, u64)>, capacity: usize) -> f64 {
        let mut last_use = HashMap::new();
        let mut by_age = BTreeMap::new();
        let (mut hits, mut gets) = (0u64, 0u64);
        for (at, block) in trace.enumerate() {
            gets += 1;
            match last_use.insert(block, at) {
                Some(before) => {
                    by_age.remove(&before);
                    hits += 1;
                }
                None if last_use.len() > capacity => {
                    let (_, oldest) = by_age.pop_first().unwrap();
                    last_use.remove(&oldest);
                }
                None => {}
            }
            by_age.insert(at, block);
        }
        hits as f64 / gets as f64
    }

    /// The evidence that a clock per stripe costs no hits: one skewed trace
    /// over 8x the capacity, through an exact global LRU (a model, here)
    /// and through 1, 4, 16 and 64 stripes that each run only their own
    /// hand.
    #[test]
    fn own_stripe_eviction_matches_global_lru_on_zipfian_reads() {
        const CAPACITY: usize = 4096;
        const LEN: usize = 64;
        const GETS: usize = 200_000;
        let data = shared(0, LEN);
        let hit_share = |stripes: usize| {
            let c = BlockCache::with_stripes(CAPACITY * LEN, stripes);
            for (table, block_no) in zipfian_trace(8 * CAPACITY, GETS) {
                if c.get(key(table, block_no)).is_none() {
                    c.insert_block(key(table, block_no), Arc::clone(&data));
                    assert!(c.used_bytes() <= c.capacity_bytes());
                }
            }
            let (hits, misses) = c.hit_miss();
            hits as f64 / (hits + misses) as f64
        };
        let lru = exact_lru_hit_share(zipfian_trace(8 * CAPACITY, GETS), CAPACITY);
        assert!(lru > 0.5, "the trace must be cacheable: {lru}");
        for stripes in [1, 4, 16, 64] {
            let clock = hit_share(stripes);
            assert!(
                (clock - lru).abs() < 0.01,
                "{stripes} stripes hit {clock:.4}, exact LRU {lru:.4}"
            );
        }
    }

    /// Nothing evens out the stripes but the hash: with tables retired
    /// under the readers and pinned charges taking up to half the budget
    /// and giving it back, no stripe grows past twice the mean.
    #[test]
    fn stripes_stay_balanced_under_table_eviction_and_pinned_charges() {
        const CAPACITY: usize = 4096;
        const LEN: usize = 64;
        const STEP: usize = CAPACITY * LEN / 64;
        let data = shared(0, LEN);
        let c = BlockCache::with_stripes(CAPACITY * LEN, 64);
        let mut generation = [0u64; 32];
        let mut pinned = 0;
        let mut worst = 0f64;
        for (i, (table, block_no)) in zipfian_trace(8 * CAPACITY, 200_000).enumerate() {
            let id = table + 32 * generation[table as usize];
            if c.get(key(id, block_no)).is_none() {
                c.insert_block(key(id, block_no), Arc::clone(&data));
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
        let _guard = c.stripes[c.stripe_of(key(1, 0))].clock.lock();
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
