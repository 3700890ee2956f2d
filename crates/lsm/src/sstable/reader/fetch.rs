//! Where device bytes arrive: the span a lookup or a cursor searches, and the
//! reads that fill it.
//!
//! A lookup or a user scan's chunk reads through the cache. A cached block
//! is found through the table's own slots in the cache, read once per cover
//! under one read lock: a cover that hits takes no other lock. A lookup
//! whose cover is wholly resident goes no further: it is searched where the
//! blocks lie, inside that hold ([`TableReader::search_resident`]), with no
//! `Arc` cloned and no block list built; the hold then spans the search,
//! which is CPU only. Any other cover is fetched into a [`Span`], and a
//! cursor keeps what it fetched. A missed block is written once. A run of
//! blocks nobody had is one device call
//! ([`lsm_io::RandomAccessFile::read_exact_vectored_at`]) straight into one
//! buffer per block — a filling read's buffers are the cache's
//! ([`crate::cache::BlockCache::buffer`]: what its last evictions left) —
//! and the `Arc`s that were filled are the ones the span holds and the
//! cache is offered: no run buffer, no zeroing, no copy, and in steady
//! state no allocation for block storage.
//!
//! A sweep ([`TableReader::sweep_run`]) bypasses all of that: it reads
//! `SWEEP_BLOCKS` whole blocks at a time into the one buffer its cursor
//! keeps, one device call per run, and neither asks nor fills the cache.
//! Compaction inputs and level-model training read this way: they pass
//! over each block once, and their blocks die with the tables they read.

use std::sync::Arc;

use learned_index::SearchBound;

use super::{TableIter, TableReader};
use crate::cache::{new_block, Cover, BLOCK_BYTES};
use crate::iter::Cursor;
use crate::Result;

/// Cache block granularity (matches the device model's 4 KiB blocks).
pub(super) const CACHE_BLOCK: u64 = BLOCK_BYTES as u64;

/// Blocks one sweep run reads (64 KiB): a sixteenth of the device calls of
/// reading block by block, and a buffer small enough to keep one per input
/// of a wide compaction.
pub(super) const SWEEP_BLOCKS: usize = 16;

/// The bytes of a run of fixed-width entries, as a search reads them.
pub(super) trait Entries {
    /// `len` bytes at offset `off` of the run: borrowed in place, or — only
    /// when they straddle a block edge — stitched into `scratch`.
    fn bytes<'a>(&'a self, off: usize, len: usize, scratch: &'a mut Vec<u8>) -> &'a [u8];
}

/// `len` bytes at offset `at` of consecutive blocks, `block(i)` the `i`-th
/// (every one but the file's last `CACHE_BLOCK` long): borrowed in place,
/// or stitched into `scratch` when they straddle a block edge.
#[inline]
fn stitch<'a>(
    block: impl Fn(usize) -> &'a [u8],
    at: usize,
    len: usize,
    scratch: &'a mut Vec<u8>,
) -> &'a [u8] {
    let (mut b, mut o) = (at / CACHE_BLOCK as usize, at % CACHE_BLOCK as usize);
    let bytes = block(b);
    if o + len <= bytes.len() {
        return &bytes[o..o + len];
    }
    scratch.clear();
    while scratch.len() < len {
        let bytes = block(b);
        let take = (len - scratch.len()).min(bytes.len() - o);
        scratch.extend_from_slice(&bytes[o..o + take]);
        (b, o) = (b + 1, 0);
    }
    scratch
}

/// The bytes of a run of fixed-width entries, as fetched.
pub(super) enum Span {
    /// One positional read into one buffer (no cache attached).
    Buf(Vec<u8>),
    /// Consecutive cached blocks, shared with the cache; the run starts
    /// `skip` bytes into the first.
    Blocks { blocks: Vec<Arc<[u8]>>, skip: usize },
}

impl Entries for Span {
    #[inline]
    fn bytes<'a>(&'a self, off: usize, len: usize, scratch: &'a mut Vec<u8>) -> &'a [u8] {
        match self {
            Span::Buf(buf) => &buf[off..off + len],
            Span::Blocks { blocks, skip } => stitch(|b| &blocks[b], skip + off, len, scratch),
        }
    }
}

/// A resident cover, searched where it lies in the cache; the run starts
/// `skip` bytes into its first block.
pub(super) struct InPlace<'a> {
    cover: Cover<'a>,
    skip: usize,
}

impl Entries for InPlace<'_> {
    #[inline]
    fn bytes<'a>(&'a self, off: usize, len: usize, scratch: &'a mut Vec<u8>) -> &'a [u8] {
        stitch(|b| self.cover.block(b), self.skip + off, len, scratch)
    }
}

impl Span {
    /// Block `b` of the file, if this span — whose run starts at file offset
    /// `at` — holds it.
    fn block(&self, at: u64, b: u64) -> Option<&Arc<[u8]>> {
        match self {
            Span::Buf(_) => None,
            Span::Blocks { blocks, .. } => blocks.get(b.checked_sub(at / CACHE_BLOCK)? as usize),
        }
    }
}

impl TableReader {
    /// The blocks covering entries `[bound.lo, bound.hi)` (not empty), and
    /// where in the first of them the entries start.
    fn cover_of(&self, bound: SearchBound) -> (u64, u64, usize) {
        let off = (bound.lo * self.entry_width) as u64;
        let end = (bound.hi * self.entry_width) as u64;
        let first = off / CACHE_BLOCK;
        (
            first,
            (end - 1) / CACHE_BLOCK,
            (off - first * CACHE_BLOCK) as usize,
        )
    }

    /// Run `search` over entries `[bound.lo, bound.hi)` (not empty) where
    /// they lie in the cache, if every block covering them is resident:
    /// under the one read-mode hold of the table's slots that a fetch takes,
    /// marking and counting the same hits, with no `Arc` cloned and no block
    /// list built. `None`, with nothing marked or counted, when a block is
    /// not resident or no cache is attached: the caller fetches instead.
    pub(super) fn search_resident<R>(
        &self,
        bound: SearchBound,
        search: impl FnOnce(&InPlace<'_>) -> R,
    ) -> Option<R> {
        let (first, last, skip) = self.cover_of(bound);
        let mut resident = self.cache.as_ref()?.resident();
        let cover = resident.cover(first, last)?;
        Some(search(&InPlace { cover, skip }))
    }

    /// Fetch entries `[bound.lo, bound.hi)`: one positional read when no
    /// cache is attached, otherwise the 4 KiB blocks covering them, from
    /// the cache or, a run of misses at a time, the device. A no-fill fetch
    /// is served from resident blocks but never inserts, so scans and
    /// compactions cannot evict the point-lookup working set.
    pub(super) fn fetch(&self, bound: SearchBound, fill_cache: bool) -> Result<Span> {
        if self.cache.is_some() {
            return self.fetch_blocks(bound, fill_cache, None);
        }
        let mut buf = vec![0u8; (bound.hi - bound.lo) * self.entry_width];
        self.file
            .read_exact_at((bound.lo * self.entry_width) as u64, &mut buf)?;
        Ok(Span::Buf(buf))
    }

    /// The 4 KiB blocks covering entries `[bound.lo, bound.hi)`, in order.
    /// A block that `held` — a cursor's previous span and the entry its run
    /// starts at — already has is taken from there, the next from the
    /// table's slots, each maximal run of blocks nobody had in one device
    /// call. The slots are read once for the blocks up to the end of the
    /// first such run and the one that ends it, so a cover that hits is one
    /// read lock, and a block found after a run is taken before the run is
    /// read — what the run inserts cannot evict it. With no cache every
    /// block not held is such a run.
    pub(super) fn fetch_blocks(
        &self,
        bound: SearchBound,
        fill_cache: bool,
        held: Option<(&Span, usize)>,
    ) -> Result<Span> {
        if bound.is_empty() {
            return Ok(Span::Buf(Vec::new()));
        }
        let (first, last, skip) = self.cover_of(bound);
        let held = |b| held.and_then(|(span, lo)| span.block((lo * self.entry_width) as u64, b));
        let mut blocks = Vec::with_capacity((last - first + 1) as usize);
        let mut b = first;
        while b <= last {
            // The run `run..b` nobody had, and the block found after it.
            let (mut run, mut after) = (None, None);
            let mut resident = self.cache.as_ref().map(|cache| cache.resident());
            while b <= last {
                let found = held(b).cloned().or_else(|| resident.as_mut()?.get(b));
                match (found, run) {
                    (Some(block), None) => blocks.push(block),
                    (Some(block), Some(_)) => {
                        after = Some(block);
                        break;
                    }
                    (None, None) => run = Some(b),
                    (None, Some(_)) => {}
                }
                b += 1;
            }
            drop(resident);
            if let Some(run) = run {
                self.read_blocks(run, b - 1, fill_cache, &mut blocks)?;
            }
            if let Some(block) = after {
                blocks.push(block);
                b += 1;
            }
        }
        Ok(Span::Blocks { blocks, skip })
    }

    /// Read blocks `first..=last` of the file (its last block is short) in
    /// one device call, each into its own buffer, and push them onto
    /// `blocks`. A filling read of a cached table takes the buffers from
    /// the cache and offers each block back to it — the same `Arc`, so the
    /// bytes are written once — and the cache admits what its budget can
    /// hold.
    fn read_blocks(
        &self,
        first: u64,
        last: u64,
        fill_cache: bool,
        blocks: &mut Vec<Arc<[u8]>>,
    ) -> Result<()> {
        let cache = self.cache.as_ref().filter(|_| fill_cache);
        let end = ((last + 1) * CACHE_BLOCK).min(self.file.len());
        let held = blocks.len();
        blocks.extend((first..=last).map(|b| {
            let len = end.saturating_sub(b * CACHE_BLOCK).min(CACHE_BLOCK) as usize;
            match cache {
                Some(cache) => cache.buffer(b, len),
                None => new_block(len),
            }
        }));
        let mut bufs: Vec<&mut [u8]> = blocks[held..]
            .iter_mut()
            .map(|block| &mut Arc::get_mut(block).expect("a new buffer has one owner")[..])
            .collect();
        self.file
            .read_exact_vectored_at(first * CACHE_BLOCK, &mut bufs)?;
        if let Some(cache) = cache {
            for (b, block) in (first..).zip(&blocks[held..]) {
                cache.insert(b, Arc::clone(block));
            }
        }
        Ok(())
    }

    /// A sweep's next run. `buf` holds the file's bytes `held`; entry
    /// `from` on is wanted, at least up to entry `to`. What `buf` holds of
    /// them moves to its front — at most the one entry a run's end cut —
    /// and the rest of the run is read after it in one device call: up to
    /// the end of the `SWEEP_BLOCKS`-th block from where the read starts,
    /// or further if entry `to` ends later, and never past the last entry.
    /// So runs after the first start on a block edge and every block is
    /// read once. Returns the file offset `buf`'s bytes now end at.
    pub(super) fn sweep_run(
        &self,
        buf: &mut Vec<u8>,
        held: std::ops::Range<usize>,
        from: usize,
        to: usize,
    ) -> Result<usize> {
        let (width, block) = (self.entry_width, CACHE_BLOCK as usize);
        let (start, data_end) = (from * width, self.n * width);
        let (kept, read_at) = if held.contains(&start) {
            buf.copy_within(start - held.start..held.end - held.start, 0);
            (held.end - start, held.end)
        } else {
            (0, start)
        };
        let run_end = (read_at / block + SWEEP_BLOCKS) * block;
        let end = run_end
            .max((to * width).next_multiple_of(block))
            .min(data_end);
        let len = kept + (end - read_at);
        if buf.len() < len {
            // Room for a run and a carried entry, zeroed once per cursor.
            let room = (SWEEP_BLOCKS * block + width).min(data_end);
            buf.resize(len.max(room), 0);
        }
        if end > read_at {
            self.file
                .read_exact_at(read_at as u64, &mut buf[kept..len])?;
        }
        Ok(end)
    }

    /// All user keys, read by one sweep (what a level's model is trained
    /// over): a device call per run, and the block cache is left as it was
    /// — training a model must not evict the read working set.
    pub fn read_all_keys(self: &Arc<Self>) -> Result<Vec<u64>> {
        let mut keys = Vec::with_capacity(self.n);
        let mut sweep = TableIter::sweep(Arc::clone(self));
        while let Some(key) = sweep.key()? {
            keys.push(key.user_key);
            sweep.advance();
        }
        Ok(keys)
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{make_table, write_wide_table};
    use super::super::TableIter;
    use super::*;
    use crate::cache::BlockCache;
    use crate::iter::Cursor;
    use crate::stats::DbStats;
    use crate::types::SeqNo;
    use crate::Error;
    use learned_index::IndexKind;
    use lsm_io::{CostModel, FaultStorage, MemStorage, SimStorage, Storage};

    const MAX: SeqNo = u64::MAX >> 8;
    /// Entries 61..180 of the wide table lie in blocks 2..=5; entries 61,
    /// 91, 121 and 151 each lie whole in one of them, in order.
    const COVER: SearchBound = SearchBound { lo: 61, hi: 180 };

    fn open(storage: &dyn Storage, capacity: usize) -> (TableReader, Arc<BlockCache>) {
        let cache = Arc::new(BlockCache::new(capacity));
        let reader = TableReader::open_with(storage, "t.sst", Some(Arc::clone(&cache)));
        (reader.unwrap(), cache)
    }

    /// Make the block entry `at` lies in resident.
    fn warm(reader: &TableReader, at: usize) {
        let one = SearchBound { lo: at, hi: at + 1 };
        reader.fetch(one, true).unwrap();
    }

    fn bytes_of(span: &Span, len: usize) -> Vec<u8> {
        span.bytes(0, len, &mut Vec::new()).to_vec()
    }

    /// A cover with one resident block costs a device call per gap: one when
    /// the block is at either end, two when it is inside — the same blocks
    /// a block-by-block fetch read, the bytes and the answer an uncached
    /// reader's. And the budget still holds when a run is larger than the
    /// room left: the run is read whole, the cache admits what fits.
    #[test]
    fn a_partly_resident_cover_reads_only_its_gaps() {
        let storage = SimStorage::new(CostModel::default());
        let keys = write_wide_table(&storage, IndexKind::Pgm);
        let plain = TableReader::open(&storage, "t.sst").unwrap();
        let len = (COVER.hi - COVER.lo) * 136;
        let want = bytes_of(&plain.fetch(COVER, true).unwrap(), len);
        let value = Some(Some(vec![keys[100] as u8; 100]));
        let stats = DbStats::new();
        for (resident, calls) in [(61, 1), (91, 2), (121, 2), (151, 1)] {
            let (cached, cache) = open(&storage, 1 << 20);
            warm(&cached, resident);
            let before = storage.stats().snapshot();
            let got = cached.get_in_positions(keys[100], COVER.lo, COVER.hi, MAX, &stats);
            let read = storage.stats().snapshot().since(&before);
            assert_eq!(got.unwrap(), value, "resident {resident}");
            let read = (read.read_calls, read.read_blocks, read.read_bytes);
            assert_eq!(read, (calls, 3, 3 * CACHE_BLOCK), "resident {resident}");
            assert_eq!(cache.hit_miss(), (1, 4), "resident {resident}");
            let span = cached.fetch(COVER, true).unwrap();
            assert_eq!(bytes_of(&span, len), want, "resident {resident}");
            assert_eq!(cache.hit_miss(), (5, 4), "all four were admitted");
        }

        // Room for two blocks beside the handle's pinned bytes, a run of
        // three (entries 61..150 lie in blocks 2..=4).
        let pinned = open(&storage, 1 << 20).1.table_bytes();
        let (cached, cache) = open(&storage, pinned + 2 * CACHE_BLOCK as usize + 100);
        let before = storage.stats().snapshot();
        let got = cached.get_in_positions(keys[100], 61, 150, MAX, &stats);
        let read = storage.stats().snapshot().since(&before);
        assert_eq!(got.unwrap(), value);
        assert_eq!((read.read_calls, read.read_blocks), (1, 3));
        assert!(cache.used_bytes() <= cache.capacity_bytes());
        assert_eq!(cache.block_bytes(), 2 * CACHE_BLOCK as usize);
        assert_eq!(cache.hit_miss(), (0, 3), "each block asked for once");
    }

    /// A lookup whose cover is resident searches it where it lies, any other
    /// fetches it; either way the answer, the device reads, every slot's
    /// bits and the cache's counters are what a fetch leaves. Checked on a
    /// resident cover, one with a hole (in the middle where it has one), a
    /// cold one, for a key and an absent key, on covers of blocks 2..=5,
    /// of blocks 0..=1 (entry 30 straddles their edge: 4096 = 30 × 136 +
    /// 16) and of blocks 12..=13 (the file's last, short block). A third
    /// reader warmed alike shows the route: in place only when whole, and a
    /// peek that finds a hole marks and counts nothing.
    #[test]
    fn in_place_and_fetched_lookups_leave_the_same_cache() {
        let storage = SimStorage::new(CostModel::default());
        let keys = write_wide_table(&storage, IndexKind::Pgm);
        // An entry that lies whole in block `b`.
        let inside = |b: u64| (b * CACHE_BLOCK) as usize / 136 + 1;
        let covers = [
            (COVER, 100),
            (SearchBound { lo: 25, hi: 35 }, 30),
            (SearchBound { lo: 380, hi: 400 }, 395),
        ];
        for (bound, at) in covers {
            let first = (bound.lo * 136) as u64 / CACHE_BLOCK;
            let last = (bound.hi * 136 - 1) as u64 / CACHE_BLOCK;
            let hole = (first + last).div_ceil(2);
            let whole: Vec<u64> = (first..=last).collect();
            let holed: Vec<u64> = (first..=last).filter(|&b| b != hole).collect();
            for key in [keys[at], keys[at] + 1] {
                for warm_blocks in [&whole, &holed, &Vec::new()] {
                    let what = format!("entries {bound:?}, key {key}, warm {warm_blocks:?}");
                    let warmed = || {
                        let (reader, cache) = open(&storage, 1 << 20);
                        for (i, &b) in warm_blocks.iter().enumerate() {
                            warm(&reader, inside(b));
                            if i == 0 {
                                warm(&reader, inside(b)); // referenced
                            }
                        }
                        (reader, cache)
                    };
                    let states = |r: &TableReader| r.cache.as_ref().unwrap().slot_states();
                    let (in_place, in_place_cache) = warmed();
                    let (fetched, fetched_cache) = warmed();

                    let (probe, probe_cache) = warmed();
                    let before = (probe_cache.stats(), states(&probe));
                    let routed = probe.search_resident(bound, |_| ()).is_some();
                    assert_eq!(routed, warm_blocks.len() == whole.len(), "{what}");
                    if !routed {
                        assert_eq!((probe_cache.stats(), states(&probe)), before, "{what}");
                    }

                    let io = storage.stats().snapshot();
                    let stats = DbStats::new();
                    let got = in_place.get_in_positions(key, bound.lo, bound.hi, MAX, &stats);
                    let in_place_io = storage.stats().snapshot().since(&io);
                    let io = storage.stats().snapshot();
                    let span = fetched.fetch(bound, true).unwrap();
                    let want = fetched.find(&span, bound, key, MAX).unwrap();
                    let fetched_io = storage.stats().snapshot().since(&io);
                    assert_eq!(got.unwrap(), want, "{what}");
                    let value = keys.binary_search(&key).ok().map(|_| vec![key as u8; 100]);
                    assert_eq!(want, value.map(Some), "{what}");
                    let reads = |io: lsm_io::IoStatsSnapshot| (io.read_calls, io.read_blocks);
                    assert_eq!(reads(in_place_io), reads(fetched_io), "{what}");
                    assert_eq!(in_place_cache.stats(), fetched_cache.stats(), "{what}");
                    assert_eq!(states(&in_place), states(&fetched), "{what}");
                }
            }
        }
    }

    /// A run whose read fails is `Error::Io` from a get and from a seek —
    /// no panic, no span served short — and the cache holds what it held:
    /// the failed get's only trace is its probe of the one resident block
    /// (the cover's last, so the run before it is what fails). Healed, the
    /// same get is right.
    #[test]
    fn a_failed_run_read_is_a_typed_error_and_inserts_nothing() {
        let (storage, faults) = FaultStorage::wrap(Arc::new(MemStorage::new()));
        let keys = write_wide_table(&*storage, IndexKind::Pgm);
        let (reader, cache) = open(&*storage, 1 << 20);
        let reader = Arc::new(reader);
        let stats = DbStats::new();
        let get = || reader.get_in_positions(keys[100], COVER.lo, COVER.hi, MAX, &stats);
        warm(&reader, 151);
        let mut before = cache.stats();

        faults.poison("t.sst");
        assert!(matches!(get(), Err(Error::Io(_))));
        (before.block_hits, before.block_misses) = (before.block_hits + 1, before.block_misses + 3);
        assert_eq!(cache.stats(), before);
        let mut it = TableIter::with_fill(Arc::clone(&reader), true);
        assert!(matches!(it.seek(keys[100]), Err(Error::Io(_))));
        let after = cache.stats();
        assert_eq!(
            after.block_hits, before.block_hits,
            "entry 100 is not in block 5"
        );
        assert_eq!(after.block_insertions, before.block_insertions);
        assert_eq!(cache.block_bytes(), CACHE_BLOCK as usize);

        faults.heal();
        assert_eq!(get().unwrap(), Some(Some(vec![keys[100] as u8; 100])));
        assert_eq!(cache.block_bytes(), 4 * CACHE_BLOCK as usize);
    }

    /// A buffer is reused only when the evicted block's `Arc` had no other
    /// owner. A span and a parked cursor hold blocks of a two-block cache
    /// through a storm of misses that evicts them and recycles every buffer
    /// it can: what they hold keeps its bytes, and every answer is right.
    /// (Without the uniqueness check a held block becomes a spare, and the
    /// next miss in its stripe panics in `read_blocks`.)
    #[test]
    fn a_block_a_cursor_holds_is_never_rewritten() {
        let storage = MemStorage::new();
        let keys = write_wide_table(&storage, IndexKind::Pgm);
        let plain = TableReader::open(&storage, "t.sst").unwrap();
        let pinned = open(&storage, 1 << 20).1.table_bytes();
        let (reader, cache) = open(&storage, pinned + 2 * CACHE_BLOCK as usize);
        let reader = Arc::new(reader);
        let stats = DbStats::new();

        // Entries 61..120 are blocks 2 and 3, whole: the cache's two.
        let two = SearchBound { lo: 61, hi: 120 };
        let len = (two.hi - two.lo) * 136;
        let want = bytes_of(&plain.fetch(two, true).unwrap(), len);
        let held = reader.fetch(two, true).unwrap();
        assert_eq!(cache.block_bytes(), 2 * CACHE_BLOCK as usize);
        // The seek's blocks take their place; the cursor holds those.
        let mut it = TableIter::with_fill(Arc::clone(&reader), true);
        it.seek(keys[200]).unwrap();

        for _ in 0..50 {
            for at in (0..keys.len()).step_by(31) {
                let got = reader.get_in_positions(keys[at], at, at + 1, MAX, &stats);
                assert_eq!(got.unwrap(), Some(Some(vec![keys[at] as u8; 100])));
                assert!(cache.used_bytes() <= cache.capacity_bytes());
            }
        }
        let evictions = cache.stats().block_evictions;
        assert!(evictions > 500, "a storm of misses: {evictions}");

        assert_eq!(bytes_of(&held, len), want);
        for &k in &keys[200..] {
            assert_eq!(it.key().unwrap().map(|ik| ik.user_key), Some(k));
            assert_eq!(it.value(), vec![k as u8; 100]);
            it.advance();
        }
        assert_eq!(it.key().unwrap(), None);
    }

    /// Training reads through one sweep: a device call per 16-block run —
    /// 5 for these 74 blocks of entries, where a 4 096-entry chunk per call
    /// made 2 before the sweep replaced the chunk loop (the same blocks,
    /// in 64 KiB runs rather than 240 KiB chunks) — on a cached reader too,
    /// whose cache it neither asks nor fills.
    #[test]
    fn read_all_keys_roundtrip() {
        let keys: Vec<u64> = (0..5_000u64).map(|i| i * 13 + 5).collect();
        let (storage, r) = make_table(&keys, IndexKind::Pgm);
        assert_eq!(r.read_all_keys().unwrap(), keys);
        let (cached, cache) = open(&storage, 1 << 20);
        let before = storage.stats().snapshot();
        assert_eq!(Arc::new(cached).read_all_keys().unwrap(), keys);
        let read = storage.stats().snapshot().since(&before);
        assert_eq!(read.read_calls, 5);
        assert_eq!(cache.hit_miss(), (0, 0));
        assert_eq!(cache.block_bytes(), 0);
    }
}
