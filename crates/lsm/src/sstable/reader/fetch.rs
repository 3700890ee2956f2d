//! Where device bytes arrive: the span a lookup or a cursor searches, and the
//! reads that fill it.
//!
//! A cached block is found through the table's own slots in the cache, read
//! once per cover under one read lock: a cover that hits takes no other
//! lock. A missed block is written once. A run of blocks nobody had is one
//! device call ([`lsm_io::RandomAccessFile::read_exact_vectored_at`])
//! straight into one buffer per block — a filling read's buffers are the
//! cache's ([`crate::cache::BlockCache::buffer`]: what its last evictions
//! left) — and the `Arc`s that were filled are the ones the span holds and
//! the cache is offered: no run buffer, no zeroing, no copy, and in steady
//! state no allocation for block storage.

use std::sync::Arc;

use learned_index::SearchBound;

use super::TableReader;
use crate::cache::BLOCK_BYTES;
use crate::Result;

/// Cache block granularity (matches the device model's 4 KiB blocks).
pub(super) const CACHE_BLOCK: u64 = BLOCK_BYTES as u64;

/// The bytes of a run of fixed-width entries, as fetched.
pub(super) enum Span {
    /// One positional read into one buffer (no cache attached).
    Buf(Vec<u8>),
    /// Consecutive cached blocks, borrowed; the run starts `skip` bytes into
    /// the first. Every block but the file's last is `CACHE_BLOCK` long.
    Blocks {
        blocks: Vec<Arc<Vec<u8>>>,
        skip: usize,
    },
}

impl Span {
    /// `len` bytes at offset `off` of the run: borrowed in place, or — only
    /// when they straddle a block edge — stitched into `scratch`.
    #[inline]
    pub(super) fn bytes<'a>(
        &'a self,
        off: usize,
        len: usize,
        scratch: &'a mut Vec<u8>,
    ) -> &'a [u8] {
        match self {
            Span::Buf(buf) => &buf[off..off + len],
            Span::Blocks { blocks, skip } => {
                let at = skip + off;
                let (mut b, mut o) = (at / CACHE_BLOCK as usize, at % CACHE_BLOCK as usize);
                if o + len <= blocks[b].len() {
                    return &blocks[b][o..o + len];
                }
                scratch.clear();
                while scratch.len() < len {
                    let take = (len - scratch.len()).min(blocks[b].len() - o);
                    scratch.extend_from_slice(&blocks[b][o..o + take]);
                    (b, o) = (b + 1, 0);
                }
                scratch
            }
        }
    }

    /// Block `b` of the file, if this span — whose run starts at file offset
    /// `at` — holds it.
    fn block(&self, at: u64, b: u64) -> Option<&Arc<Vec<u8>>> {
        match self {
            Span::Buf(_) => None,
            Span::Blocks { blocks, .. } => blocks.get(b.checked_sub(at / CACHE_BLOCK)? as usize),
        }
    }
}

impl TableReader {
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
        let off = (bound.lo * self.entry_width) as u64;
        let len = ((bound.hi - bound.lo) * self.entry_width) as u64;
        if len == 0 {
            return Ok(Span::Buf(Vec::new()));
        }
        let first = off / CACHE_BLOCK;
        let last = (off + len - 1) / CACHE_BLOCK;
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
        Ok(Span::Blocks {
            blocks,
            skip: (off - first * CACHE_BLOCK) as usize,
        })
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
        blocks: &mut Vec<Arc<Vec<u8>>>,
    ) -> Result<()> {
        let cache = self.cache.as_ref().filter(|_| fill_cache);
        let end = ((last + 1) * CACHE_BLOCK).min(self.file.len());
        let held = blocks.len();
        blocks.extend((first..=last).map(|b| {
            let len = end.saturating_sub(b * CACHE_BLOCK).min(CACHE_BLOCK) as usize;
            match cache {
                Some(cache) => cache.buffer(b, len),
                None => Arc::new(vec![0; len]),
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

    /// All user keys, read sequentially (what a level's model is trained
    /// over). A one-shot full-table sweep: it never fills the block cache —
    /// training a model must not evict the read working set.
    pub fn read_all_keys(&self) -> Result<Vec<u64>> {
        let mut keys = Vec::with_capacity(self.n);
        const CHUNK_ENTRIES: usize = 4096;
        let mut pos = 0usize;
        let mut scratch = Vec::new();
        while pos < self.n {
            let hi = (pos + CHUNK_ENTRIES).min(self.n);
            let span = self.fetch(SearchBound { lo: pos, hi }, false)?;
            keys.extend((0..hi - pos).map(|i| self.span_key(&span, i, &mut scratch)));
            pos = hi;
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

    /// A training sweep is a device call per 4 096-entry chunk on a cached
    /// reader too, and leaves the cache empty.
    #[test]
    fn read_all_keys_roundtrip() {
        let keys: Vec<u64> = (0..5_000u64).map(|i| i * 13 + 5).collect();
        let (storage, r) = make_table(&keys, IndexKind::Pgm);
        assert_eq!(r.read_all_keys().unwrap(), keys);
        let (cached, cache) = open(&storage, 1 << 20);
        let before = storage.stats().snapshot();
        assert_eq!(cached.read_all_keys().unwrap(), keys);
        let read = storage.stats().snapshot().since(&before);
        assert_eq!(read.read_calls, 2);
        assert_eq!(cache.block_bytes(), 0);
    }
}
