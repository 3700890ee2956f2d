//! `TableIter`: the sequential cursor over one table, in either of its two
//! read modes.
//!
//! A user scan's cursor reads a chunk of entries at a time through
//! [`TableReader::fetch_blocks`]: from the cache where a block is resident,
//! and, when its read options say so, filling it. A compaction input, and a
//! level model's training pass ([`TableReader::read_all_keys`]), is a
//! *sweep* ([`TableIter::sweep`]): it reads its table front to back in
//! block-aligned runs of `SWEEP_BLOCKS` blocks into one buffer it keeps,
//! carrying an entry cut by a run's end to the buffer's front — one device
//! call per run, each block read once, no cache consulted or filled and no
//! allocation after the first run.

use std::sync::Arc;

use learned_index::SearchBound;

use super::fetch::{Entries, Span};
use super::TableReader;
use crate::iter::Cursor;
use crate::sstable::format;
use crate::types::InternalKey;
use crate::Result;

/// How a [`TableIter`] reads past what it holds.
enum Refill {
    /// A chunk of `chunk_entries` at a time through the cache, filling it
    /// when `fill_cache` (`ReadOptions::fill_cache`).
    Chunks { fill_cache: bool },
    /// Sweep runs into the span's one buffer, which holds the file's bytes
    /// from entry `lo` up to offset `end`.
    Sweep { end: usize },
}

/// Sequential cursor over one table. It holds the bytes as fetched — what
/// `seek` searched, then one chunk (or sweep run) per refill — and reads
/// keys and values where they lie. A chunked refill fetches one I/O block's
/// worth of entries (the paper's range-lookup implementation reads one
/// 4096-byte block per step) and carries the blocks the old span shares
/// with the new one, so one pass asks the cache or the device for each
/// block once.
pub struct TableIter {
    reader: Arc<TableReader>,
    /// Entry under the cursor.
    pos: usize,
    /// The bytes of entries `[lo, hi)`.
    span: Span,
    lo: usize,
    hi: usize,
    /// Where the last seek landed: chunks end every `chunk_entries` from here.
    origin: usize,
    /// Value length of the entry at `pos`, from the header `key` decoded.
    vlen: usize,
    /// Entries fetched per chunked refill.
    chunk_entries: usize,
    refill: Refill,
    scratch: Vec<u8>,
}

impl TableIter {
    /// New chunked cursor at the first entry, with an explicit cache fill
    /// policy.
    pub fn with_fill(reader: Arc<TableReader>, fill_cache: bool) -> Self {
        Self::new(reader, Refill::Chunks { fill_cache })
    }

    /// New sweep cursor at the first entry: the read mode of compaction
    /// inputs. It reads its table in whole-block runs and never touches the
    /// cache. Compaction only reads it from the front; a seek still lands
    /// anywhere, because the [`Cursor`] contract requires one.
    pub(crate) fn sweep(reader: Arc<TableReader>) -> Self {
        Self::new(reader, Refill::Sweep { end: 0 })
    }

    fn new(reader: Arc<TableReader>, refill: Refill) -> Self {
        let chunk_entries = (4096 / reader.entry_width).max(1);
        Self {
            reader,
            pos: 0,
            span: Span::Buf(Vec::new()),
            lo: 0,
            hi: 0,
            origin: 0,
            vlen: 0,
            chunk_entries,
            refill,
            scratch: Vec::new(),
        }
    }

    /// Value slot width of the table under the cursor.
    pub(crate) fn value_width(&self) -> usize {
        self.reader.value_width
    }

    /// The whole on-disk slot — header, value, padding — of the entry whose
    /// key [`Cursor::key`] last returned: what a merge into a table of the
    /// same width copies as is.
    #[inline]
    pub(crate) fn slot(&mut self) -> &[u8] {
        let width = self.reader.entry_width;
        let off = (self.pos - self.lo) * width;
        self.span.bytes(off, width, &mut self.scratch)
    }

    /// Park at entry `pos`, holding `span` as entries `[lo, hi)`.
    fn park(&mut self, pos: usize, span: Span, lo: usize, hi: usize) {
        (self.pos, self.origin) = (pos, pos);
        (self.span, self.lo, self.hi) = (span, lo, hi);
    }

    /// Park at entry `pos` holding nothing; a sweep keeps its buffer.
    fn park_empty(&mut self, pos: usize) {
        match &mut self.refill {
            Refill::Chunks { .. } => self.park(pos, Span::Buf(Vec::new()), 0, 0),
            Refill::Sweep { end } => {
                *end = pos * self.reader.entry_width;
                (self.pos, self.lo, self.hi) = (pos, pos, pos);
            }
        }
    }

    /// Sweep: hold entries from `from` on, at least up to `to`, reading on
    /// from what the buffer holds of them.
    fn sweep_to(&mut self, from: usize, to: usize) -> Result<()> {
        let (Refill::Sweep { end }, Span::Buf(buf)) = (&mut self.refill, &mut self.span) else {
            unreachable!("a sweep holds one buffer");
        };
        let r = &*self.reader;
        let held = self.lo * r.entry_width..*end;
        *end = r.sweep_run(buf, held, from, to)?;
        (self.lo, self.hi) = (from, *end / r.entry_width);
        Ok(())
    }
}

// The per-entry calls are inlined: `LevelIter` calls them from another
// module, and out of line a scan's `next` measured about 20 % slower. `key`
// is the large one and sat on the inliner's threshold — an unrelated edit
// elsewhere in the crate pushed it out of line (`scan_kops` −9 % on
// `get-hot`) — so it does not leave the decision to a hint.
impl Cursor for TableIter {
    /// One index prediction and one bounded read, which stays held as the
    /// first chunk (or the first sweep run, which reads on to its run's
    /// end): reading on from here fetches nothing the search did.
    fn seek(&mut self, key: u64) -> Result<()> {
        let r = &*self.reader;
        if r.n == 0 || key <= r.min_key || key > r.max_key {
            self.park_empty(if key > r.max_key { r.n } else { 0 });
            return Ok(());
        }
        let bound = r.index.predict(key);
        let pos = match self.refill {
            Refill::Chunks { fill_cache } => {
                let span = r.fetch_blocks(bound, fill_cache, None)?;
                let pos = bound.lo + r.lower_bound_in(&span, bound.hi - bound.lo, key);
                self.park(pos, span, bound.lo, bound.hi);
                pos
            }
            Refill::Sweep { .. } => {
                self.sweep_to(bound.lo, bound.hi)?;
                let count = bound.hi - bound.lo;
                let pos = bound.lo + self.reader.lower_bound_in(&self.span, count, key);
                (self.pos, self.origin) = (pos, pos);
                pos
            }
        };
        // The learned bound contains the insertion point for absent keys at
        // its edge in rare rounding cases; walk forward defensively.
        while pos == bound.hi && self.key()?.is_some_and(|k| k.user_key < key) {
            self.pos += 1;
        }
        Ok(())
    }

    fn seek_to_first(&mut self) {
        self.park_empty(0);
    }

    #[inline(always)]
    fn key(&mut self) -> Result<Option<InternalKey>> {
        let r = &*self.reader;
        if self.pos >= r.n {
            return Ok(None);
        }
        if self.pos >= self.hi {
            match self.refill {
                Refill::Chunks { fill_cache } => {
                    // Refill up to the next chunk edge.
                    let chunks = (self.pos - self.origin) / self.chunk_entries + 1;
                    let hi = (self.origin + chunks * self.chunk_entries).min(r.n);
                    let bound = SearchBound { lo: self.pos, hi };
                    self.span = r.fetch_blocks(bound, fill_cache, Some((&self.span, self.lo)))?;
                    (self.lo, self.hi) = (self.pos, hi);
                }
                Refill::Sweep { .. } => self.sweep_to(self.pos, self.pos + 1)?,
            }
        }
        let r = &*self.reader;
        let off = (self.pos - self.lo) * r.entry_width;
        let header = self
            .span
            .bytes(off, format::ENTRY_HEADER, &mut self.scratch);
        let (key, vlen) = format::decode_header(header, r.value_width)?;
        self.vlen = vlen;
        Ok(Some(key))
    }

    #[inline]
    fn value(&mut self) -> &[u8] {
        let off = (self.pos - self.lo) * self.reader.entry_width + format::ENTRY_HEADER;
        self.span.bytes(off, self.vlen, &mut self.scratch)
    }

    #[inline]
    fn advance(&mut self) {
        self.pos += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::super::fetch::{CACHE_BLOCK, SWEEP_BLOCKS};
    use super::super::tests::make_table;
    use super::*;
    use crate::cache::BlockCache;
    use crate::options::IndexChoice;
    use crate::sstable::builder::TableBuilder;
    use crate::types::{Entry, EntryKind};
    use crate::Error;
    use learned_index::IndexKind;
    use lsm_io::{CostModel, SimStorage, Storage};

    const RUN: u64 = SWEEP_BLOCKS as u64 * CACHE_BLOCK;

    /// `n` entries of `value_width`-byte values (`key as u8` repeated, seq
    /// = position + 1, every seventh a tombstone) as `t.sst`.
    fn write_table(storage: &dyn Storage, n: u64, value_width: usize) -> Vec<u64> {
        let keys: Vec<u64> = (0..n).map(|i| i * 4 + 10).collect();
        let file = storage.create("t.sst").unwrap();
        let index = IndexChoice::new(IndexKind::Pgm, 8);
        let mut b = TableBuilder::new(file, "t.sst".into(), index, value_width, 10);
        for (i, &k) in keys.iter().enumerate() {
            let seq = i as u64 + 1;
            let e = match i % 7 {
                6 => Entry::tombstone(k, seq),
                _ => Entry::put(k, seq, vec![k as u8; value_width]),
            };
            b.add(&e).unwrap();
        }
        b.finish().unwrap();
        keys
    }

    /// Walk `it` from where it stands to the end, checking every entry of
    /// `keys` from `from` on — key, seq, kind, value, and the slot against
    /// the file's own bytes.
    fn walk(it: &mut TableIter, keys: &[u64], from: usize, file: &[u8], what: &str) {
        let width = it.reader.entry_width();
        for (i, &k) in keys.iter().enumerate().skip(from) {
            let key = it.key().unwrap().expect("an entry");
            let (kind, value) = match i % 7 {
                6 => (EntryKind::Delete, vec![]),
                _ => (EntryKind::Put, vec![k as u8; it.value_width()]),
            };
            assert_eq!(
                (key.user_key, key.seq, key.kind),
                (k, i as u64 + 1, kind),
                "{what}"
            );
            assert_eq!(it.value(), value, "{what} entry {i}");
            assert_eq!(
                it.slot(),
                &file[i * width..(i + 1) * width],
                "{what} entry {i}"
            );
            it.advance();
        }
        assert_eq!(it.key().unwrap(), None, "{what}");
    }

    /// A sweep reads the whole data section once, a device call per
    /// 16-block run, and every entry comes back whole — at 136-byte slots,
    /// which straddle block and run edges (4 096 = 30 × 136 + 16), and at
    /// 128-byte slots, which never do; from a cached reader, too, whose
    /// cache it neither asks nor fills. Then a table shorter than one run
    /// (one call) and an empty table (none).
    #[test]
    fn a_sweep_reads_each_block_once_a_call_per_run() {
        for (value_width, n) in [(100, 2_000), (92, 2_000), (100, 20), (92, 0)] {
            let storage = SimStorage::new(CostModel::default());
            let keys = write_table(&storage, n, value_width);
            let file = lsm_io::read_all(&storage, "t.sst").unwrap();
            let data = n * (value_width as u64 + 36);
            let blocks = data.div_ceil(CACHE_BLOCK);
            let cache = Arc::new(BlockCache::new(1 << 20));
            for cached in [false, true] {
                let what = format!("width {value_width}, {n} entries, cached {cached}");
                let cache = cached.then(|| Arc::clone(&cache));
                let reader = TableReader::open_with(&storage, "t.sst", cache).unwrap();
                let before = storage.stats().snapshot();
                let mut it = TableIter::sweep(Arc::new(reader));
                it.seek_to_first();
                walk(&mut it, &keys, 0, &file, &what);
                let read = storage.stats().snapshot().since(&before);
                let runs = data.div_ceil(RUN);
                assert_eq!(
                    (read.read_calls, read.read_blocks),
                    (runs, blocks),
                    "{what}"
                );
                assert_eq!(read.read_bytes, data, "{what}: no byte past the entries");
            }
            assert_eq!(cache.hit_miss(), (0, 0), "never asked");
            assert_eq!(cache.block_bytes(), 0, "never filled");
        }
    }

    /// A seek lands where a chunked cursor's does, and the sweep reads on
    /// from the boundary the seek searched: a first run from the
    /// boundary's first byte to the 16th block edge after it, then whole
    /// runs — each block from the boundary's first to the last once.
    #[test]
    fn a_sweep_seeks_mid_table_then_reads_to_the_end() {
        for value_width in [100, 92] {
            let storage = SimStorage::new(CostModel::default());
            let keys = write_table(&storage, 3_000, value_width);
            let file = lsm_io::read_all(&storage, "t.sst").unwrap();
            let reader = Arc::new(TableReader::open(&storage, "t.sst").unwrap());
            let width = reader.entry_width() as u64;
            let data = 3_000 * width;
            for probe in [11, 400, 4_001, 6_000, 9_999, 11_995, 12_006] {
                let what = format!("width {value_width}, probe {probe}");
                let bound = reader.index().predict(probe);
                let start = bound.lo as u64 * width;
                let first_end = (start / CACHE_BLOCK * CACHE_BLOCK + RUN)
                    .max((bound.hi as u64 * width).next_multiple_of(CACHE_BLOCK))
                    .min(data);
                let runs = 1 + (data - first_end).div_ceil(RUN);
                let blocks = data.div_ceil(CACHE_BLOCK) - start / CACHE_BLOCK;

                let before = storage.stats().snapshot();
                let mut it = TableIter::sweep(Arc::clone(&reader));
                it.seek(probe).unwrap();
                let want = keys.partition_point(|&k| k < probe);
                walk(&mut it, &keys, want, &file, &what);
                let read = storage.stats().snapshot().since(&before);
                assert_eq!(
                    (read.read_calls, read.read_blocks),
                    (runs, blocks),
                    "{what}"
                );

                // Past the last key: nothing to read.
                it.seek(keys[2_999] + 1).unwrap();
                assert_eq!(it.key().unwrap(), None, "{what}");
            }
        }
    }

    /// A damaged entry in the middle of a run is `Error::Corruption` where
    /// it lies; every entry before it reads right.
    #[test]
    fn a_sweep_over_a_damaged_entry_is_corruption() {
        let storage = SimStorage::new(CostModel::default());
        let keys = write_table(&storage, 600, 100);
        let mut bytes = lsm_io::read_all(&storage, "t.sst").unwrap();
        // Entry 217 lies inside the second run, not at its edge.
        bytes[217 * 136 + 24] = 9;
        storage.create("t.sst").unwrap().append(&bytes).unwrap();
        let reader = TableReader::open(&storage, "t.sst").unwrap();
        let mut it = TableIter::sweep(Arc::new(reader));
        it.seek_to_first();
        for &k in &keys[..217] {
            assert_eq!(it.key().unwrap().map(|key| key.user_key), Some(k));
            it.advance();
        }
        assert!(matches!(it.key(), Err(Error::Corruption(_))));
    }

    #[test]
    fn seek_position_matches_partition_point() {
        let keys: Vec<u64> = (0..3_000u64).map(|i| i * 10).collect();
        for kind in [IndexKind::Pgm, IndexKind::FencePointers, IndexKind::Rmi] {
            let (_s, r) = make_table(&keys, kind);
            let mut it = TableIter::with_fill(r, true);
            for probe in [0u64, 5, 10, 29_990, 29_995, 30_000, 123_456] {
                it.seek(probe).unwrap();
                let want = keys.partition_point(|&k| k < probe);
                assert_eq!(it.pos, want, "{kind} probe={probe}");
                let at = it.key().unwrap().map(|k| k.user_key);
                assert_eq!(at, keys.get(want).copied(), "{kind} probe={probe}");
            }
        }
    }

    #[test]
    fn iterator_scans_in_order() {
        let keys: Vec<u64> = (0..500u64).map(|i| i * 3).collect();
        let (_s, r) = make_table(&keys, IndexKind::RadixSpline);
        let mut it = TableIter::with_fill(r, true);
        it.seek_to_first();
        let mut seen = Vec::new();
        while let Some(key) = it.key().unwrap() {
            assert_eq!(it.value(), format!("val-{}", key.user_key).as_bytes());
            seen.push(key.user_key);
            it.advance();
        }
        assert_eq!(seen, keys);
    }

    #[test]
    fn iterator_seek_mid_stream() {
        let keys: Vec<u64> = (0..500u64).map(|i| i * 3).collect();
        let (_s, r) = make_table(&keys, IndexKind::Plex);
        let mut it = TableIter::with_fill(r, true);
        it.seek(100).unwrap(); // between 99 and 102
        let first = it.key().unwrap().unwrap().user_key;
        assert_eq!(first, 102);
        assert_eq!(it.pos, 34);
    }
}
