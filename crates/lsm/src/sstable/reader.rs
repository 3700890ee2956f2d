//! SSTable reader — the paper's `InternalGet` and `NewIter` interfaces.
//!
//! A point lookup is exactly the paper's four-stage pipeline (Table 1):
//! table locate (done by the caller), *prediction* (inner index + model),
//! *disk I/O* (one `pread` of the position boundary), and *binary search*
//! within the fetched range. Each stage is timed into [`DbStats`].

use std::sync::Arc;
use std::time::Instant;

use learned_index::{IndexKind, SearchBound, SegmentIndex};

use crate::bloom::BloomFilter;
use crate::cache::{BlockKey, EngineCache, TABLE_HANDLE_OVERHEAD};
use crate::options::SearchStrategy;
use crate::sstable::format::{self, Footer};
use crate::stats::DbStats;
use crate::types::{Entry, SeqNo};
use crate::{Error, Result};
use lsm_io::{RandomAccessFile, Storage};

/// Cache block granularity (matches the device model's 4 KiB blocks).
const CACHE_BLOCK: u64 = 4096;

/// An open, immutable SSTable.
pub struct TableReader {
    file: Arc<dyn RandomAccessFile>,
    name: String,
    n: usize,
    value_width: usize,
    entry_width: usize,
    min_key: u64,
    max_key: u64,
    index: Box<dyn SegmentIndex>,
    bloom: BloomFilter,
    cache: Option<Arc<EngineCache>>,
    /// Bytes charged against the cache budget while this handle is open
    /// (index model + bloom + fixed overhead); released on drop.
    pinned_bytes: usize,
    table_id: u64,
    search: SearchStrategy,
}

/// Process-unique table ids for cache keys.
fn next_table_id() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl std::fmt::Debug for TableReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TableReader")
            .field("name", &self.name)
            .field("n", &self.n)
            .field("min_key", &self.min_key)
            .field("max_key", &self.max_key)
            .field("index_kind", &self.index.kind())
            .finish()
    }
}

impl TableReader {
    /// Open `name` from `storage`, loading index + bloom into memory.
    pub fn open(storage: &dyn Storage, name: &str) -> Result<Self> {
        Self::open_with(storage, name, None)
    }

    /// Open with an optional shared engine cache. Block reads go through
    /// the cache's block half; the handle's resident bytes (index model +
    /// bloom filter + fixed overhead) are charged against the shared
    /// budget as *pinned* for as long as the reader lives.
    pub fn open_with(
        storage: &dyn Storage,
        name: &str,
        cache: Option<Arc<EngineCache>>,
    ) -> Result<Self> {
        let file = storage.open_read(name)?;
        let len = file.len();
        if len < format::FOOTER_LEN as u64 {
            return Err(Error::Corruption(format!("{name}: too short ({len} B)")));
        }
        let mut fbuf = vec![0u8; format::FOOTER_LEN];
        file.read_exact_at(len - format::FOOTER_LEN as u64, &mut fbuf)?;
        let footer = Footer::decode(&fbuf)?;

        let mut ibuf = vec![0u8; footer.index_len as usize];
        file.read_exact_at(footer.index_off, &mut ibuf)?;
        let index = IndexKind::decode(&ibuf)?;
        if index.key_count() != footer.n as usize {
            return Err(Error::Corruption(format!(
                "{name}: index covers {} keys, footer says {}",
                index.key_count(),
                footer.n
            )));
        }

        let mut bbuf = vec![0u8; footer.bloom_len as usize];
        file.read_exact_at(footer.bloom_off, &mut bbuf)?;
        let bloom = BloomFilter::decode(&bbuf)
            .ok_or_else(|| Error::Corruption(format!("{name}: bad bloom payload")))?;

        let pinned_bytes = match &cache {
            Some(c) => {
                let bytes = index.size_bytes() + bloom.size_bytes() + TABLE_HANDLE_OVERHEAD;
                c.charge_table(bytes);
                bytes
            }
            None => 0,
        };
        Ok(Self {
            file,
            name: name.to_string(),
            n: footer.n as usize,
            value_width: footer.value_width as usize,
            entry_width: format::entry_width(footer.value_width as usize),
            min_key: footer.min_key,
            max_key: footer.max_key,
            index,
            bloom,
            cache,
            pinned_bytes,
            table_id: next_table_id(),
            search: SearchStrategy::Binary,
        })
    }

    /// Select the in-segment search strategy (builder style).
    pub fn with_search_strategy(mut self, search: SearchStrategy) -> Self {
        self.search = search;
        self
    }

    /// Process-unique id of this table (cache key component).
    pub fn table_id(&self) -> u64 {
        self.table_id
    }

    /// Table file name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Entry count.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Smallest user key.
    pub fn min_key(&self) -> u64 {
        self.min_key
    }

    /// Largest user key.
    pub fn max_key(&self) -> u64 {
        self.max_key
    }

    /// In-memory index size (the memory axis of the figures).
    pub fn index_bytes(&self) -> usize {
        self.index.size_bytes()
    }

    /// Bloom filter size in memory.
    pub fn bloom_bytes(&self) -> usize {
        self.bloom.size_bytes()
    }

    /// Index kind in use.
    pub fn index_kind(&self) -> IndexKind {
        self.index.kind()
    }

    /// The index itself (ablation benches swap predictions).
    pub fn index(&self) -> &dyn SegmentIndex {
        self.index.as_ref()
    }

    /// Width of one on-disk entry.
    pub fn entry_width(&self) -> usize {
        self.entry_width
    }

    /// Point lookup.
    ///
    /// * `Ok(None)` — key not in this table (search deeper).
    /// * `Ok(Some(None))` — tombstone visible at `snapshot` (stop searching).
    /// * `Ok(Some(Some(value)))` — live value.
    pub fn get(
        &self,
        key: u64,
        snapshot: SeqNo,
        stats: &DbStats,
    ) -> Result<Option<Option<Vec<u8>>>> {
        self.get_opts(key, snapshot, stats, true)
    }

    /// [`TableReader::get`] with an explicit block-cache fill policy: when
    /// `fill_cache` is false, blocks fetched for this lookup are served from
    /// the cache if present but never inserted into it
    /// (`ReadOptions::fill_cache`).
    pub fn get_opts(
        &self,
        key: u64,
        snapshot: SeqNo,
        stats: &DbStats,
        fill_cache: bool,
    ) -> Result<Option<Option<Vec<u8>>>> {
        if self.n == 0 || key < self.min_key || key > self.max_key {
            return Ok(None);
        }
        stats
            .bloom_checks
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        if !self.bloom.may_contain(key) {
            stats
                .bloom_negatives
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            return Ok(None);
        }

        // Stage: prediction (inner index + model).
        let t = Instant::now();
        let bound = self.index.predict(key);
        stats.add_predict_ns(t.elapsed().as_nanos() as u64);
        if bound.is_empty() {
            return Ok(None);
        }

        // Stage: disk I/O — one pread of the position boundary.
        let t = Instant::now();
        let buf = self.read_positions_opts(bound, fill_cache)?;
        stats.add_io_cpu_ns(t.elapsed().as_nanos() as u64);

        // Stage: binary search within the fetched range.
        let t = Instant::now();
        let result = self.search_buffer(&buf, bound, key, snapshot)?;
        stats.add_search_ns(t.elapsed().as_nanos() as u64);
        Ok(result)
    }

    /// Point lookup constrained to positions `[lo, hi)` — used by
    /// level-grained models that predict a range themselves and bypass the
    /// table's own index (Bourbon's `LevelModel`, paper Section 5.2). Stage
    /// timings for I/O and search are still recorded.
    pub fn get_in_positions(
        &self,
        key: u64,
        lo: usize,
        hi: usize,
        snapshot: SeqNo,
        stats: &DbStats,
    ) -> Result<Option<Option<Vec<u8>>>> {
        let bound = SearchBound {
            lo: lo.min(self.n),
            hi: hi.min(self.n),
        };
        if bound.is_empty() {
            return Ok(None);
        }
        let t = Instant::now();
        let buf = self.read_positions_opts(bound, true)?;
        stats.add_io_cpu_ns(t.elapsed().as_nanos() as u64);
        let t = Instant::now();
        let result = self.search_buffer(&buf, bound, key, snapshot)?;
        stats.add_search_ns(t.elapsed().as_nanos() as u64);
        Ok(result)
    }

    /// Read entries `[bound.lo, bound.hi)` in one positional read, through
    /// the block cache when one is attached, honouring `fill_cache`: a
    /// no-fill read is served from the cache when the blocks are resident
    /// but never inserts, so scans and compactions cannot evict the
    /// point-lookup working set.
    fn read_positions_opts(&self, bound: SearchBound, fill_cache: bool) -> Result<Vec<u8>> {
        let lo_byte = (bound.lo * self.entry_width) as u64;
        let len = (bound.hi - bound.lo) * self.entry_width;
        match &self.cache {
            None => {
                let mut buf = vec![0u8; len];
                self.file.read_exact_at(lo_byte, &mut buf)?;
                Ok(buf)
            }
            Some(cache) => self.read_span_cached(cache, lo_byte, len, fill_cache),
        }
    }

    /// Assemble `[off, off+len)` from cached 4 KiB blocks, loading misses
    /// from the device (inserted into the cache only when `fill_cache`).
    fn read_span_cached(
        &self,
        cache: &Arc<EngineCache>,
        off: u64,
        len: usize,
        fill_cache: bool,
    ) -> Result<Vec<u8>> {
        if len == 0 {
            return Ok(Vec::new());
        }
        let file_len = self.file.len();
        let first = off / CACHE_BLOCK;
        let last = (off + len as u64 - 1) / CACHE_BLOCK;
        let mut out = vec![0u8; len];
        for b in first..=last {
            let key = BlockKey {
                table_id: self.table_id,
                block_no: b,
            };
            let block = match cache.blocks().get(key) {
                Some(block) => block,
                None => {
                    let start = b * CACHE_BLOCK;
                    let blen = (CACHE_BLOCK).min(file_len.saturating_sub(start)) as usize;
                    let mut buf = vec![0u8; blen];
                    self.file.read_exact_at(start, &mut buf)?;
                    let block = Arc::new(buf);
                    if fill_cache {
                        cache.blocks().insert(key, Arc::clone(&block));
                    }
                    block
                }
            };
            // Copy this block's overlap with the requested span.
            let block_start = b * CACHE_BLOCK;
            let copy_from = off.max(block_start);
            let copy_to = (off + len as u64).min(block_start + block.len() as u64);
            if copy_from < copy_to {
                let src = (copy_from - block_start) as usize..(copy_to - block_start) as usize;
                let dst = (copy_from - off) as usize..(copy_to - off) as usize;
                out[dst].copy_from_slice(&block[src]);
            }
        }
        Ok(out)
    }

    /// Lower-bound position of `key` within the fetched buffer of `count`
    /// fixed-width entries, using the configured strategy.
    fn lower_bound_in(&self, buf: &[u8], count: usize, key: u64) -> usize {
        let key_at = |i: usize| format::decode_entry_key(&buf[i * self.entry_width..]);
        match self.search {
            SearchStrategy::Binary => {
                let mut lo = 0usize;
                let mut hi = count;
                while lo < hi {
                    let mid = (lo + hi) / 2;
                    if key_at(mid) < key {
                        lo = mid + 1;
                    } else {
                        hi = mid;
                    }
                }
                lo
            }
            SearchStrategy::Exponential => {
                // Gallop outward from the centre (the model's prediction sits
                // at the centre of the fetched boundary by construction).
                if count == 0 {
                    return 0;
                }
                let start = count / 2;
                let (mut lo, mut hi);
                if key_at(start) < key {
                    // Bracket to the right: [start+step/2, start+step].
                    let mut step = 1usize;
                    while start + step < count && key_at(start + step) < key {
                        step *= 2;
                    }
                    lo = start + step / 2;
                    hi = (start + step + 1).min(count);
                } else {
                    // Bracket to the left.
                    let mut step = 1usize;
                    while step <= start && key_at(start - step) >= key {
                        step *= 2;
                    }
                    lo = start.saturating_sub(step);
                    hi = start + 1;
                }
                while lo < hi {
                    let mid = (lo + hi) / 2;
                    if key_at(mid) < key {
                        lo = mid + 1;
                    } else {
                        hi = mid;
                    }
                }
                lo
            }
        }
    }

    /// Search the fetched fixed-width entries for `key`.
    fn search_buffer(
        &self,
        buf: &[u8],
        bound: SearchBound,
        key: u64,
        snapshot: SeqNo,
    ) -> Result<Option<Option<Vec<u8>>>> {
        let count = bound.hi - bound.lo;
        let lo = self.lower_bound_in(buf, count, key);
        if lo >= count {
            return Ok(None);
        }
        let off = lo * self.entry_width;
        let k = format::decode_entry_key(&buf[off..]);
        if k != key {
            return Ok(None);
        }
        let entry = format::decode_entry(&buf[off..], self.value_width)?;
        if entry.key.seq > snapshot {
            // The only version in this table is newer than the snapshot.
            return Ok(None);
        }
        Ok(Some(match entry.key.kind {
            crate::types::EntryKind::Put => Some(entry.value),
            crate::types::EntryKind::Delete => None,
        }))
    }

    /// Position of the first entry with user key ≥ `key` (= `n` if none),
    /// resolved with one index prediction + one bounded read, under an
    /// explicit cache fill policy.
    pub fn seek_position_opts(&self, key: u64, fill_cache: bool) -> Result<usize> {
        if self.n == 0 || key <= self.min_key {
            return Ok(0);
        }
        if key > self.max_key {
            return Ok(self.n);
        }
        let bound = self.index.predict(key);
        let buf = self.read_positions_opts(bound, fill_cache)?;
        let count = bound.hi - bound.lo;
        let lo = self.lower_bound_in(buf.as_slice(), count, key);
        let mut pos = bound.lo + lo;
        // The learned bound contains the insertion point for absent keys at
        // its edge in rare rounding cases; walk forward defensively.
        if lo == count {
            while pos < self.n && self.key_at(pos)? < key {
                pos += 1;
            }
        }
        Ok(pos)
    }

    /// Read the user key of the entry at `pos` (one small read).
    pub fn key_at(&self, pos: usize) -> Result<u64> {
        debug_assert!(pos < self.n);
        let mut kb = [0u8; lsm_workloads::KEY_LEN];
        self.file
            .read_exact_at((pos * self.entry_width) as u64, &mut kb)?;
        Ok(format::decode_entry_key(&kb))
    }

    /// Read entries `[lo, hi)` with one pread (compaction / range scans)
    /// under an explicit cache fill policy — compaction inputs and opt-out
    /// scans read with `fill_cache = false`.
    pub fn entries_in_opts(&self, lo: usize, hi: usize, fill_cache: bool) -> Result<Vec<Entry>> {
        let hi = hi.min(self.n);
        if lo >= hi {
            return Ok(Vec::new());
        }
        let buf = self.read_positions_opts(SearchBound { lo, hi }, fill_cache)?;
        let mut out = Vec::with_capacity(hi - lo);
        for i in 0..hi - lo {
            out.push(format::decode_entry(
                &buf[i * self.entry_width..],
                self.value_width,
            )?);
        }
        Ok(out)
    }

    /// All user keys, read sequentially (used to train level-grained
    /// models). A one-shot full-table sweep: it never fills the block
    /// cache — training a model must not evict the read working set.
    pub fn read_all_keys(&self) -> Result<Vec<u64>> {
        let mut keys = Vec::with_capacity(self.n);
        const CHUNK_ENTRIES: usize = 4096;
        let mut pos = 0usize;
        while pos < self.n {
            let hi = (pos + CHUNK_ENTRIES).min(self.n);
            let buf = self.read_positions_opts(SearchBound { lo: pos, hi }, false)?;
            for i in 0..hi - pos {
                keys.push(format::decode_entry_key(&buf[i * self.entry_width..]));
            }
            pos = hi;
        }
        Ok(keys)
    }
}

impl Drop for TableReader {
    fn drop(&mut self) {
        if let Some(cache) = &self.cache {
            cache.release_table(self.pinned_bytes);
        }
    }
}

/// Sequential cursor over one table, fetching one I/O block's worth of
/// entries at a time (the paper's range-lookup implementation reads one
/// 4096-byte block per step).
pub struct TableIter {
    reader: Arc<TableReader>,
    pos: usize,
    chunk: Vec<Entry>,
    chunk_start: usize,
    /// Entries fetched per refill.
    chunk_entries: usize,
    /// Whether this cursor's reads may populate the block cache
    /// (`ReadOptions::fill_cache`; compaction inputs always read no-fill).
    fill_cache: bool,
}

impl TableIter {
    /// New iterator positioned before the first entry, with an explicit
    /// cache fill policy.
    pub fn with_fill(reader: Arc<TableReader>, fill_cache: bool) -> Self {
        let chunk_entries = (4096 / reader.entry_width).max(1);
        Self {
            reader,
            pos: 0,
            chunk: Vec::new(),
            chunk_start: 0,
            chunk_entries,
            fill_cache,
        }
    }

    /// Position at the first entry with user key ≥ `key`.
    pub fn seek(&mut self, key: u64) -> Result<()> {
        self.pos = self.reader.seek_position_opts(key, self.fill_cache)?;
        self.chunk.clear();
        Ok(())
    }

    /// Position at the first entry.
    pub fn seek_to_first(&mut self) {
        self.pos = 0;
        self.chunk.clear();
    }

    /// Current entry, refilling the block buffer as needed; `None` at EOF.
    pub fn current(&mut self) -> Result<Option<&Entry>> {
        if self.pos >= self.reader.len() {
            return Ok(None);
        }
        let in_chunk = self.pos.wrapping_sub(self.chunk_start);
        if self.chunk.is_empty() || in_chunk >= self.chunk.len() {
            let hi = (self.pos + self.chunk_entries).min(self.reader.len());
            self.chunk = self.reader.entries_in_opts(self.pos, hi, self.fill_cache)?;
            self.chunk_start = self.pos;
        }
        Ok(self.chunk.get(self.pos - self.chunk_start))
    }

    /// Advance one entry.
    pub fn advance(&mut self) {
        self.pos += 1;
    }

    /// Entries remaining from the current position.
    pub fn remaining(&self) -> usize {
        self.reader.len().saturating_sub(self.pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::IndexChoice;
    use crate::sstable::builder::TableBuilder;
    use lsm_io::MemStorage;

    fn make_table(keys: &[u64], kind: IndexKind) -> (MemStorage, Arc<TableReader>) {
        let storage = MemStorage::new();
        let file = storage.create("t.sst").unwrap();
        let mut b = TableBuilder::new(file, "t.sst".into(), IndexChoice::new(kind, 8), 24, 10);
        for (i, &k) in keys.iter().enumerate() {
            let v = format!("val-{k}");
            b.add(&Entry::put(k, i as u64 + 1, v.into_bytes())).unwrap();
        }
        b.finish().unwrap();
        let reader = Arc::new(TableReader::open(&storage, "t.sst").unwrap());
        (storage, reader)
    }

    #[test]
    fn get_finds_every_key_for_every_index_kind() {
        let keys: Vec<u64> = (0..2_000u64).map(|i| i * 7 + 1).collect();
        for kind in IndexKind::ALL {
            let (_s, r) = make_table(&keys, kind);
            let stats = DbStats::new();
            for &k in keys.iter().step_by(13) {
                let got = r.get(k, u64::MAX >> 8, &stats).unwrap();
                assert_eq!(
                    got,
                    Some(Some(format!("val-{k}").into_bytes())),
                    "{kind} key={k}"
                );
            }
            // Absent keys.
            assert_eq!(r.get(3, u64::MAX >> 8, &stats).unwrap(), None, "{kind}");
            assert_eq!(
                r.get(1_000_000, u64::MAX >> 8, &stats).unwrap(),
                None,
                "{kind}"
            );
        }
    }

    #[test]
    fn snapshot_hides_newer_version() {
        let keys = [10u64, 20, 30];
        let (_s, r) = make_table(&keys, IndexKind::Plr);
        let stats = DbStats::new();
        // Entries were written with seq = pos + 1.
        assert_eq!(r.get(20, 1, &stats).unwrap(), None, "seq 2 > snapshot 1");
        assert!(r.get(20, 2, &stats).unwrap().is_some());
    }

    #[test]
    fn tombstones_visible() {
        let storage = MemStorage::new();
        let file = storage.create("t").unwrap();
        let mut b = TableBuilder::new(file, "t".into(), IndexChoice::default(), 16, 10);
        b.add(&Entry::put(1, 5, b"a".to_vec())).unwrap();
        b.add(&Entry::tombstone(2, 6)).unwrap();
        b.finish().unwrap();
        let r = TableReader::open(&storage, "t").unwrap();
        let stats = DbStats::new();
        assert_eq!(r.get(2, u64::MAX >> 8, &stats).unwrap(), Some(None));
        assert_eq!(
            r.get(1, u64::MAX >> 8, &stats).unwrap(),
            Some(Some(b"a".to_vec()))
        );
    }

    #[test]
    fn seek_position_matches_partition_point() {
        let keys: Vec<u64> = (0..3_000u64).map(|i| i * 10).collect();
        for kind in [IndexKind::Pgm, IndexKind::FencePointers, IndexKind::Rmi] {
            let (_s, r) = make_table(&keys, kind);
            for probe in [0u64, 5, 10, 29_990, 29_995, 30_000, 123_456] {
                let want = keys.partition_point(|&k| k < probe);
                assert_eq!(
                    r.seek_position_opts(probe, true).unwrap(),
                    want,
                    "{kind} probe={probe}"
                );
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
        while let Some(e) = it.current().unwrap() {
            seen.push(e.key.user_key);
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
        let first = it.current().unwrap().unwrap().key.user_key;
        assert_eq!(first, 102);
        assert_eq!(it.remaining(), 500 - 34);
    }

    #[test]
    fn read_all_keys_roundtrip() {
        let keys: Vec<u64> = (0..5_000u64).map(|i| i * 13 + 5).collect();
        let (_s, r) = make_table(&keys, IndexKind::Pgm);
        assert_eq!(r.read_all_keys().unwrap(), keys);
    }

    #[test]
    fn corrupt_file_rejected() {
        let storage = MemStorage::new();
        let mut f = storage.create("bad").unwrap();
        f.append(&[0u8; 50]).unwrap();
        drop(f);
        assert!(TableReader::open(&storage, "bad").is_err());
    }
}
