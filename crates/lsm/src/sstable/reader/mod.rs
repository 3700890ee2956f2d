//! SSTable reader — the paper's `InternalGet` and `NewIter` interfaces.
//!
//! A point lookup is exactly the paper's four-stage pipeline (Table 1):
//! table locate (done by the caller), *prediction* (inner index + model),
//! *disk I/O* (one `pread` of the position boundary), and *binary search*
//! within the fetched range. Each stage is timed into [`DbStats`] (in one
//! lookup of every `STAGE_SAMPLE_PERIOD`). The fetched range is a `Span`,
//! searched where it lies: nothing assembles a copy of cached blocks.

mod cursor;
mod fetch;

pub use cursor::TableIter;
use fetch::Span;

use std::sync::Arc;

use learned_index::{IndexKind, SearchBound, SegmentIndex};

use crate::bloom::BloomFilter;
use crate::cache::{BlockCache, CachedTable, TABLE_HANDLE_OVERHEAD};
use crate::options::SearchStrategy;
use crate::sstable::format::{self, Footer};
use crate::stats::{add_stage_ns, DbStats, StageTimer};
use crate::types::{Entry, SeqNo};
use crate::{Error, Result};
use lsm_io::{RandomAccessFile, Storage};
use lsm_workloads::KEY_LEN;

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
    /// This table's slots in the shared cache, and the bytes its handle
    /// (index model + bloom + fixed overhead) pins there; both given back
    /// on drop.
    cache: Option<CachedTable>,
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
    /// the table's slots there, one per data block; the handle's resident
    /// bytes (index model + bloom filter + fixed overhead) are charged
    /// against the shared budget as *pinned*. Both last as long as the
    /// reader: its drop releases the charge and retires the slots.
    pub fn open_with(
        storage: &dyn Storage,
        name: &str,
        cache: Option<Arc<BlockCache>>,
    ) -> Result<Self> {
        let file = storage.open_read(name)?;
        let len = file.len();
        if len < format::FOOTER_LEN as u64 {
            return Err(Error::Corruption(format!("{name}: too short ({len} B)")));
        }
        let mut fbuf = vec![0u8; format::FOOTER_LEN];
        file.read_exact_at(len - format::FOOTER_LEN as u64, &mut fbuf)?;
        let footer = Footer::decode(&fbuf)?;
        // Entries, index, bloom and footer must tile the file exactly: every
        // entry offset a search computes lies inside it, and no length read
        // from a damaged footer is ever allocated.
        let entry_width = format::entry_width(footer.value_width as usize);
        let tiles = footer.n.checked_mul(entry_width as u64) == Some(footer.index_off)
            && footer.index_off.checked_add(footer.index_len) == Some(footer.bloom_off)
            && footer.bloom_off.checked_add(footer.bloom_len)
                == Some(len - format::FOOTER_LEN as u64);
        if !tiles {
            let what = "entries, index and bloom do not tile the file";
            return Err(Error::Corruption(format!("{name}: {what}")));
        }

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

        let table_id = next_table_id();
        let cache = cache.map(|cache| {
            let pinned = index.size_bytes() + bloom.size_bytes() + TABLE_HANDLE_OVERHEAD;
            let blocks = footer.index_off.div_ceil(fetch::CACHE_BLOCK) as usize;
            CachedTable::new(cache, table_id, blocks, pinned)
        });
        Ok(Self {
            file,
            name: name.to_string(),
            n: footer.n as usize,
            value_width: footer.value_width as usize,
            entry_width,
            min_key: footer.min_key,
            max_key: footer.max_key,
            index,
            bloom,
            cache,
            table_id,
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
        self.get_within(key, None, snapshot, stats, fill_cache)
    }

    /// The lookup every table of a [`crate::version::Version`] is entered
    /// through: the key-range and filter gate, then the position boundary —
    /// `within` when a level's model predicted it, the table's own index
    /// otherwise — fetched and searched.
    pub(crate) fn get_within(
        &self,
        key: u64,
        within: Option<SearchBound>,
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
        let bound = match within {
            Some(bound) => bound,
            None => {
                // Stage: prediction (inner index + model).
                let t = StageTimer::start();
                let bound = self.index.predict(key);
                add_stage_ns(&stats.predict_ns, t.ns());
                bound
            }
        };
        if bound.is_empty() {
            return Ok(None);
        }
        self.fetch_and_search(bound, key, snapshot, stats, fill_cache)
    }

    /// Fetch and search positions `[lo, hi)` for `key`, cache-filling: the
    /// last two stages of a lookup on their own, with no gate and no
    /// prediction before them (stage probes and tests; the engine's lookups
    /// go through [`TableReader::get_opts`]).
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
        self.fetch_and_search(bound, key, snapshot, stats, true)
    }

    /// The last two stages of a point lookup, whoever predicted `bound`.
    fn fetch_and_search(
        &self,
        bound: SearchBound,
        key: u64,
        snapshot: SeqNo,
        stats: &DbStats,
        fill_cache: bool,
    ) -> Result<Option<Option<Vec<u8>>>> {
        // Stage: disk I/O — one pread of the position boundary.
        let t = StageTimer::start();
        let span = self.fetch(bound, fill_cache)?;
        add_stage_ns(&stats.io_cpu_ns, t.ns());

        // Stage: binary search within the fetched range.
        let t = StageTimer::start();
        let result = self.search_span(&span, bound, key, snapshot);
        add_stage_ns(&stats.search_ns, t.ns());
        result
    }

    /// User key of entry `i` of `span`.
    #[inline]
    fn span_key(&self, span: &Span, i: usize, scratch: &mut Vec<u8>) -> u64 {
        format::decode_entry_key(span.bytes(i * self.entry_width, KEY_LEN, scratch))
    }

    /// Entry `i` of `span`, decoded.
    fn span_entry(&self, span: &Span, i: usize, scratch: &mut Vec<u8>) -> Result<Entry> {
        let bytes = span.bytes(i * self.entry_width, self.entry_width, scratch);
        format::decode_entry(bytes, self.value_width)
    }

    /// Lower-bound position of `key` among the `count` entries of `span`,
    /// using the configured strategy.
    fn lower_bound_in(&self, span: &Span, count: usize, key: u64) -> usize {
        let mut scratch = Vec::new();
        let mut key_at = |i: usize| self.span_key(span, i, &mut scratch);
        let (mut lo, mut hi) = match self.search {
            SearchStrategy::Binary => (0, count),
            SearchStrategy::Exponential => {
                // Gallop outward from the centre (the model's prediction sits
                // at the centre of the fetched boundary by construction).
                if count == 0 {
                    return 0;
                }
                let start = count / 2;
                let mut step = 1usize;
                if key_at(start) < key {
                    // Bracket to the right: [start+step/2, start+step].
                    while start + step < count && key_at(start + step) < key {
                        step *= 2;
                    }
                    (start + step / 2, (start + step + 1).min(count))
                } else {
                    // Bracket to the left.
                    while step <= start && key_at(start - step) >= key {
                        step *= 2;
                    }
                    (start.saturating_sub(step), start + 1)
                }
            }
        };
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

    /// Search the fetched fixed-width entries for `key`.
    fn search_span(
        &self,
        span: &Span,
        bound: SearchBound,
        key: u64,
        snapshot: SeqNo,
    ) -> Result<Option<Option<Vec<u8>>>> {
        let count = bound.hi - bound.lo;
        let lo = self.lower_bound_in(span, count, key);
        let mut scratch = Vec::new();
        if lo >= count || self.span_key(span, lo, &mut scratch) != key {
            return Ok(None);
        }
        let entry = self.span_entry(span, lo, &mut scratch)?;
        if entry.key.seq > snapshot {
            // The only version in this table is newer than the snapshot.
            return Ok(None);
        }
        Ok(Some(match entry.key.kind {
            crate::types::EntryKind::Put => Some(entry.value),
            crate::types::EntryKind::Delete => None,
        }))
    }

    /// Read the user key of the entry at `pos` (one small read).
    pub fn key_at(&self, pos: usize) -> Result<u64> {
        debug_assert!(pos < self.n);
        let mut kb = [0u8; KEY_LEN];
        self.file
            .read_exact_at((pos * self.entry_width) as u64, &mut kb)?;
        Ok(format::decode_entry_key(&kb))
    }
}

#[cfg(test)]
mod tests {
    use super::fetch::CACHE_BLOCK;
    use super::*;
    use crate::iter::Cursor;
    use crate::options::IndexChoice;
    use crate::sstable::builder::TableBuilder;
    use crate::types::EntryKind;
    use lsm_io::{CostModel, MemStorage, SimStorage};

    pub(super) fn make_table(keys: &[u64], kind: IndexKind) -> (MemStorage, Arc<TableReader>) {
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

    /// 400 entries of 136 bytes (100-byte values of `key as u8`, seq =
    /// position + 1) as `t.sst`: entries straddle 4 KiB edges
    /// (4096 = 30 × 136 + 16) and the file's last block is short.
    pub(super) fn write_wide_table(storage: &dyn Storage, kind: IndexKind) -> Vec<u64> {
        let keys: Vec<u64> = (0..400u64).map(|i| i * 4 + 10).collect();
        let file = storage.create("t.sst").unwrap();
        let index = IndexChoice::new(kind, 8);
        let mut b = TableBuilder::new(file, "t.sst".into(), index, 100, 10);
        for (i, &k) in keys.iter().enumerate() {
            b.add(&Entry::put(k, i as u64 + 1, vec![k as u8; 100]))
                .unwrap();
        }
        b.finish().unwrap();
        keys
    }

    /// The device calls and blocks one fetch of `cover` makes when `have`
    /// says which blocks are held or resident: a call per maximal run of
    /// the others.
    pub(super) fn device_reads(
        cover: std::ops::Range<u64>,
        have: impl Fn(u64) -> bool,
    ) -> (u64, u64) {
        let missing: Vec<u64> = cover.filter(|&b| !have(b)).collect();
        let runs = (0..missing.len()).filter(|&i| i == 0 || missing[i - 1] + 1 != missing[i]);
        (runs.count() as u64, missing.len() as u64)
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

    /// The in-place search against the plain one, on `write_wide_table`'s
    /// straddling entries. An uncached reader (one buffer), a cached reader (borrowed
    /// blocks) and the positioned entry point must agree on every key, and
    /// the cached reader must ask the cache for every covering block once,
    /// in order, and the device for each maximal run of non-resident ones in
    /// one call, filling them. Then the cursor: a pass — seek to a probe,
    /// walk to the end — through a filling, a no-fill and an uncached
    /// `TableIter` yields the model's entries and asks the cache for each
    /// block from the boundary's first to the table's last exactly once; of
    /// every fetch — the seek's boundary, then a refill per chunk — the
    /// blocks neither held from the fetch before nor resident are read, a
    /// device call per run.
    #[test]
    fn cached_uncached_and_positioned_lookups_agree() {
        const MAX: SeqNo = u64::MAX >> 8;
        for kind in IndexKind::ALL {
            let storage = SimStorage::new(CostModel::default());
            let keys = write_wide_table(&storage, kind);
            let probes = (0..=keys[399] + 8).chain([u64::MAX]);
            // The last entries share the file's last, short block.
            let file_len = storage.size_of("t.sst").unwrap();
            assert_eq!((file_len / CACHE_BLOCK, 400 * 136 / CACHE_BLOCK), (13, 13));
            assert_ne!(file_len % CACHE_BLOCK, 0);
            for search in [SearchStrategy::Binary, SearchStrategy::Exponential] {
                let open = |cache: Option<Arc<BlockCache>>| {
                    let reader = TableReader::open_with(&storage, "t.sst", cache.clone()).unwrap();
                    (reader.with_search_strategy(search), cache)
                };
                let (plain, _) = open(None);
                assert_eq!(plain.entry_width(), 136);
                let (cached, cache) = open(Some(Arc::new(BlockCache::new(1 << 20))));
                let (positioned, _) = open(Some(Arc::new(BlockCache::new(1 << 20))));
                let mut resident = std::collections::HashSet::new();
                let (mut hits, mut misses) = (0u64, 0u64);
                for key in probes.clone() {
                    let want = keys
                        .binary_search(&key)
                        .ok()
                        .map(|_| Some(vec![key as u8; 100]));
                    let stats = DbStats::new();
                    let before = storage.stats().snapshot();
                    let got = cached.get(key, MAX, &stats).unwrap();
                    let read = storage.stats().snapshot().since(&before);
                    let what = format!("{kind} {search:?} key {key}");
                    assert_eq!(got, want, "{what} cached");
                    assert_eq!(
                        plain.get(key, MAX, &DbStats::new()).unwrap(),
                        want,
                        "{what}"
                    );
                    let bound = cached.index().predict(key);
                    let at = positioned.get_in_positions(key, bound.lo, bound.hi, MAX, &stats);
                    assert_eq!(at.unwrap(), want, "{what} positioned");
                    // The blocks the cached lookup fetched, if it got past
                    // the range check, the filter and an empty bound.
                    let s = stats.snapshot();
                    let mut device = (0, 0);
                    if s.bloom_checks == 1 && s.bloom_negatives == 0 && !bound.is_empty() {
                        let first = (bound.lo * 136) as u64 / CACHE_BLOCK;
                        let last = (bound.hi * 136 - 1) as u64 / CACHE_BLOCK;
                        device = device_reads(first..last + 1, |b| resident.contains(&b));
                        for block in first..=last {
                            if resident.insert(block) {
                                misses += 1;
                            } else {
                                hits += 1;
                            }
                        }
                    }
                    assert_eq!((read.read_calls, read.read_blocks), device, "{what}");
                }
                assert_eq!(
                    cache.unwrap().hit_miss(),
                    (hits, misses),
                    "{kind} {search:?}"
                );
                assert!(
                    hits > 0 && misses >= 14,
                    "all 14 blocks of entries were read"
                );

                let cursor = |cache: Option<Arc<BlockCache>>, fill| {
                    let (reader, cache) = open(cache);
                    (TableIter::with_fill(Arc::new(reader), fill), cache)
                };
                let (mut filling, fill_cache) =
                    cursor(Some(Arc::new(BlockCache::new(1 << 20))), true);
                let (mut no_fill, no_fill_cache) =
                    cursor(Some(Arc::new(BlockCache::new(1 << 20))), false);
                let (mut uncached, _) = cursor(None, false);
                let mut resident = std::collections::HashSet::new();
                let (mut hits, mut asked) = (0u64, 0u64);
                for probe in probes.clone() {
                    let what = format!("{kind} {search:?} probe {probe}");
                    let want = keys.partition_point(|&k| k < probe);
                    // The blocks one pass asks for: none past the last key,
                    // all 14 up to the first, else from the boundary's first.
                    let pass = match probe {
                        p if p > keys[399] => 14..14,
                        p if p <= keys[0] => 0..14,
                        p => (plain.index().predict(p).lo * 136) as u64 / CACHE_BLOCK..14,
                    };
                    let new = pass.clone().filter(|b| !resident.contains(b)).count() as u64;
                    // The fetches of one pass, as entries: the boundary, then
                    // a refill at every chunk edge from where the seek landed.
                    let mut fetches = Vec::new();
                    if probe > keys[0] && probe <= keys[399] {
                        let bound = plain.index().predict(probe);
                        fetches.push((bound.lo, bound.hi));
                    }
                    let (mut pos, mut hi) = (want, fetches.last().map_or(0, |f| f.1));
                    while pos < 400 {
                        if pos >= hi {
                            hi = (want + ((pos - want) / 30 + 1) * 30).min(400);
                            fetches.push((pos, hi));
                        }
                        pos = hi;
                    }
                    // The device calls they make: nothing is resident for
                    // the cursors that do not fill.
                    let (mut calls, mut fill_calls) = (0, 0);
                    let (mut held, mut warm) = (0..0, resident.clone());
                    for (lo, hi) in fetches.into_iter().filter(|(lo, hi)| lo < hi) {
                        let cover = (lo * 136) as u64 / CACHE_BLOCK
                            ..(hi * 136 - 1) as u64 / CACHE_BLOCK + 1;
                        calls += device_reads(cover.clone(), |b| held.contains(&b)).0;
                        let have = |b| held.contains(&b) || warm.contains(&b);
                        fill_calls += device_reads(cover.clone(), have).0;
                        warm.extend(cover.clone());
                        held = cover;
                    }
                    let blocks = pass.end - pass.start;
                    let passes = [
                        (&mut filling, (fill_calls, new), "filling"),
                        (&mut no_fill, (calls, blocks), "no-fill"),
                        (&mut uncached, (calls, blocks), "uncached"),
                    ];
                    for (it, device, which) in passes {
                        let before = storage.stats().snapshot();
                        it.seek(probe).unwrap();
                        for (i, &k) in keys.iter().enumerate().skip(want) {
                            let key = it.key().unwrap().expect("an entry");
                            let at = (key.user_key, key.seq, key.kind);
                            assert_eq!(at, (k, i as u64 + 1, EntryKind::Put), "{what} {which}");
                            assert_eq!(it.value(), [k as u8; 100], "{what} {which}");
                            it.advance();
                        }
                        assert_eq!(it.key().unwrap(), None, "{what} {which}");
                        let read = storage.stats().snapshot().since(&before);
                        let read = (read.read_calls, read.read_blocks);
                        assert_eq!(read, device, "{what} {which}");
                    }
                    hits += pass.end - pass.start - new;
                    asked += pass.end - pass.start;
                    resident.extend(pass);
                }
                assert_eq!(
                    fill_cache.unwrap().hit_miss(),
                    (hits, 14),
                    "{kind} {search:?}"
                );
                assert_eq!(
                    no_fill_cache.unwrap().hit_miss(),
                    (0, asked),
                    "{kind} {search:?}"
                );
            }
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
    fn corrupt_file_rejected() {
        let storage = MemStorage::new();
        let mut f = storage.create("bad").unwrap();
        f.append(&[0u8; 50]).unwrap();
        drop(f);
        assert!(TableReader::open(&storage, "bad").is_err());
        // A footer whose entry width disagrees with where the entries end.
        let (storage, _) = make_table(&[1, 2, 3], IndexKind::Pgm);
        let mut bytes = lsm_io::read_all(&storage, "t.sst").unwrap();
        let value_width = bytes.len() - format::FOOTER_LEN + 8;
        bytes[value_width] += 1;
        storage.create("wide").unwrap().append(&bytes).unwrap();
        assert!(TableReader::open(&storage, "wide").is_err());
    }

    /// No bit of a footer, flipped, takes the process down (surviving this
    /// test is the assertion: an unchecked `index_len` used to be handed to
    /// the allocator). The six layout fields and the magic contradict the
    /// file's length, so those flips are `Corruption`. Nothing else in the
    /// file repeats `min_key`, `max_key` or `max_seq` — it carries no
    /// checksum — so those flips open: the reader then claims a wider or a
    /// narrower key range, every get inside it is right, and a key outside
    /// it reads as not in this table.
    #[test]
    fn footer_bit_flips_never_abort() {
        let keys: Vec<u64> = (0..300u64).map(|i| i * 7 + 1).collect();
        let (storage, good) = make_table(&keys, IndexKind::Pgm);
        let bytes = lsm_io::read_all(&storage, "t.sst").unwrap();
        let footer_at = bytes.len() - format::FOOTER_LEN;
        let open = |bad: &[u8]| {
            storage.create("flip").unwrap().append(bad).unwrap();
            TableReader::open(&storage, "flip")
        };

        let mut huge = bytes.clone();
        huge[footer_at + 20..footer_at + 28].copy_from_slice(&(1u64 << 46).to_le_bytes());
        assert!(matches!(open(&huge), Err(Error::Corruption(_))));

        let stats = DbStats::new();
        let snapshot = u64::MAX >> 8;
        let probes = keys.iter().flat_map(|&k| [k, k + 1]).chain([0, u64::MAX]);
        let probes: Vec<u64> = probes.collect();
        for bit in 0..format::FOOTER_LEN * 8 {
            let mut bad = bytes.clone();
            bad[footer_at + bit / 8] ^= 1 << (bit % 8);
            let reader = match open(&bad) {
                Ok(reader) => reader,
                Err(Error::Corruption(_)) => continue,
                Err(e) => panic!("bit {bit}: {e}"),
            };
            assert!((44..68).contains(&(bit / 8)), "bit {bit} opened");
            for &k in &probes {
                let claimed = (reader.min_key()..=reader.max_key()).contains(&k);
                let want = good.get(k, snapshot, &stats).unwrap().filter(|_| claimed);
                assert_eq!(reader.get(k, snapshot, &stats).unwrap(), want, "bit {bit}");
            }
        }
    }
}
