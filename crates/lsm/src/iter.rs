//! Cursors and the one merge over them: range lookups and compaction input
//! (the paper's `NewIter` / `NewLevelIter` / `NewDBIter` stack in Figure 4).
//!
//! A [`Cursor`] is a position in one sorted stream — a memtable (live or
//! queued for flush), a table, a level — that reads a *key* and lends a
//! *value* without building an entry. [`Merge`] k-way-merges cursors by
//! internal key through a loser tree over their head keys; it is the only
//! merge in the engine. [`DbIterator`] layers LSM visibility on top — newest version per
//! user key wins, tombstones suppress older versions, and versions newer
//! than the read snapshot are invisible — deciding on keys alone and copying
//! the value only of a pair it returns. Compaction runs the same `Merge`
//! over its input tables' sweep cursors and hands the builder each kept
//! entry's slot (or, between tables of different widths, its value).
//!
//! One level up, the sharding layer merges nothing: shards own disjoint
//! ranges, so a [`crate::sharding::ShardedDbIterator`] concatenates
//! per-shard `DbIterator`s in routing order, the way [`LevelIter`]
//! concatenates a level's tables.

use std::sync::Arc;

use crate::snapshot::ReadView;
use crate::sstable::TableIter;
use crate::types::{EntryKind, InternalKey, SeqNo};
use crate::version::{TableHandle, Version};
use crate::Result;

/// A position in one stream of entries sorted by internal key.
///
/// After a seek, [`Cursor::key`] reads the key under the cursor (`None` past
/// the last entry). It is the only call that may do I/O — a table cursor
/// refills its chunk there — and so the only one besides `seek` that can
/// fail. [`Cursor::value`] lends the value of the entry `key` last returned
/// and is valid only until the next `advance` or seek; [`Cursor::advance`]
/// steps past that entry and fetches nothing.
pub trait Cursor: Send {
    /// Position at the first entry with user key ≥ `key`.
    fn seek(&mut self, key: u64) -> Result<()>;
    /// Position at the first entry.
    fn seek_to_first(&mut self);
    /// Internal key of the entry under the cursor.
    fn key(&mut self) -> Result<Option<InternalKey>>;
    /// Value of the entry whose key [`Cursor::key`] last returned.
    fn value(&mut self) -> &[u8];
    /// Step past the entry whose key [`Cursor::key`] last returned.
    fn advance(&mut self);
}

/// A boxed cursor is a cursor: the sources of a [`Merge`] over mixed
/// streams (a scan's memtables, tables and levels).
impl<C: Cursor + ?Sized> Cursor for Box<C> {
    fn seek(&mut self, key: u64) -> Result<()> {
        (**self).seek(key)
    }

    fn seek_to_first(&mut self) {
        (**self).seek_to_first()
    }

    #[inline]
    fn key(&mut self) -> Result<Option<InternalKey>> {
        (**self).key()
    }

    #[inline]
    fn value(&mut self) -> &[u8] {
        (**self).value()
    }

    #[inline]
    fn advance(&mut self) {
        (**self).advance()
    }
}

impl ReadView {
    /// A snapshot-consistent [`DbIterator`] over the view's three layers:
    /// the memtable stack (the live concurrent buffer plus queued immutable
    /// memtables, each a skiplist), then every SSTable of the
    /// version. Newer sources come first so same-key ties resolve newest.
    /// Entries the live buffer receives after this call carry sequence
    /// numbers above `seq` and are filtered by the iterator's visibility
    /// rule. `fill_cache` is the scan's block-cache fill policy
    /// (`ReadOptions::fill_cache`), threaded into every table cursor.
    pub(crate) fn iter(&self, seq: SeqNo, fill_cache: bool) -> DbIterator {
        let version = &self.version;
        let mut sources: Vec<Box<dyn Cursor>> =
            Vec::with_capacity(self.mems.len() + 1 + version.levels.len());
        for mem in &self.mems {
            sources.push(Box::new(mem.cursor()));
        }
        let table = |t: &Arc<TableHandle>| -> Box<dyn Cursor> {
            Box::new(TableIter::with_fill(Arc::clone(&t.reader), fill_cache))
        };
        sources.extend(version.levels[0].iter().map(table));
        for (level, tables) in version.levels.iter().enumerate().skip(1) {
            if !tables.is_empty() {
                sources.push(Box::new(LevelIter::new(
                    Arc::clone(version),
                    level,
                    fill_cache,
                )));
            }
        }
        DbIterator::new(Merge::new(sources), seq)
    }
}

/// Cursor over one sorted level: non-overlapping tables concatenated in key
/// order, opened lazily one at a time (the paper's `NewLevelIter`). It walks
/// the pinned version's own table list.
pub struct LevelIter {
    version: Arc<Version>,
    level: usize,
    idx: usize,
    cur: Option<TableIter>,
    fill_cache: bool,
}

impl LevelIter {
    /// Over `version.levels[level]`, which must be sorted by min key and
    /// non-overlapping, with an explicit block-cache fill policy.
    pub fn new(version: Arc<Version>, level: usize, fill_cache: bool) -> Self {
        let tables = &version.levels[level];
        debug_assert!(tables
            .windows(2)
            .all(|w| w[0].meta.max_key < w[1].meta.min_key));
        Self {
            version,
            level,
            idx: 0,
            cur: None,
            fill_cache,
        }
    }

    /// Open table `idx` of the level (none past the last), at its start.
    fn open(&mut self, idx: usize) {
        let table = self.version.levels[self.level].get(idx);
        self.cur = table.map(|t| TableIter::with_fill(Arc::clone(&t.reader), self.fill_cache));
        self.idx = idx;
    }
}

impl Cursor for LevelIter {
    fn seek(&mut self, key: u64) -> Result<()> {
        let tables = &self.version.levels[self.level];
        self.open(tables.partition_point(|t| t.meta.max_key < key));
        self.cur.as_mut().map_or(Ok(()), |it| it.seek(key))
    }

    fn seek_to_first(&mut self) {
        self.open(0);
    }

    fn key(&mut self) -> Result<Option<InternalKey>> {
        while let Some(it) = &mut self.cur {
            if let Some(key) = it.key()? {
                return Ok(Some(key));
            }
            self.open(self.idx + 1);
        }
        Ok(None)
    }

    fn value(&mut self) -> &[u8] {
        self.cur.as_mut().map(|it| it.value()).unwrap_or_default()
    }

    fn advance(&mut self) {
        if let Some(it) = &mut self.cur {
            it.advance();
        }
    }
}

/// Which head keys a [`Merge`] has yet to read.
enum Stale {
    /// Every head: the sources were just sought.
    All,
    /// The head of the winning source, which `advance` stepped.
    Top,
    /// None.
    No,
}

/// A tree node no source has reached yet (while the tree is being built).
const EMPTY: usize = usize::MAX;

/// K-way merge by internal key (duplicates allowed across sources; the
/// internal-key order already puts newer versions first) — itself a
/// [`Cursor`]. Generic over its sources' type: a scan merges boxed cursors
/// of every kind, a compaction its input tables' [`TableIter`]s directly,
/// with no virtual call per entry.
///
/// Every source's head key is cached and the smallest is selected through a
/// loser tree, so a step costs O(log k) comparisons and reads one key:
/// `advance` only steps the winning source, and the next `key` re-reads that
/// one head — lazily, so a merge never fetches a chunk for an entry nobody
/// asks for. Ties across sources (same user key and seq — impossible in a
/// correct DB) resolve to the earliest source, which is the newest input by
/// construction.
pub struct Merge<C: Cursor = Box<dyn Cursor>> {
    sources: Vec<C>,
    /// Head key of every source; `None` once it is exhausted.
    heads: Vec<Option<InternalKey>>,
    /// Source `i` is the leaf at `k + i` of a binary tree whose node `n > 0`
    /// holds the loser of the match played there; `tree[0]` is the winner.
    tree: Vec<usize>,
    stale: Stale,
}

impl<C: Cursor> Merge<C> {
    /// Merge over `sources`; call one of the seek methods before reading.
    pub fn new(sources: Vec<C>) -> Self {
        Self {
            heads: vec![None; sources.len()],
            tree: vec![EMPTY; sources.len().max(1)],
            sources,
            stale: Stale::All,
        }
    }

    /// Whether source `a` wins against source `b`: the smaller head, then
    /// the earlier source; an exhausted source loses to every other.
    fn wins(&self, a: usize, b: usize) -> bool {
        match (self.heads[a], self.heads[b]) {
            (Some(x), Some(y)) => (x, a) < (y, b),
            (x, _) => x.is_some(),
        }
    }

    /// Replay the matches of source `i`, whose head changed, from its leaf
    /// to the root.
    fn replay(&mut self, i: usize) {
        let mut winner = i;
        let mut node = (i + self.sources.len()) / 2;
        while node > 0 {
            let held = self.tree[node];
            if held == EMPTY {
                // Building: wait here for the winner of the other side.
                self.tree[node] = winner;
                return;
            }
            if self.wins(held, winner) {
                self.tree[node] = std::mem::replace(&mut winner, held);
            }
            node /= 2;
        }
        self.tree[0] = winner;
    }

    /// The source whose entry [`Cursor::key`] last returned, for what only
    /// that source's own type can lend (a table cursor's raw slot).
    #[inline]
    pub(crate) fn top(&mut self) -> Option<&mut C> {
        self.sources.get_mut(self.tree[0])
    }
}

// The per-entry calls here and on `DbIterator` are `#[inline]`: out of line,
// a scan's `next` measured about 20 % slower.
impl<C: Cursor> Cursor for Merge<C> {
    fn seek(&mut self, key: u64) -> Result<()> {
        self.stale = Stale::All;
        self.sources.iter_mut().try_for_each(|s| s.seek(key))
    }

    fn seek_to_first(&mut self) {
        self.stale = Stale::All;
        self.sources.iter_mut().for_each(|s| s.seek_to_first());
    }

    #[inline]
    fn key(&mut self) -> Result<Option<InternalKey>> {
        let refresh = match self.stale {
            Stale::All => {
                self.tree.fill(EMPTY);
                0..self.sources.len()
            }
            Stale::Top => self.tree[0]..self.tree[0] + 1,
            Stale::No => 0..0,
        };
        for i in refresh {
            self.heads[i] = self.sources[i].key()?;
            self.replay(i);
        }
        self.stale = Stale::No;
        Ok(self.heads.get(self.tree[0]).copied().flatten())
    }

    #[inline]
    fn value(&mut self) -> &[u8] {
        let top = self.sources.get_mut(self.tree[0]);
        top.map(|s| s.value()).unwrap_or_default()
    }

    #[inline]
    fn advance(&mut self) {
        debug_assert!(matches!(self.stale, Stale::No), "advance follows key");
        if let Some(s) = self.sources.get_mut(self.tree[0]) {
            s.advance();
            self.stale = Stale::Top;
        }
    }
}

/// Snapshot-consistent user-level iterator: yields `(user_key, value)` for
/// live, visible keys in ascending order. As a [`Cursor`] it is the stream
/// of those pairs, each under the internal key of its visible version.
pub struct DbIterator {
    merge: Merge,
    snapshot: SeqNo,
    last_user_key: Option<u64>,
    /// Whether the merge is parked on a live pair `key` found.
    parked: bool,
}

impl DbIterator {
    /// New iterator reading at `snapshot`.
    pub fn new(merge: Merge, snapshot: SeqNo) -> Self {
        Self {
            merge,
            snapshot,
            last_user_key: None,
            parked: false,
        }
    }

    /// Position at the first live key ≥ `key`.
    pub fn seek(&mut self, key: u64) -> Result<()> {
        (self.last_user_key, self.parked) = (None, false);
        self.merge.seek(key)
    }

    /// Position at the smallest key.
    pub fn seek_to_first(&mut self) {
        (self.last_user_key, self.parked) = (None, false);
        self.merge.seek_to_first();
    }

    /// Next live `(key, value)` pair. The value is copied here, once, and
    /// only for a pair that is returned.
    #[allow(clippy::should_implement_trait)] // fallible cursor, not Iterator
    pub fn next(&mut self) -> Result<Option<(u64, Vec<u8>)>> {
        let Some(key) = self.key()? else {
            return Ok(None);
        };
        let pair = (key.user_key, self.merge.value().to_vec());
        self.advance();
        Ok(Some(pair))
    }

    /// Collect up to `limit` pairs from the current position.
    pub fn collect_up_to(&mut self, limit: usize) -> Result<Vec<(u64, Vec<u8>)>> {
        let mut out = Vec::with_capacity(limit.min(1024));
        while out.len() < limit {
            match self.next()? {
                Some(kv) => out.push(kv),
                None => break,
            }
        }
        Ok(out)
    }
}

impl Cursor for DbIterator {
    fn seek(&mut self, key: u64) -> Result<()> {
        DbIterator::seek(self, key)
    }

    fn seek_to_first(&mut self) {
        DbIterator::seek_to_first(self);
    }

    /// Skip to the next live pair, on keys alone: no value is touched.
    #[inline]
    fn key(&mut self) -> Result<Option<InternalKey>> {
        while let Some(key) = self.merge.key()? {
            if self.parked {
                return Ok(Some(key));
            }
            // Not newer than the read snapshot, and not an older version of
            // an emitted / deleted key.
            if key.seq <= self.snapshot && self.last_user_key != Some(key.user_key) {
                self.last_user_key = Some(key.user_key);
                if key.kind == EntryKind::Put {
                    self.parked = true;
                    return Ok(Some(key));
                } // else a tombstone, which masks the key
            }
            self.merge.advance();
        }
        Ok(None)
    }

    fn value(&mut self) -> &[u8] {
        self.merge.value()
    }

    #[inline]
    fn advance(&mut self) {
        if std::mem::take(&mut self.parked) {
            self.merge.advance();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Entry;

    fn buffered(entries: Vec<Entry>) -> Box<dyn Cursor> {
        Box::new(memtable(&entries).cursor())
    }

    #[test]
    fn merge_interleaves_sorted_runs() {
        let a = buffered(vec![
            Entry::put(1, 10, b"a1".to_vec()),
            Entry::put(5, 10, b"a5".to_vec()),
        ]);
        let b = buffered(vec![
            Entry::put(2, 11, b"b2".to_vec()),
            Entry::put(9, 11, b"b9".to_vec()),
        ]);
        let mut m = Merge::new(vec![a, b]);
        m.seek_to_first();
        let mut keys = Vec::new();
        while let Some(key) = m.key().unwrap() {
            keys.push(key.user_key);
            m.advance();
        }
        assert_eq!(keys, vec![1, 2, 5, 9]);
    }

    #[test]
    fn newer_version_emerges_first() {
        let newer = buffered(vec![Entry::put(5, 20, b"new".to_vec())]);
        let older = buffered(vec![Entry::put(5, 10, b"old".to_vec())]);
        let mut m = Merge::new(vec![older, newer]);
        m.seek_to_first();
        assert_eq!(m.key().unwrap().unwrap().seq, 20);
        assert_eq!(m.value(), b"new");
        m.advance();
        assert_eq!(m.key().unwrap().unwrap().seq, 10);
        assert_eq!(m.value(), b"old");
    }

    #[test]
    fn db_iterator_dedups_and_hides_tombstones() {
        let newer = buffered(vec![
            Entry::tombstone(2, 30),
            Entry::put(3, 31, b"v3new".to_vec()),
        ]);
        let older = buffered(vec![
            Entry::put(1, 10, b"v1".to_vec()),
            Entry::put(2, 11, b"v2".to_vec()),
            Entry::put(3, 12, b"v3old".to_vec()),
        ]);
        let mut it = DbIterator::new(Merge::new(vec![newer, older]), u64::MAX >> 8);
        it.seek_to_first();
        let got = it.collect_up_to(10).unwrap();
        assert_eq!(
            got,
            vec![(1, b"v1".to_vec()), (3, b"v3new".to_vec())],
            "key 2 deleted, key 3 newest version"
        );
    }

    #[test]
    fn snapshot_hides_future_writes() {
        let run = buffered(vec![
            Entry::put(1, 5, b"old".to_vec()),
            Entry::put(2, 50, b"future".to_vec()),
        ]);
        let mut it = DbIterator::new(Merge::new(vec![run]), 10);
        it.seek_to_first();
        let got = it.collect_up_to(10).unwrap();
        assert_eq!(got, vec![(1, b"old".to_vec())]);
    }

    #[test]
    fn snapshot_resurrects_predelete_value() {
        let run = buffered(vec![
            Entry::tombstone(1, 20),
            Entry::put(1, 5, b"alive".to_vec()),
        ]);
        // Reading at snapshot 10: the tombstone (seq 20) is invisible.
        let mut it = DbIterator::new(Merge::new(vec![run]), 10);
        it.seek_to_first();
        assert_eq!(it.next().unwrap(), Some((1, b"alive".to_vec())));
    }

    #[test]
    fn seek_starts_mid_range() {
        let run = buffered(
            (0..10u64)
                .map(|k| Entry::put(k, 1, vec![k as u8]))
                .collect(),
        );
        let mut it = DbIterator::new(Merge::new(vec![run]), u64::MAX >> 8);
        it.seek(7).unwrap();
        let got = it.collect_up_to(10).unwrap();
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].0, 7);
    }

    // ----------------------------------------------- model and work tests

    use crate::batch::BatchOp;
    use crate::cache::BlockCache;
    use crate::memtable::MemTable;
    use crate::options::IndexChoice;
    use crate::sharding::merge::over_views;
    use crate::sharding::{ShardRouter, ShardedDbIterator};
    use crate::sstable::{TableBuilder, TableReader};
    use crate::types::MAX_SEQ;
    use lsm_io::{MemStorage, Storage};
    use std::collections::{BTreeMap, BTreeSet};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Deterministic xorshift.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % n
        }
    }

    /// `k` entry lists over user keys 5..400, each sorted and holding one
    /// version per user key (what a table may hold): random sequence numbers
    /// (so versions of a key are spread over the lists in no order), one
    /// entry in five a tombstone, and one in eight a copy of an earlier
    /// list's internal key under another value — a tie.
    fn entry_lists(k: usize, rng: &mut Rng) -> Vec<Vec<Entry>> {
        let mut lists: Vec<Vec<Entry>> = Vec::new();
        for i in 0..k {
            let mut keys = BTreeSet::new();
            while keys.len() < 40 + (i % 3) * 30 {
                keys.insert(5 + rng.below(395));
            }
            let list = keys.into_iter().map(|user_key| {
                let earlier = lists.iter().flatten().find(|e| e.key.user_key == user_key);
                let key = match earlier {
                    Some(e) if rng.below(8) == 0 => e.key,
                    _ if rng.below(5) == 0 => Entry::tombstone(user_key, 1 + rng.below(999)).key,
                    _ => Entry::put(user_key, 1 + rng.below(999), Vec::new()).key,
                };
                let len = 1 + rng.below(100) as usize;
                let value = vec![i as u8; if key.kind == EntryKind::Put { len } else { 0 }];
                Entry { key, value }
            });
            lists.push(list.collect());
        }
        lists
    }

    fn table(
        storage: &MemStorage,
        name: &str,
        entries: &[Entry],
        cached: bool,
    ) -> Arc<TableHandle> {
        let index = IndexChoice::new(learned_index::IndexKind::Pgm, 4);
        let mut b = TableBuilder::new(storage.create(name).unwrap(), name.into(), index, 100, 10);
        entries.iter().for_each(|e| b.add(e).unwrap());
        let meta = b.finish().unwrap();
        let cache = cached.then(|| Arc::new(BlockCache::new(1 << 20)));
        let reader = Arc::new(TableReader::open_with(storage, name, cache).unwrap());
        Arc::new(TableHandle { meta, reader })
    }

    /// A sorted level: `entries` cut into three tables.
    fn level(storage: &MemStorage, name: &str, entries: &[Entry]) -> Vec<Arc<TableHandle>> {
        let cuts = entries.chunks(entries.len().div_ceil(3)).enumerate();
        cuts.map(|(j, part)| table(storage, &format!("{name}-{j}"), part, j % 2 == 0))
            .collect()
    }

    fn memtable(entries: &[Entry]) -> MemTable {
        let mem = MemTable::new();
        for e in entries {
            let op = BatchOp {
                kind: e.key.kind,
                key: e.key.user_key,
                value: e.value.clone(),
            };
            mem.apply_batch(&[op], e.key.seq);
        }
        mem
    }

    /// One cursor per list, of the three kinds in turn: a table (136-byte
    /// entries straddle its block edges), a level of three tables, a memtable.
    fn cursors(storage: &MemStorage, lists: &[Vec<Entry>]) -> Vec<Box<dyn Cursor>> {
        let cursor = |(i, list): (usize, &Vec<Entry>)| -> Box<dyn Cursor> {
            let name = format!("s{i}");
            match i % 3 {
                0 => {
                    let t = table(storage, &name, list, i % 6 == 0);
                    Box::new(TableIter::with_fill(Arc::clone(&t.reader), i % 12 == 0))
                }
                1 => {
                    let mut version = Version::new(2);
                    version.levels[1] = level(storage, &name, list);
                    Box::new(LevelIter::new(Arc::new(version), 1, true))
                }
                _ => Box::new(memtable(list).cursor()),
            }
        };
        lists.iter().enumerate().map(cursor).collect()
    }

    /// Every entry with the list it came from, in the order a merge must
    /// yield them: by internal key, ties from the earliest list.
    fn merged(lists: &[Vec<Entry>]) -> Vec<(InternalKey, usize, Vec<u8>)> {
        let mut all = Vec::new();
        for (i, list) in lists.iter().enumerate() {
            all.extend(list.iter().map(|e| (e.key, i, e.value.clone())));
        }
        all.sort();
        all
    }

    /// The live pairs at `snapshot`: per user key the newest version at or
    /// below it (of equal ones the earliest list's), unless a tombstone.
    fn live(lists: &[Vec<Entry>], snapshot: SeqNo) -> BTreeMap<u64, Vec<u8>> {
        let mut newest: BTreeMap<u64, (InternalKey, usize, Vec<u8>)> = BTreeMap::new();
        for version in merged(lists).into_iter().rev() {
            if version.0.seq <= snapshot {
                newest.insert(version.0.user_key, version);
            }
        }
        let puts = newest
            .into_iter()
            .filter(|(_, v)| v.0.kind == EntryKind::Put);
        puts.map(|(key, v)| (key, v.2)).collect()
    }

    /// What [`check_against`] reads: one engine's iterator or the shards'.
    trait Scan {
        fn seek(&mut self, key: u64) -> Result<()>;
        fn seek_to_first(&mut self);
        fn collect_up_to(&mut self, limit: usize) -> Result<Vec<(u64, Vec<u8>)>>;
    }

    macro_rules! scan {
        ($it:ty) => {
            impl Scan for $it {
                fn seek(&mut self, key: u64) -> Result<()> {
                    <$it>::seek(self, key)
                }
                fn seek_to_first(&mut self) {
                    <$it>::seek_to_first(self)
                }
                fn collect_up_to(&mut self, limit: usize) -> Result<Vec<(u64, Vec<u8>)>> {
                    <$it>::collect_up_to(self, limit)
                }
            }
        };
    }
    scan!(DbIterator);
    scan!(ShardedDbIterator);

    /// Read `it` against the model: all of it, then re-seeks mid-stream —
    /// before the first key, past the last, to each of `probes`, to random
    /// keys; every other one after the previous exhausted `it` — and all of
    /// it once more.
    fn check_against(
        it: &mut impl Scan,
        model: &BTreeMap<u64, Vec<u8>>,
        rng: &mut Rng,
        what: &str,
        probes: &[u64],
    ) {
        let from = |key: u64| -> Vec<(u64, Vec<u8>)> {
            model.range(key..).map(|(k, v)| (*k, v.clone())).collect()
        };
        it.seek_to_first();
        assert_eq!(it.collect_up_to(usize::MAX).unwrap(), from(0), "{what}");
        let random: Vec<u64> = (0..10).map(|_| rng.below(420)).collect();
        let seeks = [0, 10_000].iter().chain(probes).chain(&random);
        for (round, &key) in seeks.enumerate() {
            it.seek(key).unwrap();
            let want = from(key);
            let some = rng.below(20) as usize;
            assert_eq!(
                it.collect_up_to(some).unwrap(),
                want[..some.min(want.len())],
                "{what}"
            );
            if round % 2 == 0 {
                assert_eq!(
                    it.collect_up_to(usize::MAX).unwrap(),
                    want[some.min(want.len())..],
                    "{what}"
                );
            }
        }
        it.seek_to_first();
        assert_eq!(it.collect_up_to(usize::MAX).unwrap(), from(0), "{what}");
    }

    #[test]
    fn merge_and_db_iterator_match_the_model() {
        let storage = MemStorage::new();
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        for k in [1, 2, 7, 40] {
            let lists = entry_lists(k, &mut rng);
            // The raw merge: strict internal-key order, ties earliest first.
            let mut merge = Merge::new(cursors(&storage, &lists));
            merge.seek_to_first();
            for (key, list, value) in merged(&lists) {
                assert_eq!(merge.key().unwrap(), Some(key), "k={k} list {list}");
                assert_eq!(merge.value(), value, "k={k} {key:?} from list {list}");
                merge.advance();
            }
            assert_eq!(merge.key().unwrap(), None, "k={k}");
            // The same through the visibility rule, at several ceilings.
            for snapshot in [MAX_SEQ, 700, 300, 0] {
                let mut it = DbIterator::new(Merge::new(cursors(&storage, &lists)), snapshot);
                let what = format!("k={k} snapshot {snapshot}");
                check_against(&mut it, &live(&lists, snapshot), &mut rng, &what, &[]);
            }
        }
    }

    /// A `ReadView` over `lists`: the live buffer, a queued one, two L0
    /// tables, then two deeper levels — each one sorted run cut into three
    /// tables (an empty list makes no table).
    fn view(storage: &MemStorage, name: &str, lists: &[Vec<Entry>]) -> ReadView {
        let mut version = Version::new(4);
        let lists_with_tables = lists.iter().enumerate().skip(2);
        for (i, list) in lists_with_tables.filter(|(_, list)| !list.is_empty()) {
            let name = format!("{name}-{i}");
            match i {
                2 | 3 => version.levels[0].push(table(storage, &name, list, i == 2)),
                _ => version.levels[i - 3] = level(storage, &name, list),
            }
        }
        ReadView {
            mems: vec![memtable(&lists[0]), memtable(&lists[1])],
            version: Arc::new(version),
        }
    }

    #[test]
    fn views_and_shards_match_the_model() {
        let storage = MemStorage::new();
        let mut rng = Rng(0x2545_f491_4f6c_dd1d);
        let lists = entry_lists(6, &mut rng);
        for snapshot in [MAX_SEQ, 400] {
            let view = view(&storage, "v", &lists);
            let mut it = view.iter(snapshot, snapshot == 400);
            let what = format!("snapshot {snapshot}");
            check_against(&mut it, &live(&lists, snapshot), &mut rng, &what, &[]);
        }
        // Seven range-owned shards. User keys lie in 5..400, so the first
        // shard ([0, 5)) and the last ([400, ∞)) are empty; the keys of
        // [200, 240) are dropped, so a middle one is empty too.
        let cuts = vec![5, 120, 200, 240, 330, 400];
        let router = ShardRouter::with_boundaries(cuts.clone());
        let kept = |e: &Entry| !(200..240).contains(&e.key.user_key);
        let lists: Vec<Vec<Entry>> = entry_lists(6, &mut rng)
            .into_iter()
            .map(|list| list.into_iter().filter(kept).collect())
            .collect();
        let views = (0..=cuts.len()).map(|shard| {
            let of_shard = |list: &Vec<Entry>| -> Vec<Entry> {
                let mine = list
                    .iter()
                    .filter(|e| router.shard_of(e.key.user_key) == shard);
                mine.cloned().collect()
            };
            let lists: Vec<Vec<Entry>> = lists.iter().map(of_shard).collect();
            view(&storage, &format!("shard{shard}"), &lists)
        });
        let mut it = over_views(cuts, views.collect(), 500);
        let probes = [4, 5, 120, 200, 220, 240, 330, 400, 401];
        check_against(
            &mut it,
            &live(&lists, 500),
            &mut rng,
            "range shards",
            &probes,
        );
    }

    /// Calls made on one source.
    #[derive(Default)]
    struct Calls {
        key: AtomicUsize,
        value: AtomicUsize,
        advance: AtomicUsize,
    }

    struct Counting {
        inner: Box<dyn Cursor>,
        calls: Arc<Calls>,
    }

    impl Cursor for Counting {
        fn seek(&mut self, key: u64) -> Result<()> {
            self.inner.seek(key)
        }
        fn seek_to_first(&mut self) {
            self.inner.seek_to_first();
        }
        fn key(&mut self) -> Result<Option<InternalKey>> {
            self.calls.key.fetch_add(1, Ordering::Relaxed);
            self.inner.key()
        }
        fn value(&mut self) -> &[u8] {
            self.calls.value.fetch_add(1, Ordering::Relaxed);
            self.inner.value()
        }
        fn advance(&mut self) {
            self.calls.advance.fetch_add(1, Ordering::Relaxed);
            self.inner.advance();
        }
    }

    fn counting(
        storage: &MemStorage,
        lists: &[Vec<Entry>],
    ) -> (Vec<Box<dyn Cursor>>, Vec<Arc<Calls>>) {
        let calls: Vec<Arc<Calls>> = lists.iter().map(|_| Arc::default()).collect();
        let wrap = |(inner, calls): (Box<dyn Cursor>, &Arc<Calls>)| -> Box<dyn Cursor> {
            let calls = Arc::clone(calls);
            Box::new(Counting { inner, calls })
        };
        let sources = cursors(storage, lists).into_iter().zip(&calls).map(wrap);
        (sources.collect(), calls)
    }

    /// Work, not time: a merge reads one key per source to prime and then
    /// one per `advance`, on the source it advanced; a `DbIterator` asks for
    /// a value once per pair it returns, never for a version it skips.
    #[test]
    fn merge_reads_one_key_per_step_and_one_value_per_pair() {
        let storage = MemStorage::new();
        let mut rng = Rng(0x1234_5678_9abc_def1);
        for k in [1, 2, 7, 40] {
            let lists = entry_lists(k, &mut rng);
            let counts = |calls: &[Arc<Calls>]| -> Vec<(usize, usize)> {
                let of = |c: &Arc<Calls>| {
                    (
                        c.key.load(Ordering::Relaxed),
                        c.advance.load(Ordering::Relaxed),
                    )
                };
                calls.iter().map(of).collect()
            };
            let (sources, calls) = counting(&storage, &lists);
            let mut merge = Merge::new(sources);
            merge.seek_to_first();
            assert!(merge.key().unwrap().is_some());
            assert_eq!(counts(&calls), vec![(1, 0); k], "k={k}: primed");
            let mut steps = 1;
            loop {
                let before = counts(&calls);
                merge.advance();
                let more = merge.key().unwrap().is_some();
                assert_eq!(merge.key().unwrap().is_some(), more, "a head is cached");
                let moved: Vec<(usize, usize)> = counts(&calls)
                    .iter()
                    .zip(&before)
                    .map(|(now, was)| (now.0 - was.0, now.1 - was.1))
                    .filter(|&step| step != (0, 0))
                    .collect();
                assert_eq!(
                    moved,
                    vec![(1, 1)],
                    "k={k}: one source, one key, one advance"
                );
                if !more {
                    break;
                }
                steps += 1;
            }
            assert_eq!(steps, lists.iter().map(Vec::len).sum::<usize>(), "k={k}");

            let (sources, calls) = counting(&storage, &lists);
            let mut it = DbIterator::new(Merge::new(sources), 600);
            it.seek(100).unwrap();
            let pairs = it.collect_up_to(usize::MAX).unwrap().len();
            let values: usize = calls.iter().map(|c| c.value.load(Ordering::Relaxed)).sum();
            assert!(
                pairs > 0 && pairs < merged(&lists).len(),
                "k={k}: some versions are skipped"
            );
            assert_eq!(values, pairs, "k={k}");
        }
    }
}
