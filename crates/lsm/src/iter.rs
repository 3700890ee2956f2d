//! Merging iterators: range lookups and compaction input (the paper's
//! `NewIter` / `NewLevelIter` / `NewDBIter` stack in Figure 4).
//!
//! A [`MergeIter`] k-way-merges table cursors and a memtable snapshot by
//! internal key; [`DbIterator`] layers LSM visibility on top — newest
//! version per user key wins, tombstones suppress older versions, and
//! versions newer than the read snapshot are invisible.
//!
//! One level up, the sharding layer merges whole *engines*: a
//! [`crate::sharding::ShardedDbIterator`] k-way-merges per-shard
//! `DbIterator`s (already version-resolved, so by user key alone) into one
//! globally ordered scan.

use std::sync::Arc;

use crate::memtable::{MemCursor, MemRun};
use crate::snapshot::ReadView;
use crate::sstable::{TableIter, TableReader};
use crate::types::{Entry, EntryKind, InternalKey, SeqNo};
use crate::Result;

impl ReadView {
    /// A snapshot-consistent [`DbIterator`] over the view's three layers:
    /// the memtable stack (the live concurrent buffer plus queued immutable
    /// memtables, each an already-sorted run), then every SSTable of the
    /// version. Newer sources come first so same-key ties resolve newest.
    /// Entries the live buffer receives after this call carry sequence
    /// numbers above `seq` and are filtered by the iterator's visibility
    /// rule. `fill_cache` is the scan's block-cache fill policy
    /// (`ReadOptions::fill_cache`), threaded into every table cursor.
    pub(crate) fn iter(&self, seq: SeqNo, fill_cache: bool) -> DbIterator {
        let version = &self.version;
        let mut sources = Vec::with_capacity(self.mems.len() + 1 + version.levels.len());
        for mem in &self.mems {
            sources.push(match mem {
                MemRun::Live(m) => MergeSource::Mem(m.cursor()),
                MemRun::Frozen(entries) => MergeSource::buffered_shared(Arc::clone(entries)),
            });
        }
        for t in &version.levels[0] {
            sources.push(MergeSource::table_with(Arc::clone(&t.reader), fill_cache));
        }
        if version.sorted_levels {
            for level in version.levels.iter().skip(1) {
                if !level.is_empty() {
                    sources.push(MergeSource::level_with(
                        level.iter().map(|t| Arc::clone(&t.reader)).collect(),
                        fill_cache,
                    ));
                }
            }
        } else {
            // Tiering: runs overlap, so every table merges independently.
            for t in version.levels.iter().skip(1).flatten() {
                sources.push(MergeSource::table_with(Arc::clone(&t.reader), fill_cache));
            }
        }
        DbIterator::new(MergeIter::new(sources), seq)
    }
}

/// Cursor over one sorted level: non-overlapping tables concatenated in key
/// order, opened lazily one at a time (the paper's `NewLevelIter`).
pub struct LevelIter {
    tables: Vec<Arc<TableReader>>,
    idx: usize,
    cur: Option<TableIter>,
    fill_cache: bool,
}

impl LevelIter {
    /// Over `tables`, which must be sorted by min key and non-overlapping,
    /// with an explicit block-cache fill policy.
    pub fn with_fill(tables: Vec<Arc<TableReader>>, fill_cache: bool) -> Self {
        debug_assert!(tables.windows(2).all(|w| w[0].max_key() < w[1].min_key()));
        Self {
            tables,
            idx: 0,
            cur: None,
            fill_cache,
        }
    }

    fn open_current(&mut self) {
        self.cur = self
            .tables
            .get(self.idx)
            .map(|t| TableIter::with_fill(Arc::clone(t), self.fill_cache));
    }

    fn seek(&mut self, key: u64) -> Result<()> {
        self.idx = self.tables.partition_point(|t| t.max_key() < key);
        self.open_current();
        if let Some(it) = &mut self.cur {
            it.seek(key)?;
        }
        Ok(())
    }

    fn seek_to_first(&mut self) {
        self.idx = 0;
        self.open_current();
        if let Some(it) = &mut self.cur {
            it.seek_to_first();
        }
    }

    fn current_entry(&mut self) -> Result<Option<&Entry>> {
        loop {
            match &mut self.cur {
                None => return Ok(None),
                Some(it) => {
                    // Borrow dance: probe for exhaustion first.
                    if it.current()?.is_none() {
                        self.idx += 1;
                        self.open_current();
                        if let Some(next) = &mut self.cur {
                            next.seek_to_first();
                        }
                        continue;
                    }
                    break;
                }
            }
        }
        match &mut self.cur {
            Some(it) => it.current(),
            None => Ok(None),
        }
    }

    fn advance(&mut self) {
        if let Some(it) = &mut self.cur {
            it.advance();
        }
    }
}

/// One merge input.
pub enum MergeSource {
    /// An SSTable cursor.
    Table(TableIter),
    /// A sorted level of non-overlapping tables.
    Level(LevelIter),
    /// A buffered, sorted run of entries (frozen memtable). Shared via
    /// `Arc` so snapshot iterators reuse the pinned copy instead of
    /// deep-cloning a write buffer per iterator.
    Buffered {
        entries: Arc<Vec<Entry>>,
        pos: usize,
    },
    /// A cursor over the **live** concurrent memtable (no copy at all —
    /// the cursor walks the shared skiplist, which is insert-only and so
    /// safe to traverse under concurrent writes).
    Mem(MemCursor),
}

impl MergeSource {
    /// Wrap a table with an explicit block-cache fill policy.
    pub fn table_with(reader: Arc<TableReader>, fill_cache: bool) -> Self {
        MergeSource::Table(TableIter::with_fill(reader, fill_cache))
    }

    /// Wrap a sorted level with an explicit block-cache fill policy.
    pub fn level_with(tables: Vec<Arc<TableReader>>, fill_cache: bool) -> Self {
        MergeSource::Level(LevelIter::with_fill(tables, fill_cache))
    }

    /// Wrap an already-sorted entry run.
    pub fn buffered(entries: Vec<Entry>) -> Self {
        Self::buffered_shared(Arc::new(entries))
    }

    /// Wrap an already-sorted entry run without copying it.
    pub fn buffered_shared(entries: Arc<Vec<Entry>>) -> Self {
        debug_assert!(entries.windows(2).all(|w| w[0].key < w[1].key));
        MergeSource::Buffered { entries, pos: 0 }
    }

    fn seek(&mut self, key: u64) -> Result<()> {
        match self {
            MergeSource::Table(it) => it.seek(key),
            MergeSource::Level(it) => it.seek(key),
            MergeSource::Buffered { entries, pos } => {
                *pos = entries.partition_point(|e| e.key < InternalKey::seek_to(key));
                Ok(())
            }
            MergeSource::Mem(c) => {
                c.seek(key);
                Ok(())
            }
        }
    }

    fn seek_to_first(&mut self) {
        match self {
            MergeSource::Table(it) => it.seek_to_first(),
            MergeSource::Level(it) => it.seek_to_first(),
            MergeSource::Buffered { pos, .. } => *pos = 0,
            MergeSource::Mem(c) => c.seek_to_first(),
        }
    }

    fn current_key(&mut self) -> Result<Option<InternalKey>> {
        match self {
            MergeSource::Table(it) => Ok(it.current()?.map(|e| e.key)),
            MergeSource::Level(it) => Ok(it.current_entry()?.map(|e| e.key)),
            MergeSource::Buffered { entries, pos } => Ok(entries.get(*pos).map(|e| e.key)),
            MergeSource::Mem(c) => Ok(c.current_key()),
        }
    }

    fn take_current(&mut self) -> Result<Option<Entry>> {
        match self {
            MergeSource::Table(it) => Ok(it.current()?.cloned()),
            MergeSource::Level(it) => Ok(it.current_entry()?.cloned()),
            MergeSource::Buffered { entries, pos } => Ok(entries.get(*pos).cloned()),
            MergeSource::Mem(c) => Ok(c.take_current()),
        }
    }

    fn advance(&mut self) {
        match self {
            MergeSource::Table(it) => it.advance(),
            MergeSource::Level(it) => it.advance(),
            MergeSource::Buffered { pos, .. } => *pos += 1,
            MergeSource::Mem(c) => c.advance(),
        }
    }
}

/// K-way merge by internal key (duplicates allowed across sources; the
/// internal-key order already puts newer versions first).
pub struct MergeIter {
    sources: Vec<MergeSource>,
}

impl MergeIter {
    /// Merge over `sources`; call one of the seek methods before reading.
    pub fn new(sources: Vec<MergeSource>) -> Self {
        Self { sources }
    }

    /// Seek every source to the first entry with user key ≥ `key`.
    pub fn seek(&mut self, key: u64) -> Result<()> {
        for s in &mut self.sources {
            s.seek(key)?;
        }
        Ok(())
    }

    /// Seek every source to its start.
    pub fn seek_to_first(&mut self) {
        for s in &mut self.sources {
            s.seek_to_first();
        }
    }

    /// Pop the smallest entry by internal key. Ties across sources (same
    /// user key and seq — impossible in a correct DB) resolve to the
    /// earliest source, which is the newest input by construction.
    pub fn next_entry(&mut self) -> Result<Option<Entry>> {
        let mut best: Option<(usize, InternalKey)> = None;
        for i in 0..self.sources.len() {
            if let Some(k) = self.sources[i].current_key()? {
                let better = match best {
                    None => true,
                    Some((_, bk)) => k < bk,
                };
                if better {
                    best = Some((i, k));
                }
            }
        }
        match best {
            None => Ok(None),
            Some((i, _)) => {
                let e = self.sources[i].take_current()?;
                self.sources[i].advance();
                Ok(e)
            }
        }
    }
}

/// Snapshot-consistent user-level iterator: yields `(user_key, value)` for
/// live, visible keys in ascending order.
pub struct DbIterator {
    merge: MergeIter,
    snapshot: SeqNo,
    last_user_key: Option<u64>,
}

impl DbIterator {
    /// New iterator reading at `snapshot`.
    pub fn new(merge: MergeIter, snapshot: SeqNo) -> Self {
        Self {
            merge,
            snapshot,
            last_user_key: None,
        }
    }

    /// Position at the first live key ≥ `key`.
    pub fn seek(&mut self, key: u64) -> Result<()> {
        self.last_user_key = None;
        self.merge.seek(key)
    }

    /// Position at the smallest key.
    pub fn seek_to_first(&mut self) {
        self.last_user_key = None;
        self.merge.seek_to_first();
    }

    /// Next live `(key, value)` pair.
    #[allow(clippy::should_implement_trait)] // fallible cursor, not Iterator
    pub fn next(&mut self) -> Result<Option<(u64, Vec<u8>)>> {
        while let Some(e) = self.merge.next_entry()? {
            if e.key.seq > self.snapshot {
                continue; // newer than the read snapshot
            }
            if self.last_user_key == Some(e.key.user_key) {
                continue; // older version of an emitted / deleted key
            }
            self.last_user_key = Some(e.key.user_key);
            match e.key.kind {
                EntryKind::Delete => continue, // tombstone masks the key
                EntryKind::Put => return Ok(Some((e.key.user_key, e.value))),
            }
        }
        Ok(None)
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

#[cfg(test)]
mod tests {
    use super::*;

    fn buffered(entries: Vec<Entry>) -> MergeSource {
        MergeSource::buffered(entries)
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
        let mut m = MergeIter::new(vec![a, b]);
        m.seek_to_first();
        let mut keys = Vec::new();
        while let Some(e) = m.next_entry().unwrap() {
            keys.push(e.key.user_key);
        }
        assert_eq!(keys, vec![1, 2, 5, 9]);
    }

    #[test]
    fn newer_version_emerges_first() {
        let newer = buffered(vec![Entry::put(5, 20, b"new".to_vec())]);
        let older = buffered(vec![Entry::put(5, 10, b"old".to_vec())]);
        let mut m = MergeIter::new(vec![older, newer]);
        m.seek_to_first();
        let first = m.next_entry().unwrap().unwrap();
        assert_eq!(first.key.seq, 20);
        let second = m.next_entry().unwrap().unwrap();
        assert_eq!(second.key.seq, 10);
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
        let mut it = DbIterator::new(MergeIter::new(vec![newer, older]), u64::MAX >> 8);
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
        let mut it = DbIterator::new(MergeIter::new(vec![run]), 10);
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
        let mut it = DbIterator::new(MergeIter::new(vec![run]), 10);
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
        let mut it = DbIterator::new(MergeIter::new(vec![run]), u64::MAX >> 8);
        it.seek(7).unwrap();
        let got = it.collect_up_to(10).unwrap();
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].0, 7);
    }
}
