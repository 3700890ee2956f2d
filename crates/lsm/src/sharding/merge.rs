//! Globally ordered scans over range-partitioned shards: the shards' own
//! iterators, concatenated in routing order and opened lazily.
//!
//! Every shard owns one contiguous key range, so the shards of a
//! [`super::ShardedDb`] are one more sorted level of disjoint runs, and a
//! scan over them is what [`crate::iter::LevelIter`] is over a level's
//! tables (the paper's `NewLevelIter`): a seek opens only the shard that
//! owns its key, and when a shard is exhausted the next one in routing
//! order opens at its start. Each shard's [`DbIterator`] resolves versions
//! and tombstones within its shard, and no key lives in two shards, so
//! nothing above it compares keys or re-applies visibility: a value is
//! copied once, by the shard's own `next`.
//!
//! The iterator owns a [`ShardedSnapshot`]: the routing state, one pinned
//! view per shard and the fence every shard is read at. The pins count in
//! [`super::ShardedDb::live_snapshots`] until the iterator drops.

use super::ShardedSnapshot;
use crate::iter::DbIterator;
use crate::Result;

/// Iterator over the live `(key, value)` pairs of a whole
/// [`super::ShardedDb`], in ascending key order. Obtained from
/// [`super::ShardedDb::iter`] / [`super::ShardedDb::iter_at`].
pub struct ShardedDbIterator {
    snapshot: ShardedSnapshot,
    /// Routing position of the open shard.
    pos: usize,
    /// The open shard's iterator — the only one; none before a seek.
    cur: Option<DbIterator>,
}

impl ShardedDbIterator {
    pub(crate) fn new(snapshot: ShardedSnapshot) -> Self {
        Self {
            snapshot,
            pos: 0,
            cur: None,
        }
    }

    /// Open shard `pos` at the snapshot's fence, dropping the one open.
    fn open(&mut self, pos: usize) -> &mut DbIterator {
        self.pos = pos;
        let pin = self.snapshot.shard(pos);
        self.cur.insert(pin.view().iter(pin.seq(), true))
    }

    /// Position at the first live key ≥ `key`.
    pub fn seek(&mut self, key: u64) -> Result<()> {
        let pos = self.snapshot.state.router.shard_of(key);
        self.open(pos).seek(key)
    }

    /// Position at the smallest key.
    pub fn seek_to_first(&mut self) {
        self.open(0).seek_to_first();
    }

    /// Next live `(key, value)` pair: the open shard's next, or once it is
    /// exhausted the first of the shards after it.
    #[allow(clippy::should_implement_trait)] // fallible cursor, not Iterator
    #[inline]
    pub fn next(&mut self) -> Result<Option<(u64, Vec<u8>)>> {
        loop {
            let Some(cur) = &mut self.cur else {
                return Ok(None);
            };
            if let Some(pair) = cur.next()? {
                return Ok(Some(pair));
            }
            if self.pos + 1 == self.snapshot.pins.len() {
                return Ok(None);
            }
            self.open(self.pos + 1).seek_to_first();
        }
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

/// An iterator over `views`, one per shard of a router cut at `cuts`, each
/// read at `seq` — what [`super::ShardedDb::iter`] builds, without the
/// engines around the views.
#[cfg(test)]
pub(crate) fn over_views(
    cuts: Vec<u64>,
    views: Vec<crate::snapshot::ReadView>,
    seq: crate::types::SeqNo,
) -> ShardedDbIterator {
    use crate::snapshot::Snapshot;
    use std::sync::Arc;
    assert_eq!(views.len(), cuts.len() + 1, "one view per shard");
    let live = Arc::default();
    let pins = views
        .into_iter()
        .map(|v| Snapshot::pin(seq, Arc::new(v), &live));
    let state = super::RoutingState {
        epoch: 0,
        ids: Vec::new(),
        router: super::ShardRouter::with_boundaries(cuts),
        shards: Vec::new(),
    };
    ShardedDbIterator::new(ShardedSnapshot {
        seq,
        state: Arc::new(state),
        pins: pins.collect(),
    })
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::batch::WriteBatch;
    use crate::memtable::MemTable;
    use crate::options::IndexChoice;
    use crate::snapshot::ReadView;
    use crate::sstable::{TableBuilder, TableReader};
    use crate::types::{Entry, MAX_SEQ};
    use crate::version::{TableHandle, Version};
    use lsm_io::{MemStorage, Storage};

    /// A shard holding `keys` in its write buffer (value: the key's low byte).
    fn buffered(keys: &[u64]) -> ReadView {
        let mem = MemTable::new();
        let mut batch = WriteBatch::new();
        for &k in keys {
            batch.put(k, &[k as u8]);
        }
        mem.apply_batch(batch.ops(), 1);
        ReadView {
            mems: vec![mem],
            version: Arc::new(Version::new(2)),
        }
    }

    /// Shards at cuts 10 / 20 / 30 / 40: empty first, last and in the
    /// middle, and one shard holding a single key.
    const CUTS: [u64; 4] = [10, 20, 30, 40];

    fn shards() -> ShardedDbIterator {
        let views = [&[][..], &[11, 12, 19], &[], &[30], &[]];
        let views = views.iter().map(|keys| buffered(keys)).collect();
        over_views(CUTS.to_vec(), views, MAX_SEQ)
    }

    fn keys(pairs: Vec<(u64, Vec<u8>)>) -> Vec<u64> {
        pairs.into_iter().map(|(k, _)| k).collect()
    }

    /// The keys `shards()` holds.
    const KEYS: [u64; 4] = [11, 12, 19, 30];

    #[test]
    fn range_shards_concatenate() {
        let mut it = shards();
        assert_eq!(it.next().unwrap(), None, "nothing before a seek");
        it.seek_to_first();
        let all = it.collect_up_to(usize::MAX).unwrap();
        let want = KEYS.map(|k| (k, vec![k as u8]));
        assert_eq!(all, want);
        assert_eq!(it.next().unwrap(), None, "exhausted stays exhausted");
        // Over every shard again from the start, after exhaustion.
        it.seek_to_first();
        assert_eq!(it.collect_up_to(usize::MAX).unwrap(), want);
    }

    /// Seeks before the first key, on every cut, inside the empty middle
    /// shard and past the end — each after the previous one exhausted the
    /// iterator.
    #[test]
    fn seeks_land_before_on_and_past_every_cut() {
        let mut it = shards();
        for key in [0, 5, 10, 12, 13, 20, 25, 30, 31, 40, 41, u64::MAX] {
            it.seek(key).unwrap();
            let want = KEYS.into_iter().filter(|&k| k >= key);
            let got = keys(it.collect_up_to(usize::MAX).unwrap());
            assert_eq!(got, Vec::from_iter(want), "seek({key})");
        }
        it.seek(12).unwrap();
        assert_eq!(keys(it.collect_up_to(2).unwrap()), [12, 19], "a limit");
        assert_eq!(keys(it.collect_up_to(2).unwrap()), [30], "resumes");
    }

    /// A shard whose `keys` lie in one uncached table on a device of its
    /// own, so that every block it reads is counted there.
    fn on_device(keys: &[u64]) -> (ReadView, MemStorage) {
        let storage = MemStorage::new();
        let mut version = Version::new(2);
        if !keys.is_empty() {
            let index = IndexChoice::new(learned_index::IndexKind::Pgm, 4);
            let file = storage.create("t.sst").unwrap();
            let mut b = TableBuilder::new(file, "t.sst".into(), index, 100, 10);
            keys.iter()
                .for_each(|&k| b.add(&Entry::put(k, 1, vec![7; 100])).unwrap());
            let meta = b.finish().unwrap();
            let reader = Arc::new(TableReader::open_with(&storage, "t.sst", None).unwrap());
            version.levels[1] = vec![Arc::new(TableHandle { meta, reader })];
        }
        let view = ReadView {
            mems: vec![MemTable::new()],
            version: Arc::new(version),
        };
        (view, storage)
    }

    /// The shards whose devices `step` reads from.
    fn read_by(devices: &[MemStorage], step: impl FnOnce()) -> Vec<usize> {
        let calls = || -> Vec<u64> {
            let calls = devices.iter().map(|d| d.stats().snapshot().read_calls);
            calls.collect()
        };
        let before = calls();
        step();
        let after = calls();
        (0..devices.len())
            .filter(|&i| after[i] > before[i])
            .collect()
    }

    /// Work, not time: a seek reads from the shard that owns its key and
    /// from no other, and a scan reads from the next shard only once it has
    /// returned the last pair of the one before.
    #[test]
    fn a_seek_reads_one_shard_and_the_next_only_once_it_is_exhausted() {
        let owned: [Vec<u64>; 5] = [
            vec![],
            (100..140).collect(),
            vec![],
            (300..340).collect(),
            (400..440).collect(),
        ];
        let (views, devices): (Vec<ReadView>, Vec<MemStorage>) =
            owned.iter().map(|keys| on_device(keys)).unzip();
        let mut it = over_views(vec![100, 200, 300, 400], views, MAX_SEQ);
        let next = |it: &mut ShardedDbIterator, n: usize| keys(it.collect_up_to(n).unwrap());

        let read = read_by(&devices, || {
            it.seek(120).unwrap();
            assert_eq!(next(&mut it, 20), Vec::from_iter(120..140));
        });
        assert_eq!(read, [1], "seek(120), then to shard 1's last pair");
        let read = read_by(&devices, || {
            assert_eq!(next(&mut it, 40), Vec::from_iter(300..340));
        });
        assert_eq!(read, [3], "past the empty shard 2, to shard 3's last pair");
        let read = read_by(&devices, || assert_eq!(next(&mut it, 1), [400]));
        assert_eq!(read, [4]);
        let read = read_by(&devices, || {
            it.seek(230).unwrap();
            assert_eq!(next(&mut it, 1), [300]);
        });
        assert_eq!(read, [3], "from a seek into the empty shard 2");
    }
}
