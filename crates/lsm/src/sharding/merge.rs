//! Globally ordered scans over range-partitioned shards.
//!
//! Each shard contributes one snapshot-consistent [`DbIterator`], which
//! already resolves versions and tombstones *within* its shard and is a
//! [`crate::iter::Cursor`] over its live pairs. The cross-shard scan is the
//! engine's one [`Merge`] over those cursors, read by one more `DbIterator`
//! at [`MAX_SEQ`]: shards own disjoint key ranges — a key routes to exactly
//! one shard — so every pair a shard yields is visible and unshadowed, the
//! outer visibility rule passes it through, and only the ordering does
//! work. A value crosses both layers borrowed and is copied once, by the
//! outer `next`. Because every shard owns a range, the merge amounts to
//! shard concatenation in routing order; it stays a merge so that the
//! order of the sources never has to be argued, and its output is one
//! ascending scan whatever sets the sources hold.
//!
//! The sources are **epoch-pinned**: [`super::ShardedDb::iter_at`] builds
//! them from the shard set of the [`super::ShardedSnapshot`]'s own topology
//! epoch, so a live split publishing a new topology mid-scan can neither
//! drop a source nor double one — the merge keeps reading the parent it
//! pinned, never a half-populated child.

use crate::iter::{Cursor, DbIterator, Merge};
use crate::types::MAX_SEQ;

/// Merged iterator over per-shard [`DbIterator`]s, yielding live
/// `(key, value)` pairs in ascending key order across the whole
/// [`super::ShardedDb`]. Obtained from [`super::ShardedDb::iter`] /
/// [`super::ShardedDb::iter_at`].
///
/// The per-shard iterators pin their own memtable stacks and versions
/// (`Arc`s), so the merged scan stays stable across concurrent writes,
/// flushes and compactions.
pub type ShardedDbIterator = DbIterator;

/// Merge over one iterator per shard.
pub(crate) fn over_shards(iters: Vec<DbIterator>) -> ShardedDbIterator {
    let shards = iters.into_iter().map(|it| Box::new(it) as Box<dyn Cursor>);
    DbIterator::new(Merge::new(shards.collect()), MAX_SEQ)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::WriteBatch;
    use crate::memtable::MemTable;

    fn shard_iter(keys: &[u64]) -> DbIterator {
        let mem = MemTable::new();
        let mut batch = WriteBatch::new();
        for &k in keys {
            batch.put(k, &[k as u8]);
        }
        mem.apply_batch(batch.ops(), 1);
        DbIterator::new(Merge::new(vec![Box::new(mem.cursor())]), MAX_SEQ)
    }

    #[test]
    fn merges_interleaved_shards_in_global_order() {
        // Sources that interleave (keys mod 3), as no range topology does:
        // the merge orders whatever it is given.
        let mut it = over_shards(vec![
            shard_iter(&[0, 3, 6, 9]),
            shard_iter(&[1, 4, 7]),
            shard_iter(&[2, 5, 8]),
        ]);
        it.seek_to_first();
        let keys: Vec<u64> = it
            .collect_up_to(usize::MAX)
            .unwrap()
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        assert_eq!(keys, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn range_shards_concatenate() {
        let mut it = over_shards(vec![
            shard_iter(&[1, 2, 3]),
            shard_iter(&[10, 11]),
            shard_iter(&[]),
            shard_iter(&[20]),
        ]);
        it.seek_to_first();
        let got = it.collect_up_to(usize::MAX).unwrap();
        assert_eq!(
            got.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            vec![1, 2, 3, 10, 11, 20]
        );
    }

    #[test]
    fn seek_positions_every_shard() {
        let mut it = over_shards(vec![shard_iter(&[0, 4, 8, 12]), shard_iter(&[1, 5, 9, 13])]);
        it.seek(6).unwrap();
        let got = it.collect_up_to(3).unwrap();
        assert_eq!(
            got.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            vec![8, 9, 12]
        );
        // Re-seeking rewinds.
        it.seek(0).unwrap();
        assert_eq!(it.next().unwrap().unwrap().0, 0);
    }
}
