//! The one log of a sharded database (ARCHITECTURE.md §5): `NNNNNN.wal`
//! files at the database root, written by [`WalWriter`], holding every
//! batch of every shard. A batch is one format-1 record whose ops are
//! grouped by shard in routing order, so a cross-shard batch is crash-atomic
//! the way any batch is: its frame is whole or it is not replayed.
//!
//! A file is retired once no shard holds an unflushed op at or below the
//! last sequence it holds. A shard that stops taking writes would pin the
//! log forever, so once the live files pass [`LOG_BOUND_BUFFERS`] write
//! buffers, the shard holding the oldest unflushed op is flushed.

use std::collections::{HashSet, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use crate::stats::DbStats;
use crate::types::SeqNo;
use crate::wal::{self, ReplayedRecord, WalWriter};
use crate::{Error, Result};
use lsm_io::Storage;

/// Write buffers' worth of live log past which the shard pinning the oldest
/// file is flushed. Shards that flush as they fill keep the live log near
/// one buffer per shard, each buffer's log bytes below its buffer bytes.
pub const LOG_BOUND_BUFFERS: u64 = 8;

/// Append side of the log, serialized by the commit lock.
pub(crate) struct ShardedLog {
    storage: Arc<dyn Storage>,
    active: WalWriter,
    /// The last sequence the active file holds (0 while it is empty).
    active_last: SeqNo,
    next_no: u64,
    /// Older files still needed, oldest first: name, last sequence, bytes.
    sealed: VecDeque<(String, SeqNo, u64)>,
    /// One write buffer's bytes: the active file is rotated past it.
    buffer_bytes: u64,
}

impl ShardedLog {
    /// Append one batch, its regions (one per touched shard, in routing
    /// order) in one record at `first..first + count`, and sync it when
    /// asked. Returns the sync's wall time in ns, and whether the log is due
    /// its maintenance: it rotated (a sealed file may be retirable now) or
    /// passed the bound. A full active file is rotated first. The caller
    /// poisons on any error — a failed rotation's too, though it appended
    /// nothing: one rule for every failure at the commit point.
    pub(crate) fn append(
        &mut self,
        first: SeqNo,
        count: usize,
        regions: &[&[u8]],
        sync: bool,
        stats: &DbStats,
    ) -> Result<(Option<u64>, bool)> {
        let rotated = self.active.written() >= self.buffer_bytes;
        if rotated {
            self.rotate()?;
        }
        let framed = self.active.append_encoded(first, count, regions)?;
        self.active_last = first + count as SeqNo - 1;
        stats.wal_appends.fetch_add(1, Ordering::Relaxed);
        stats.wal_bytes.fetch_add(framed, Ordering::Relaxed);
        let due = rotated || self.over_bound();
        if !sync {
            return Ok((None, due));
        }
        let started = Instant::now();
        self.active.sync()?;
        stats.wal_syncs.fetch_add(1, Ordering::Relaxed);
        Ok((Some(started.elapsed().as_nanos() as u64), due))
    }

    /// Retire every file whose records no shard still needs: all of them
    /// below `floor`, the oldest sequence some shard holds unflushed. With
    /// no floor nothing is needed, and the active file is replaced by an
    /// empty one and retired too.
    pub(crate) fn retire(&mut self, floor: Option<SeqNo>) -> Result<()> {
        if floor.is_none() && self.active.written() > 0 {
            self.rotate()?;
        }
        let unneeded = |(_, last, _): &(String, SeqNo, u64)| floor.is_none_or(|f| *last < f);
        while self.sealed.front().is_some_and(unneeded) {
            let (name, ..) = self.sealed.pop_front().expect("front just checked");
            let _ = self.storage.remove(&name);
        }
        Ok(())
    }

    /// Whether the live files pass the bound.
    pub(crate) fn over_bound(&self) -> bool {
        let sealed: u64 = self.sealed.iter().map(|(_, _, bytes)| bytes).sum();
        sealed + self.active.written() > LOG_BOUND_BUFFERS * self.buffer_bytes
    }

    fn rotate(&mut self) -> Result<()> {
        let fresh = WalWriter::create(self.storage.as_ref(), &log_name(self.next_no))?;
        self.next_no += 1;
        let old = std::mem::replace(&mut self.active, fresh);
        let last = std::mem::take(&mut self.active_last);
        self.sealed
            .push_back((old.name().to_string(), last, old.written()));
        Ok(())
    }
}

fn log_name(no: u64) -> String {
    format!("{no:06}.wal")
}

/// Refuse a store laid out with a log per shard and a `COMMIT-<n>` marker
/// log: this build reads one log at the root, and opening the store would
/// lose what those logs hold.
pub(crate) fn refuse_per_shard_logs(storage: &dyn Storage) -> Result<()> {
    for name in storage.list()? {
        if name.starts_with("COMMIT") || (name.starts_with("shard-") && name.ends_with(".wal")) {
            return Err(Error::Corruption(format!(
                "{name} belongs to a log-per-shard layout, which this build \
                 does not read: it keeps one log per database"
            )));
        }
    }
    Ok(())
}

/// Recover the log: replay every root file's records through `apply`,
/// which applies what the shards' tables lack and says whether it applied
/// anything; re-log those records, in sequence order, into a fresh file and
/// sync it; then remove the old files, newest first. Returns the log and
/// the highest sequence any record holds.
///
/// A re-logged copy keeps its original's sequence range, and distinct
/// batches never share one, so a range read once is skipped wherever it
/// turns up again: a recovery that crashed, or failed, while removing the
/// old files leaves any subset of them beside the fresh one, and the next
/// recovery still reads every record exactly once.
pub(crate) fn recover(
    storage: Arc<dyn Storage>,
    buffer_bytes: usize,
    mut apply: impl FnMut(&ReplayedRecord) -> bool,
) -> Result<(ShardedLog, SeqNo)> {
    let mut files: Vec<(u64, String)> = storage
        .list()?
        .into_iter()
        .filter_map(|name| Some((name.strip_suffix(".wal")?.parse().ok()?, name)))
        .collect();
    files.sort_unstable();
    let mut last = 0;
    let mut read = HashSet::new();
    let mut kept = Vec::new();
    for (_, name) in &files {
        for record in wal::replay_records(storage.as_ref(), name)? {
            if !read.insert((record.first_seq, record.last_seq())) {
                continue;
            }
            last = last.max(record.last_seq());
            if apply(&record) {
                kept.push(record);
            }
        }
    }
    kept.sort_unstable_by_key(|record| record.first_seq);
    let next_no = files.last().map_or(1, |(no, _)| no + 1);
    let mut active = WalWriter::create(storage.as_ref(), &log_name(next_no))?;
    for record in &kept {
        active.append_batch(record.first_seq, &record.ops)?;
    }
    if !kept.is_empty() {
        active.sync()?;
    }
    for (_, name) in files.iter().rev() {
        storage.remove(name)?;
    }
    let log = ShardedLog {
        storage,
        active,
        active_last: kept.last().map_or(0, ReplayedRecord::last_seq),
        next_no: next_no + 1,
        sealed: VecDeque::new(),
        buffer_bytes: buffer_bytes as u64,
    };
    Ok((log, last))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchOp;
    use crate::types::EntryKind;
    use lsm_io::{CrashStorage, MemStorage};

    fn ops(keys: std::ops::Range<u64>) -> Vec<BatchOp> {
        let op = |key: u64| BatchOp {
            kind: EntryKind::Put,
            key,
            value: key.to_le_bytes().to_vec(),
        };
        keys.map(op).collect()
    }

    /// Recover `storage`, returning the log, the highest sequence and the
    /// `(first_seq, len)` of every record handed to `apply`.
    fn recovered(storage: &Arc<MemStorage>) -> (ShardedLog, SeqNo, Vec<(SeqNo, usize)>) {
        let mut seen = Vec::new();
        let (log, last) = recover(Arc::clone(storage) as Arc<dyn Storage>, 1 << 20, |r| {
            seen.push((r.first_seq, r.ops.len()));
            true
        })
        .unwrap();
        (log, last, seen)
    }

    fn append(log: &mut ShardedLog, first: SeqNo, batch: &[BatchOp]) {
        let region = wal::encode_ops(batch);
        log.append(first, batch.len(), &[&region], false, &DbStats::new())
            .unwrap();
    }

    fn logs(storage: &MemStorage) -> Vec<String> {
        let mut names = storage.list().unwrap();
        names.retain(|n| n.ends_with(".wal"));
        names.sort_unstable();
        names
    }

    #[test]
    fn an_empty_store_recovers_an_empty_log() {
        let storage = Arc::new(MemStorage::new());
        let (log, last, seen) = recovered(&storage);
        assert_eq!((last, seen.len()), (0, 0));
        assert_eq!(logs(&storage), ["000001.wal"]);
        assert!(!log.over_bound());
    }

    #[test]
    fn append_and_recover_roundtrip() {
        let storage = Arc::new(MemStorage::new());
        let (mut log, ..) = recovered(&storage);
        append(&mut log, 1, &ops(0..10));
        append(&mut log, 11, &ops(20..21));
        drop(log);
        let (_, last, seen) = recovered(&storage);
        assert_eq!(last, 11);
        assert_eq!(seen, [(1, 10), (11, 1)]);
        // The kept records were re-logged into a fresh file, the old one
        // removed, and a second recovery reads them again.
        assert_eq!(logs(&storage), ["000002.wal"]);
        assert_eq!(recovered(&storage).2, seen);
    }

    /// A record `apply` found nothing to apply in is not re-logged.
    #[test]
    fn records_the_shards_hold_are_not_relogged() {
        let storage = Arc::new(MemStorage::new());
        let (mut log, ..) = recovered(&storage);
        append(&mut log, 1, &ops(0..3));
        append(&mut log, 4, &ops(3..5));
        drop(log);
        let dyn_storage = Arc::clone(&storage) as Arc<dyn Storage>;
        let (_, last) = recover(dyn_storage, 1 << 20, |r| r.first_seq > 1).unwrap();
        assert_eq!(last, 5);
        assert_eq!(recovered(&storage).2, [(4, 2)]);
    }

    /// Every strict prefix of a record's frame is no record at all; the
    /// whole frame is one.
    #[test]
    fn every_strict_record_prefix_replays_nothing() {
        let storage = Arc::new(MemStorage::new());
        let (mut log, ..) = recovered(&storage);
        append(&mut log, 3, &ops(0..6));
        drop(log);
        let full = lsm_io::read_all(storage.as_ref(), "000001.wal").unwrap();
        for cut in 0..full.len() {
            let torn = Arc::new(MemStorage::new());
            torn.create("000001.wal")
                .unwrap()
                .append(&full[..cut])
                .unwrap();
            let (_, last, seen) = recovered(&torn);
            assert_eq!((last, seen.len()), (0, 0), "prefix of {cut}");
        }
        assert_eq!(recovered(&storage).2, [(3, 6)]);
    }

    /// A torn tail drops its whole record and keeps the records before it.
    #[test]
    fn a_torn_tail_record_is_dropped_whole() {
        let storage = Arc::new(MemStorage::new());
        let (mut log, ..) = recovered(&storage);
        append(&mut log, 1, &ops(0..2));
        let first_len = log.active.written() as usize;
        append(&mut log, 3, &ops(2..7));
        drop(log);
        let full = lsm_io::read_all(storage.as_ref(), "000001.wal").unwrap();
        for cut in first_len..full.len() {
            let torn = Arc::new(MemStorage::new());
            torn.create("000001.wal")
                .unwrap()
                .append(&full[..cut])
                .unwrap();
            let (_, last, seen) = recovered(&torn);
            assert_eq!((last, seen), (2, vec![(1, 2)]), "cut at {cut}");
        }
    }

    /// A recovery that crashed after writing its fresh file but before
    /// removing the old ones leaves every kept record twice: the next one
    /// reads each once, then the records written after the first recovery.
    #[test]
    fn a_recovery_crash_leaves_copies_read_once() {
        let storage = Arc::new(MemStorage::new());
        let (mut log, ..) = recovered(&storage);
        append(&mut log, 1, &ops(0..2));
        append(&mut log, 3, &ops(2..3));
        drop(log);
        let old = lsm_io::read_all(storage.as_ref(), "000001.wal").unwrap();
        let (mut log, ..) = recovered(&storage);
        append(&mut log, 4, &ops(3..4));
        drop(log);
        storage.create("000001.wal").unwrap().append(&old).unwrap();
        let (_, last, seen) = recovered(&storage);
        assert_eq!(last, 4);
        assert_eq!(seen, [(1, 2), (3, 1), (4, 1)]);
    }

    /// Two old files, 000001 (seqs 10..=12) and 000002 (20..=30), recovered
    /// with a crash at every storage op: whatever subset of the old files a
    /// crash leaves beside the fresh copies, the next recovery reads each
    /// record exactly once and loses none.
    #[test]
    fn a_crash_between_the_old_files_removals_loses_no_record() {
        let storage = Arc::new(MemStorage::new());
        let (mut log, ..) = recovered(&storage);
        log.buffer_bytes = 1; // the second append rotates into 000002
        append(&mut log, 10, &ops(0..3));
        append(&mut log, 20, &ops(3..14));
        drop(log);
        assert_eq!(logs(&storage), ["000001.wal", "000002.wal"]);
        let recover_on = |image: MemStorage, crash_after: Option<u64>| {
            let (crashing, control) = CrashStorage::over(image);
            if let Some(n) = crash_after {
                control.crash_after(n);
            }
            let outcome = recover(Arc::clone(&crashing) as Arc<dyn Storage>, 1 << 20, |_| true);
            (
                outcome.map(|(_, last)| last).ok(),
                control.ops(),
                crashing.image(),
            )
        };
        let (last, total, done) = recover_on(storage.deep_clone(), None);
        assert_eq!((last, logs(&done)), (Some(30), vec!["000003.wal".into()]));
        let whole = vec![(10, 3), (20, 11)];
        let mut between = 0;
        for n in 0..=total {
            let (_, _, image) = recover_on(storage.deep_clone(), Some(n));
            let left = logs(&image);
            between += usize::from(left.len() == 2 && left[1] == "000003.wal");
            let (_, last, mut seen) = recovered(&Arc::new(image));
            seen.sort_unstable();
            assert_eq!(
                (last, seen),
                (30, whole.clone()),
                "crash after {n} ops: {left:?}"
            );
        }
        assert_eq!(between, 1, "one crash point falls between the two removals");
        // The other order of removals, planted by hand: the newer old file
        // beside the copies. Reading it first must not hide 10..=12.
        let planted = Arc::new(MemStorage::new());
        for (name, from) in [("000002.wal", &storage), ("000003.wal", &Arc::new(done))] {
            let bytes = lsm_io::read_all(from.as_ref(), name).unwrap();
            planted.create(name).unwrap().append(&bytes).unwrap();
        }
        let (_, last, seen) = recovered(&planted);
        assert_eq!((last, seen), (30, vec![(20, 11), (10, 3)]));
        // Its fresh file holds the records in sequence order.
        assert_eq!(recovered(&planted).2, whole);
    }

    /// Files are retired below the floor, the active one never while a
    /// shard needs anything; with no floor every file goes and the active
    /// one is replaced by an empty file.
    #[test]
    fn retire_removes_files_below_the_floor() {
        let storage = Arc::new(MemStorage::new());
        let (mut log, ..) = recovered(&storage);
        log.buffer_bytes = 1; // every append after the first rotates
        for seq in 1..=5 {
            append(&mut log, seq, &ops(seq..seq + 1));
        }
        assert_eq!(logs(&storage).len(), 5);
        log.retire(Some(3)).unwrap();
        assert_eq!(logs(&storage), ["000003.wal", "000004.wal", "000005.wal"]);
        log.retire(Some(6)).unwrap();
        assert_eq!(logs(&storage), ["000005.wal"], "the active file stays");
        log.retire(None).unwrap();
        assert_eq!(logs(&storage), ["000006.wal"]);
        assert_eq!(log.active.written(), 0);
    }

    #[test]
    fn per_shard_logs_and_commit_marker_files_are_refused() {
        for name in ["COMMIT", "COMMIT-000001", "shard-3/000002.wal"] {
            let storage = MemStorage::new();
            drop(storage.create("000004.wal").unwrap());
            drop(storage.create("shard-3/MANIFEST-000001").unwrap());
            assert!(refuse_per_shard_logs(&storage).is_ok());
            drop(storage.create(name).unwrap());
            let refused = refuse_per_shard_logs(&storage);
            assert!(
                matches!(&refused, Err(Error::Corruption(m)) if m.contains(name)),
                "{name}: {refused:?}"
            );
        }
    }
}
