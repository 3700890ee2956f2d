//! The write-ahead log of a database (ARCHITECTURE.md §2, §5): `NNNNNN.wal`
//! files at its root, written by [`WalWriter`]. A lone [`crate::Db`] keeps
//! one for its tree and a [`crate::sharding::ShardedDb`] one for all its
//! shards; there is no other. No manifest names a log file: recovery lists
//! them, and a manifest's `flushed <seq>` says which records its tables
//! hold already.
//!
//! The owner decides when a file is rotated — a lone `Db` with its write
//! buffer, a sharded database once the active file holds a buffer's bytes
//! — and retires every file whose last sequence is below its floor, the
//! oldest op no sealed manifest covers.
//!
//! A rotation syncs the retiring file first when it holds records appended
//! since its last sync, so a durable write in a newer file never survives
//! a power loss that an earlier acknowledged write in an older file does
//! not.

use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::stats::DbStats;
use crate::types::SeqNo;
use crate::wal::{self, ReplayedRecord, WalWriter};
use crate::Result;
use lsm_io::Storage;

/// A database's log: the active file and the older ones still needed. Its
/// owner serializes every call (a lone `Db` under its tree lock, a sharded
/// database under its commit lock).
pub(crate) struct Log {
    storage: Arc<dyn Storage>,
    active: WalWriter,
    /// The last sequence the active file holds (0 while it is empty).
    active_last: SeqNo,
    /// The active file holds records appended since its last sync.
    unsynced: bool,
    /// Where file numbers come from: a lone `Db` shares its tables'
    /// allocator, so a log file takes the number a table would.
    file_no: Arc<AtomicU64>,
    /// Older files still needed, oldest first: name, last sequence, bytes.
    sealed: VecDeque<(String, SeqNo, u64)>,
}

impl Log {
    /// Append one record of `count` ops at `first..first + count` over
    /// pre-encoded `regions` ([`wal::encode_ops`]), and sync it when asked.
    /// Returns the framed bytes and the sync's wall time in ns.
    pub(crate) fn append(
        &mut self,
        first: SeqNo,
        count: usize,
        regions: &[&[u8]],
        sync: bool,
        stats: &DbStats,
    ) -> Result<(u64, Option<u64>)> {
        let framed = self.active.append_encoded(first, count, regions)?;
        self.active_last = first + count as SeqNo - 1;
        self.unsynced = true;
        stats.wal_appends.fetch_add(1, Ordering::Relaxed);
        stats.wal_bytes.fetch_add(framed, Ordering::Relaxed);
        if !sync {
            return Ok((framed, None));
        }
        let started = Instant::now();
        self.sync(stats)?;
        Ok((framed, Some(started.elapsed().as_nanos() as u64)))
    }

    /// Start a fresh active file. The retiring one is synced first if it
    /// holds records appended since its last sync; the fresh one is created
    /// before the old writer is released, so a failure leaves the log
    /// appending where it was.
    pub(crate) fn rotate(&mut self, stats: &DbStats) -> Result<()> {
        if self.unsynced {
            self.sync(stats)?;
        }
        self.swap()
    }

    /// Retire every file whose records the owner's sealed tables hold: all
    /// of them below `floor`, the oldest write no sealed manifest covers.
    /// With no floor nothing is needed, and the active file is replaced by
    /// an empty one and retired too, unsynced: it is gone in the same step.
    pub(crate) fn retire(&mut self, floor: Option<SeqNo>) -> Result<()> {
        if floor.is_none() && self.active.written() > 0 {
            self.swap()?;
        }
        let unneeded = |(_, last, _): &(String, SeqNo, u64)| floor.is_none_or(|f| *last < f);
        while self.sealed.front().is_some_and(unneeded) {
            let (name, ..) = self.sealed.pop_front().expect("front just checked");
            let _ = self.storage.remove(&name);
        }
        Ok(())
    }

    /// Bytes in the active file.
    pub(crate) fn written(&self) -> u64 {
        self.active.written()
    }

    /// Bytes in every live file.
    pub(crate) fn live_bytes(&self) -> u64 {
        let sealed: u64 = self.sealed.iter().map(|(_, _, bytes)| bytes).sum();
        sealed + self.active.written()
    }

    fn sync(&mut self, stats: &DbStats) -> Result<()> {
        self.active.sync()?;
        self.unsynced = false;
        stats.wal_syncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn swap(&mut self) -> Result<()> {
        let fresh = create(self.storage.as_ref(), &self.file_no)?;
        self.unsynced = false;
        let old = std::mem::replace(&mut self.active, fresh);
        let last = std::mem::take(&mut self.active_last);
        self.sealed
            .push_back((old.name().to_string(), last, old.written()));
        Ok(())
    }

    /// Recover the log: replay every file's records through `apply`, which
    /// applies what the owner's tables lack and says whether it applied
    /// anything; re-log those records, in sequence order, into a fresh file
    /// and sync it; then remove the old files, newest first. File numbers
    /// come from `file_no`, first raised past every file listed. Returns the
    /// log and the highest sequence any record holds.
    ///
    /// A re-logged copy keeps its original's sequence range, and distinct
    /// batches never share one, so a range read once is skipped wherever it
    /// turns up again: a recovery that crashed, or failed, while removing
    /// the old files leaves any subset of them beside the fresh one, and the
    /// next recovery still reads every record exactly once.
    pub(crate) fn recover(
        storage: Arc<dyn Storage>,
        file_no: Arc<AtomicU64>,
        mut apply: impl FnMut(&ReplayedRecord) -> bool,
    ) -> Result<(Log, SeqNo)> {
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
        if let Some((no, _)) = files.last() {
            file_no.fetch_max(no + 1, Ordering::Relaxed);
        }
        let mut active = create(storage.as_ref(), &file_no)?;
        for record in &kept {
            active.append_batch(record.first_seq, &record.ops)?;
        }
        if !kept.is_empty() {
            active.sync()?;
        }
        for (_, name) in files.iter().rev() {
            storage.remove(name)?;
        }
        let log = Log {
            storage,
            active,
            active_last: kept.last().map_or(0, ReplayedRecord::last_seq),
            unsynced: false,
            file_no,
            sealed: VecDeque::new(),
        };
        Ok((log, last))
    }
}

/// A fresh log file, named by the next number `file_no` hands out.
fn create(storage: &dyn Storage, file_no: &AtomicU64) -> Result<WalWriter> {
    let no = file_no.fetch_add(1, Ordering::Relaxed);
    WalWriter::create(storage, &format!("{no:06}.wal"))
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

    /// A file-number allocator of the log's own, as a sharded database has.
    fn numbers() -> Arc<AtomicU64> {
        Arc::new(AtomicU64::new(1))
    }

    /// Recover `storage`, returning the log, the highest sequence and the
    /// `(first_seq, len)` of every record handed to `apply`.
    fn recovered(storage: &Arc<MemStorage>) -> (Log, SeqNo, Vec<(SeqNo, usize)>) {
        let mut seen = Vec::new();
        let (log, last) = Log::recover(Arc::clone(storage) as Arc<dyn Storage>, numbers(), |r| {
            seen.push((r.first_seq, r.ops.len()));
            true
        })
        .unwrap();
        (log, last, seen)
    }

    fn append(log: &mut Log, first: SeqNo, batch: &[BatchOp]) {
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
        assert_eq!(log.live_bytes(), 0);
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
        let (_, last) = Log::recover(dyn_storage, numbers(), |r| r.first_seq > 1).unwrap();
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
        append(&mut log, 10, &ops(0..3));
        log.rotate(&DbStats::new()).unwrap();
        append(&mut log, 20, &ops(3..14));
        drop(log);
        assert_eq!(logs(&storage), ["000001.wal", "000002.wal"]);
        let recover_on = |image: MemStorage, crash_after: Option<u64>| {
            let (crashing, control) = CrashStorage::over(image);
            if let Some(n) = crash_after {
                control.crash_after(n);
            }
            let crashing_dyn = Arc::clone(&crashing) as Arc<dyn Storage>;
            let outcome = Log::recover(crashing_dyn, numbers(), |_| true);
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

    /// Files are retired below the floor, the active one never while the
    /// owner needs anything; with no floor every file goes and the active
    /// one is replaced by an empty file.
    #[test]
    fn retire_removes_files_below_the_floor() {
        let storage = Arc::new(MemStorage::new());
        let (mut log, ..) = recovered(&storage);
        for seq in 1..=5 {
            if seq > 1 {
                log.rotate(&DbStats::new()).unwrap();
            }
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

    /// A rotation syncs the retiring file only when it holds records
    /// appended since its last sync; a file retired in the same step as its
    /// rotation is not synced.
    #[test]
    fn a_rotation_syncs_only_what_is_unsynced() {
        let storage = Arc::new(MemStorage::new());
        let (mut log, ..) = recovered(&storage);
        let stats = DbStats::new();
        let syncs = || stats.wal_syncs.load(Ordering::Relaxed);
        let region = wal::encode_ops(&ops(0..1));
        log.append(1, 1, &[&region], false, &stats).unwrap();
        log.rotate(&stats).unwrap();
        assert_eq!(
            syncs(),
            1,
            "unsynced records are synced before the rotation"
        );
        log.append(2, 1, &[&region], true, &stats).unwrap();
        log.rotate(&stats).unwrap();
        log.rotate(&stats).unwrap();
        assert_eq!(syncs(), 2, "a synced or empty file is not synced again");
        log.append(3, 1, &[&region], false, &stats).unwrap();
        log.retire(None).unwrap();
        assert_eq!(syncs(), 2, "a file retired as it rotates is not synced");
        assert_eq!(logs(&storage), ["000005.wal"]);
    }
}
