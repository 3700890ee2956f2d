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
//! An open replays each file where it lies and keeps those that hold a
//! record the tables lack as sealed files, which the same floor retires;
//! it writes no log byte. A file has one lifecycle: numbered, created,
//! appended, sealed by a rotation, an open or a failure, retired. The
//! active file is created by the first append to it, or at once by a
//! rotation and by an open that adopted no file.
//!
//! A rotation syncs the retiring file first when it holds records appended
//! since its last sync, so a durable write in a newer file never survives
//! a power loss that an earlier acknowledged write in an older file does
//! not. A failed append or sync seals the file as it lies: no acknowledged
//! record follows bytes the failure may have torn or dropped. A failed
//! append first syncs what the file holds unsynced, as a rotation would;
//! after a failed sync nothing is retried, so the unsynced records before
//! it may not outlive a power loss that a later durable write does.

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
    /// The active file's name, and its writer once it is created.
    name: String,
    active: Option<WalWriter>,
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
        let last = first + count as SeqNo - 1;
        if self.active.is_none() {
            let created = WalWriter::create(self.storage.as_ref(), &self.name);
            self.active = Some(self.or_seal(created, last)?);
        }
        let file = self.active.as_mut().expect("created above");
        let framed = file.append_encoded(first, count, regions);
        if framed.is_err() && self.unsynced {
            // Sealed, the file takes no later sync: make the records it
            // holds unsynced as durable as a rotation would, before a
            // fresh file takes durable writes. Best effort: the append
            // failed, not a sync, so its pages are still there to sync.
            let _ = self.sync(stats);
        }
        let framed = self.or_seal(framed, last)?;
        self.active_last = last;
        self.unsynced = true;
        stats.wal_appends.fetch_add(1, Ordering::Relaxed);
        stats.wal_bytes.fetch_add(framed, Ordering::Relaxed);
        if !sync {
            return Ok((framed, None));
        }
        let started = Instant::now();
        let synced = self.sync(stats);
        self.or_seal(synced, last)?;
        Ok((framed, Some(started.elapsed().as_nanos() as u64)))
    }

    /// Start a fresh active file. The retiring one is synced first if it
    /// holds records appended since its last sync; the fresh one is created
    /// before the old writer is released, so a failed create leaves the log
    /// appending where it was.
    pub(crate) fn rotate(&mut self, stats: &DbStats) -> Result<()> {
        if self.unsynced {
            let synced = self.sync(stats);
            self.or_seal(synced, self.active_last)?;
        }
        self.swap()
    }

    /// Retire every file whose records the owner's sealed tables hold: all
    /// of them below `floor`, the oldest write no sealed manifest covers.
    /// With no floor nothing is needed, and the active file is replaced by
    /// an empty one and retired too, unsynced: it is gone in the same step.
    pub(crate) fn retire(&mut self, floor: Option<SeqNo>) -> Result<()> {
        if floor.is_none() && self.written() > 0 {
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
        self.active.as_ref().map_or(0, WalWriter::written)
    }

    /// Bytes in every live file.
    pub(crate) fn live_bytes(&self) -> u64 {
        let sealed: u64 = self.sealed.iter().map(|(_, _, bytes)| bytes).sum();
        sealed + self.written()
    }

    fn sync(&mut self, stats: &DbStats) -> Result<()> {
        self.active.as_mut().expect("a file with records").sync()?;
        self.unsynced = false;
        stats.wal_syncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// `result`; a failure seals the active file as it lies, holding up to
    /// `last` — no record may follow bytes it may have torn or dropped —
    /// and numbers the next one, which the next append creates.
    fn or_seal<T>(&mut self, result: Result<T>, last: SeqNo) -> Result<T> {
        if result.is_err() {
            self.active_last = self.active_last.max(last);
            self.seal(next_name(&self.file_no), None);
        }
        result
    }

    /// Seal a created active file under a fresh one; one not yet created
    /// stays as it is, for the next append.
    fn swap(&mut self) -> Result<()> {
        if self.active.is_some() {
            let name = next_name(&self.file_no);
            let fresh = WalWriter::create(self.storage.as_ref(), &name)?;
            self.seal(name, Some(fresh));
        }
        Ok(())
    }

    /// Queue the active file, if created, as sealed, holding up to
    /// `active_last`, and make `name` — `file` once created — the active one.
    fn seal(&mut self, name: String, file: Option<WalWriter>) {
        let name = std::mem::replace(&mut self.name, name);
        if let Some(old) = std::mem::replace(&mut self.active, file) {
            self.sealed
                .push_back((name, self.active_last, old.written()));
        }
        self.active_last = 0;
        self.unsynced = false;
    }

    /// Recover the log: replay every file's records, oldest file first,
    /// through `apply`, which applies what the owner's tables lack and says
    /// whether it applied anything. A file that held such a record is
    /// adopted as it lies, torn tail and all, as a sealed file with its last
    /// sequence and its bytes, and synced once: no durable write made after
    /// the open may outlive a record the open applied. Any other file is
    /// removed. The active file takes a number from `file_no`, first raised
    /// past every file listed; it is created by the first append, or at once
    /// when no file was adopted, as in a new database. Returns the log and
    /// the highest sequence any record holds.
    ///
    /// A record whose exact sequence range was read already is skipped:
    /// distinct batches never share a range, so it is a copy. An earlier
    /// build's recovery copied the records into a fresh file and then
    /// removed the originals, and a crash between the two left both. The
    /// skip may go once no directory that build wrote is opened any more:
    /// its copies live until a flush seals past them.
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
        let (mut last, mut read, mut sealed) = (0, HashSet::new(), VecDeque::new());
        for (_, name) in &files {
            let (mut needed, mut file_last) = (false, 0);
            for record in wal::replay_records(storage.as_ref(), name)? {
                file_last = file_last.max(record.last_seq());
                if read.insert((record.first_seq, record.last_seq())) {
                    needed |= apply(&record);
                }
            }
            last = last.max(file_last);
            if needed {
                storage.sync_file(name)?;
                sealed.push_back((name.clone(), file_last, storage.size_of(name)?));
            } else {
                storage.remove(name)?;
            }
        }
        if let Some((no, _)) = files.last() {
            file_no.fetch_max(no + 1, Ordering::Relaxed);
        }
        let name = next_name(&file_no);
        let fresh = sealed
            .is_empty()
            .then(|| WalWriter::create(storage.as_ref(), &name));
        let active = fresh.transpose()?;
        let log = Log {
            storage,
            name,
            active,
            active_last: 0,
            unsynced: false,
            file_no,
            sealed,
        };
        Ok((log, last))
    }
}

/// The name of a log file numbered by the next number `file_no` hands out.
fn next_name(file_no: &AtomicU64) -> String {
    format!("{:06}.wal", file_no.fetch_add(1, Ordering::Relaxed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchOp;
    use crate::types::EntryKind;
    use lsm_io::MemStorage;

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

    /// A recovery adopts the file it read as it lies and numbers the next
    /// file, which the first append creates; the next recovery reads the
    /// same records from the same bytes, and neither creates nor removes a
    /// file. The adopted file is retired as any sealed file is, below the
    /// floor.
    #[test]
    fn append_and_recover_roundtrip() {
        let storage = Arc::new(MemStorage::new());
        let (mut log, ..) = recovered(&storage);
        append(&mut log, 1, &ops(0..10));
        append(&mut log, 11, &ops(20..21));
        drop(log);
        let bytes = lsm_io::read_all(storage.as_ref(), "000001.wal").unwrap();
        let (log, last, seen) = recovered(&storage);
        assert_eq!(last, 11);
        assert_eq!(seen, [(1, 10), (11, 1)]);
        assert_eq!(logs(&storage), ["000001.wal"]);
        assert_eq!(log.live_bytes(), bytes.len() as u64);
        drop(log);
        let (mut log, _, again) = recovered(&storage);
        assert_eq!(again, seen);
        assert_eq!(logs(&storage), ["000001.wal"]);
        let adopted = lsm_io::read_all(storage.as_ref(), "000001.wal").unwrap();
        assert_eq!(adopted, bytes, "recovery writes no log byte");
        log.retire(Some(11)).unwrap();
        assert_eq!(logs(&storage), ["000001.wal"], "11 is needed");
        log.retire(Some(12)).unwrap();
        assert_eq!(logs(&storage), [""; 0]);
        append(&mut log, 12, &ops(30..31));
        assert_eq!(
            logs(&storage),
            ["000002.wal"],
            "created by its first append"
        );
    }

    /// A file whose every record `apply` found nothing to apply in is
    /// removed at once; a file with one such record among needed ones is
    /// kept whole.
    #[test]
    fn a_file_the_tables_hold_is_removed_at_open() {
        let storage = Arc::new(MemStorage::new());
        let (mut log, ..) = recovered(&storage);
        append(&mut log, 1, &ops(0..3));
        log.rotate(&DbStats::new()).unwrap();
        append(&mut log, 4, &ops(3..5));
        append(&mut log, 6, &ops(5..6));
        drop(log);
        let dyn_storage = Arc::clone(&storage) as Arc<dyn Storage>;
        let (_, last) = Log::recover(dyn_storage, numbers(), |r| r.first_seq > 4).unwrap();
        assert_eq!(last, 6);
        assert_eq!(logs(&storage), ["000002.wal"]);
        assert_eq!(recovered(&storage).2, [(4, 2), (6, 1)]);
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
        let first_len = log.written() as usize;
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

    /// Recovery once copied the records it applied into a fresh file and
    /// then removed the old files, newest first, so a crash could leave a
    /// copy beside its original in either order. Each record is read once
    /// from such a directory, whichever file holds it first; planted here.
    #[test]
    fn a_recovery_crash_leaves_copies_read_once() {
        type Records<'a> = &'a [(SeqNo, std::ops::Range<u64>)];
        let plant = |files: &[(&str, Records)]| {
            let storage = Arc::new(MemStorage::new());
            for (name, records) in files {
                let mut file = WalWriter::create(storage.as_ref(), name).unwrap();
                for (first, keys) in records.iter().cloned() {
                    file.append_batch(first, &ops(keys)).unwrap();
                }
            }
            storage
        };
        // The original, and the copy with the records written after it.
        let (original, copy) = ([(1, 0..2), (3, 2..3)], [(1, 0..2), (3, 2..3), (4, 3..4)]);
        let storage = plant(&[("000001.wal", &original), ("000002.wal", &copy)]);
        let (_, last, seen) = recovered(&storage);
        assert_eq!((last, seen), (4, vec![(1, 2), (3, 1), (4, 1)]));
        // The newer original beside the copy, its older original gone:
        // reading it first must not hide 10..=12.
        let copy = [(10, 0..3), (20, 3..14)];
        let storage = plant(&[("000002.wal", &[(20, 3..14)]), ("000003.wal", &copy)]);
        let (_, last, seen) = recovered(&storage);
        assert_eq!((last, seen), (30, vec![(20, 11), (10, 3)]));
        assert_eq!(logs(&storage), ["000002.wal", "000003.wal"]);
        assert_eq!(recovered(&storage).2, [(20, 11), (10, 3)]);
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
        assert_eq!(log.written(), 0);
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
