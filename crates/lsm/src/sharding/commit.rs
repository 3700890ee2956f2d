//! The per-database commit-marker log — the "commit" half of the
//! cross-shard prepare/commit protocol.
//!
//! A cross-shard [`crate::WriteBatch`] is made crash-atomic in two steps:
//! every touched shard first logs its fragment as a **prepare** record
//! (WAL format 2, tagged with the batch's global sequence range and
//! participant set of *stable shard ids*), and only when every prepare has
//! been appended does the committer **seal** the batch by appending one
//! marker record here — a single CRC-framed append at the database root,
//! shared by all shards. The marker is the batch's commit point: present →
//! the batch committed everywhere and every fragment replays; absent
//! (including a torn or CRC-corrupt tail, i.e. a crash mid-seal) → the
//! commit never finished and every fragment is suppressed on recovery.
//! Either way, recovery is all-or-nothing.
//!
//! ## Log lifetime: reopen truncation + runtime checkpoints
//!
//! The log lives in epoch-numbered files (`COMMIT-<n>`; a pre-epoch
//! `COMMIT` file with no generation beside it is refused with a typed
//! error). Recovery reads the **union** of every
//! intact frame across all of them — a superfluous marker is harmless
//! (its fragments were already re-logged as plain records), a missing one
//! would abort a committed batch, so every rewrite keeps the old file
//! until the new one is durable:
//!
//! * On [`crate::sharding::ShardedDb::open`], after all shards have
//!   recovered, a fresh empty `COMMIT-<n+1>` is created and the older
//!   files are removed — by then every committed fragment has been
//!   re-logged as a plain (unconditional) WAL record, so no marker is
//!   load-bearing any more.
//! * At runtime, once every prepare at or below a flush **watermark** has
//!   reached SSTables (its WAL retired), `CommitLog::checkpoint`
//!   rewrites the survivors (markers above the watermark) into a fresh
//!   `COMMIT-<n+1>`, syncs it, and only then removes the predecessor —
//!   bounding the log under long-lived cross-shard traffic without a
//!   reopen. A crash mid-checkpoint leaves both files; the union is a
//!   superset of what is needed.
//!
//! Within a process lifetime the fence never re-allocates a sequence
//! range, so markers never collide.
//!
//! ## The states, compactly
//!
//! What recovery does with a cross-shard batch's fragments is a pure
//! function of what survived the crash:
//!
//! | prepares on shards | marker here | outcome |
//! |--------------------|-------------|---------|
//! | none / some / all  | absent or torn | **abort**: every replayed prepare is suppressed |
//! | all                | intact      | **commit**: every replayed prepare is applied |
//! | fragment already flushed to SSTables (WAL retired) | either | already durable as plain data; its marker is no longer load-bearing and may be checkpointed away |
//!
//! There is no in-between: the marker append is a single CRC-framed
//! write, so it is either intact or not a marker.
//!
//! Record layout (little-endian), one per sealed batch:
//!
//! ```text
//! frame   = [crc32 u32][payload_len u32][payload]
//! payload = [version u8 = 2][global_first u64][global_last u64]
//!           [topology_epoch u64]
//! ```
//!
//! The topology epoch is the one the batch was routed at; recovery
//! validates it against the last sealed topology (a marker from a *future*
//! epoch means the store was tampered with or mixed up). Any other version
//! or length inside an intact frame is corruption.

use std::collections::HashSet;

use crate::types::SeqNo;
use crate::wal::{frame, intact_frames};
use crate::{sealed, Error, Result};
use lsm_io::{Storage, WritableFile};

/// Epoch-numbered marker log prefix.
pub(crate) const COMMIT_PREFIX: &str = "COMMIT-";

fn commit_name(n: u64) -> String {
    format!("{COMMIT_PREFIX}{n:06}")
}

/// The marker payload version this build writes and reads.
const MARKER_V2: u8 = 2;

/// Payload bytes of a marker.
const MARKER_V2_LEN: usize = 1 + 8 + 8 + 8;

/// One sealed marker held in memory: the batch's global sequence range
/// plus the topology epoch it committed under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Marker {
    pub first: SeqNo,
    pub last: SeqNo,
    pub epoch: u64,
}

/// Append side of the marker log. One per [`crate::sharding::ShardedDb`],
/// serialized by the commit lock.
pub(crate) struct CommitLog {
    file: Box<dyn WritableFile>,
    /// Generation number of the active `COMMIT-<n>` file.
    generation: u64,
    /// Every marker sealed into the active file, oldest first — what a
    /// checkpoint carries over.
    markers: Vec<Marker>,
}

impl CommitLog {
    /// Create a fresh generation `n` (the caller has already resolved and
    /// re-logged everything older generations covered, or is carrying
    /// survivors over via [`CommitLog::checkpoint`]).
    pub(crate) fn create(storage: &dyn Storage, generation: u64) -> Result<CommitLog> {
        Ok(CommitLog {
            file: storage.create(&commit_name(generation))?,
            generation,
            markers: Vec::new(),
        })
    }

    /// Seal the batch `global_first..=global_last` committed under
    /// `topology_epoch`: its commit point.
    pub(crate) fn seal(
        &mut self,
        global_first: SeqNo,
        global_last: SeqNo,
        topology_epoch: u64,
    ) -> Result<()> {
        let marker = Marker {
            first: global_first,
            last: global_last,
            epoch: topology_epoch,
        };
        self.file.append(&frame(&encode_marker(&marker)))?;
        self.markers.push(marker);
        Ok(())
    }

    /// Flush sealed markers to the storage medium (`WriteOptions::sync`).
    pub(crate) fn sync(&mut self) -> Result<()> {
        self.file.sync()?;
        Ok(())
    }

    /// Bytes appended to the active generation so far — the runtime
    /// checkpoint trigger reads this.
    pub(crate) fn bytes(&self) -> u64 {
        self.file.written()
    }

    /// Markers live in the active generation.
    pub(crate) fn live_markers(&self) -> usize {
        self.markers.len()
    }

    /// Runtime checkpoint: every prepare with `global_last <= watermark`
    /// has been flushed out of the shard WALs, so its marker is no longer
    /// load-bearing. Rewrite the survivors into a fresh generation
    /// (written and synced **before** the predecessor is removed — a
    /// crash mid-way leaves a superset on disk, never a subset) and
    /// retire the old file. Returns the number of markers dropped.
    pub(crate) fn checkpoint(&mut self, storage: &dyn Storage, watermark: SeqNo) -> Result<usize> {
        let survivors: Vec<Marker> = self
            .markers
            .iter()
            .copied()
            .filter(|m| m.last > watermark)
            .collect();
        let dropped = self.markers.len() - survivors.len();
        let generation = self.generation + 1;
        let mut file = storage.create(&commit_name(generation))?;
        for m in &survivors {
            file.append(&frame(&encode_marker(m)))?;
        }
        file.sync()?;
        // The fresh generation is durable: swap it in, then retire the
        // predecessor (best-effort — recovery unions all generations).
        let old = commit_name(self.generation);
        self.file = file;
        self.generation = generation;
        self.markers = survivors;
        let _ = storage.remove(&old);
        Ok(dropped)
    }
}

fn encode_marker(m: &Marker) -> [u8; MARKER_V2_LEN] {
    let mut payload = [0u8; MARKER_V2_LEN];
    payload[0] = MARKER_V2;
    payload[1..9].copy_from_slice(&m.first.to_le_bytes());
    payload[9..17].copy_from_slice(&m.last.to_le_bytes());
    payload[17..25].copy_from_slice(&m.epoch.to_le_bytes());
    payload
}

fn decode_marker(body: &[u8]) -> Result<Marker> {
    if body.len() != MARKER_V2_LEN || body[0] != MARKER_V2 {
        return Err(Error::Corruption(format!(
            "commit marker of {} bytes, version {}",
            body.len(),
            body.first().copied().unwrap_or(0)
        )));
    }
    Ok(Marker {
        first: SeqNo::from_le_bytes(body[1..9].try_into().unwrap()),
        last: SeqNo::from_le_bytes(body[9..17].try_into().unwrap()),
        epoch: u64::from_le_bytes(body[17..25].try_into().unwrap()),
    })
}

/// What recovery reads from disk: the union of sealed markers across all
/// marker-log generations, plus the next free generation number.
pub(crate) struct RecoveredMarkers {
    pub ranges: HashSet<(SeqNo, SeqNo)>,
    /// Highest topology epoch any marker names (0 when none do) — the
    /// open validates it against the last sealed topology.
    pub max_epoch: u64,
    pub next_generation: u64,
    /// Every marker-log file found (to retire after recovery completes).
    pub files: Vec<String>,
}

/// Read every sealed marker as the union over all `COMMIT-<n>` generations.
/// A torn or CRC-corrupt tail ends a file's scan without error — an
/// unsealed marker *is* an aborted batch. A malformed payload inside an
/// intact frame is corruption.
pub(crate) fn read_markers(storage: &dyn Storage) -> Result<RecoveredMarkers> {
    let mut out = RecoveredMarkers {
        ranges: HashSet::new(),
        max_epoch: 0,
        next_generation: 1,
        files: Vec::new(),
    };
    for name in storage.list()? {
        let Some(generation) = name
            .strip_prefix(COMMIT_PREFIX)
            .and_then(|n| n.parse::<u64>().ok())
        else {
            continue;
        };
        out.next_generation = out.next_generation.max(generation + 1);
        let data = lsm_io::read_all(storage, &name)?;
        // A torn or CRC-corrupt tail ends the frame scan cleanly: a
        // marker that did not finish sealing *is* an aborted batch.
        for body in intact_frames(&data) {
            let m = decode_marker(body)?;
            out.ranges.insert((m.first, m.last));
            out.max_epoch = out.max_epoch.max(m.epoch);
        }
        out.files.push(name);
    }
    if out.files.is_empty() {
        sealed::refuse_unsealed(storage, COMMIT_PREFIX)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsm_io::MemStorage;

    #[test]
    fn seal_and_read_roundtrip() {
        let storage = MemStorage::new();
        let mut log = CommitLog::create(&storage, 1).unwrap();
        log.seal(1, 10, 3).unwrap();
        log.seal(11, 11, 3).unwrap();
        log.sync().unwrap();
        drop(log);
        let markers = read_markers(&storage).unwrap();
        assert_eq!(markers.ranges.len(), 2);
        assert!(markers.ranges.contains(&(1, 10)));
        assert!(markers.ranges.contains(&(11, 11)));
        assert!(!markers.ranges.contains(&(1, 11)));
        assert_eq!(markers.max_epoch, 3);
        assert_eq!(markers.next_generation, 2);
    }

    #[test]
    fn missing_log_is_empty() {
        let m = read_markers(&MemStorage::new()).unwrap();
        assert!(m.ranges.is_empty());
        assert_eq!(m.next_generation, 1);
    }

    #[test]
    fn pre_epoch_commit_file_and_v1_frames_are_refused() {
        // A 17-byte version-1 payload: the pre-epoch marker format.
        let mut payload = [0u8; 17];
        payload[0] = 1;
        payload[1..9].copy_from_slice(&7u64.to_le_bytes());
        payload[9..17].copy_from_slice(&9u64.to_le_bytes());
        let cases = [
            ("COMMIT", "COMMIT is an unsealed"),
            ("COMMIT-000001", "version 1"),
        ];
        for (name, why) in cases {
            let storage = MemStorage::new();
            let mut f = storage.create(name).unwrap();
            f.append(&frame(&payload)).unwrap();
            drop(f);
            let refused = read_markers(&storage).map(|m| m.ranges);
            assert!(
                matches!(&refused, Err(Error::Corruption(msg)) if msg.contains(why)),
                "{name}: {refused:?}"
            );
        }
    }

    #[test]
    fn torn_tail_marker_is_aborted_not_error() {
        let storage = MemStorage::new();
        let mut log = CommitLog::create(&storage, 1).unwrap();
        log.seal(1, 5, 1).unwrap();
        log.seal(6, 9, 1).unwrap();
        drop(log);
        let name = commit_name(1);
        let full = lsm_io::read_all(&storage, &name).unwrap();
        // Tear one byte off the second marker: it must vanish cleanly.
        let mut f = storage.create(&name).unwrap();
        f.append(&full[..full.len() - 1]).unwrap();
        drop(f);
        let markers = read_markers(&storage).unwrap();
        assert_eq!(markers.ranges.len(), 1);
        assert!(markers.ranges.contains(&(1, 5)));
    }

    #[test]
    fn checkpoint_drops_below_watermark_and_survives_union() {
        let storage = MemStorage::new();
        let mut log = CommitLog::create(&storage, 1).unwrap();
        log.seal(1, 10, 1).unwrap();
        log.seal(11, 20, 1).unwrap();
        log.seal(21, 30, 2).unwrap();
        log.sync().unwrap();
        let dropped = log.checkpoint(&storage, 20).unwrap();
        assert_eq!(dropped, 2);
        assert_eq!(log.live_markers(), 1);
        // Survivors (and later seals) live in the new generation.
        log.seal(31, 40, 2).unwrap();
        log.sync().unwrap();
        drop(log);
        let markers = read_markers(&storage).unwrap();
        assert_eq!(markers.ranges.len(), 2);
        assert!(markers.ranges.contains(&(21, 30)));
        assert!(markers.ranges.contains(&(31, 40)));
        assert!(!markers.ranges.contains(&(1, 10)), "checkpointed away");
        assert_eq!(markers.next_generation, 3);
        assert!(!storage.exists(&commit_name(1)), "predecessor retired");
    }

    #[test]
    fn union_reads_both_generations_mid_checkpoint() {
        // Simulate a crash between "new generation durable" and "old
        // generation removed": both files exist, recovery must read the
        // union (a superset is safe; a subset would abort a committed
        // batch).
        let storage = MemStorage::new();
        let mut g1 = CommitLog::create(&storage, 1).unwrap();
        g1.seal(1, 4, 1).unwrap();
        drop(g1);
        let mut g2 = CommitLog::create(&storage, 2).unwrap();
        g2.seal(5, 8, 1).unwrap();
        drop(g2);
        let markers = read_markers(&storage).unwrap();
        assert!(markers.ranges.contains(&(1, 4)));
        assert!(markers.ranges.contains(&(5, 8)));
        assert_eq!(markers.next_generation, 3);
        assert_eq!(markers.files.len(), 2);
    }
}
