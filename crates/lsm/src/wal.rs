//! Write-ahead log: durability for the memtable, with group commit.
//!
//! LevelDB logs every write before applying it to the memtable so that a
//! crash loses nothing. Since the `WriteBatch` redesign the unit of logging
//! is the **batch**: one CRC-framed record per [`crate::WriteBatch`], no
//! matter how many operations it carries, which is what makes batched
//! writes cheap (one frame, one CRC pass, one storage append) and atomic
//! (a torn or corrupt tail drops the *whole* batch on replay — never a
//! prefix of it). One log file exists per memtable generation — a flush
//! seals the table and retires the log.
//!
//! Record layout (little-endian):
//!
//! ```text
//! frame   = [crc32 u32][payload_len u32][payload]
//! payload = [format u8 = 1][first_seq u64][count u32] count × op
//!         | [format u8 = 2][first_seq u64][count u32]
//!           [global_first u64][global_last u64]
//!           [participant_count u16] participant_count × [shard u16]
//!           count × op                                   (cross-shard)
//! op      = [kind u8][user_key u64][value_len u32][value bytes]
//! ```
//!
//! Operation `i` of a record receives sequence number `first_seq + i`, so a
//! batch occupies one contiguous sequence range. The `format` byte versions
//! the payload encoding; replay rejects formats it does not understand.
//!
//! Format 2 is the **cross-shard prepare record**: the fragment of a
//! multi-shard batch that landed on this shard, tagged with the batch's
//! *global* sequence range and the set of participant shards. A prepare
//! record is not self-certifying — whether it replays is decided by the
//! recovery coordinator against the per-database `COMMIT` marker log (see
//! [`crate::sharding`]): marker present → the batch committed everywhere,
//! apply; marker absent → the commit never sealed, suppress the fragment.
//! Format-1 records always apply (single-shard commits are sealed by their
//! own frame CRC).

use crate::batch::BatchOp;
use crate::types::{EntryKind, SeqNo};
use crate::{Error, Result};
use lsm_io::{Storage, WritableFile};

/// WAL payload format for plain (single-shard) batches.
pub const BATCH_FORMAT: u8 = 1;

/// WAL payload format for cross-shard prepare records.
pub const CROSS_BATCH_FORMAT: u8 = 2;

/// Fixed bytes of a batch payload before its operations.
const BATCH_HEADER: usize = 1 + 8 + 4;

/// Extra fixed bytes of a cross-shard payload before its participant list.
const CROSS_HEADER: usize = 8 + 8 + 2;

/// The cross-shard identity of a prepare record: which global batch this
/// fragment belongs to and which shards participate in it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrossBatchTag {
    /// First sequence number of the *whole* batch (across all shards).
    pub global_first: SeqNo,
    /// Last sequence number of the whole batch.
    pub global_last: SeqNo,
    /// **Stable shard ids** (the numbers in `shard-<id>/` directory
    /// names) the batch touches, sorted and unique. Stable ids — not
    /// routing positions — because the routing topology can change
    /// between the prepare and its recovery (a live split shifts
    /// positions around), while a shard's id and directory never move.
    pub participants: Vec<u16>,
}

/// One decoded WAL record: its operations — operation `i` committed at
/// `first_seq + i` — plus, for cross-shard prepare records, the tag the
/// recovery coordinator resolves against the commit-marker log.
#[derive(Debug, Clone)]
pub struct ReplayedRecord {
    pub first_seq: SeqNo,
    pub ops: Vec<BatchOp>,
    pub cross: Option<CrossBatchTag>,
}

/// Fixed bytes of one operation before its value payload.
const OP_HEADER: usize = 1 + 8 + 4;

/// CRC-32 (IEEE) lookup table, built at compile time.
static CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// Slicing-by-8 tables: `CRC32_TABLES[k][b]` is the CRC contribution of
/// byte `b` seen `k` positions before the end of an 8-byte window, so one
/// loop iteration digests 8 bytes with 8 independent table loads.
/// `CRC32_TABLES[0]` is the classic per-byte table above.
static CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    tables[0] = CRC32_TABLE;
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ CRC32_TABLE[(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE) over `data`, slicing-by-8 — this frames every record in
/// the commit leader's serial section (and re-checks them on replay), so
/// it digests 8 bytes per step instead of paying a per-byte dependency
/// chain. The tail shorter than 8 bytes falls back to the per-byte table.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes(chunk[0..4].try_into().unwrap()) ^ crc;
        let hi = u32::from_le_bytes(chunk[4..8].try_into().unwrap());
        crc = CRC32_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC32_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC32_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC32_TABLES[4][(lo >> 24) as usize]
            ^ CRC32_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC32_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC32_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC32_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Frame one record payload for a CRC-framed log:
/// `[crc32 u32][payload_len u32][payload]`. Shared by the WAL and the
/// sharding layer's commit-marker log so both encode (and therefore
/// crash-tear) identically.
pub(crate) fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Encode a batch's per-op region — `[kind u8][key u64][value_len u32]
/// [value]` per op: what follows the header of a record (ops carry no
/// sequence numbers; replay derives them from the header's `first_seq`).
/// The one op encoder. Writers encode their own batches with it *before*
/// queueing, so the commit leader's serial section only concatenates
/// regions and CRC-frames ([`WalWriter::append_encoded`]). An op whose
/// value overflows the u32 length prefix yields an oversized region the
/// append's payload check rejects before anything reaches the log.
pub fn encode_ops(ops: &[BatchOp]) -> Vec<u8> {
    let cap = ops
        .iter()
        .map(|op| OP_HEADER + op.value.len())
        .fold(0usize, usize::saturating_add);
    let mut out = Vec::with_capacity(cap.min(u32::MAX as usize));
    for op in ops {
        out.push(op.kind.tag());
        out.extend_from_slice(&op.key.to_le_bytes());
        out.extend_from_slice(&(op.value.len() as u32).to_le_bytes());
        out.extend_from_slice(&op.value);
    }
    out
}

/// Iterator over the **intact** frame payloads of a log byte stream. The
/// scan ends cleanly (no error, no item) at the first torn or CRC-corrupt
/// frame — a crash mid-append is expected, and everything behind the tear
/// is by definition unsealed. What an intact payload *means* is the
/// caller's business.
pub(crate) struct FrameIter<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Iterator for FrameIter<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        if self.pos + 8 > self.data.len() {
            return None;
        }
        let crc = u32::from_le_bytes(self.data[self.pos..self.pos + 4].try_into().unwrap());
        let len =
            u32::from_le_bytes(self.data[self.pos + 4..self.pos + 8].try_into().unwrap()) as usize;
        let body_start = self.pos + 8;
        let body = self.data.get(body_start..body_start + len)?; // torn tail
        if crc32(body) != crc {
            return None; // corrupt tail
        }
        self.pos = body_start + len;
        Some(body)
    }
}

/// The intact frames of `data`, in append order.
pub(crate) fn intact_frames(data: &[u8]) -> FrameIter<'_> {
    FrameIter { data, pos: 0 }
}

/// Append side of the write-ahead log.
pub struct WalWriter {
    file: Box<dyn WritableFile>,
    name: String,
    buf: Vec<u8>,
}

impl WalWriter {
    /// Create a fresh log file named `name`.
    pub fn create(storage: &dyn Storage, name: &str) -> Result<WalWriter> {
        Ok(WalWriter {
            file: storage.create(name)?,
            name: name.to_string(),
            buf: Vec::with_capacity(512),
        })
    }

    /// Log file name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Append one batch as a single framed record. Operation `i` is logged
    /// with sequence `first_seq + i`. Returns the framed bytes written.
    ///
    /// Fails with `Corruption` (before touching the log) when the batch
    /// exceeds the record format's u32 fields — silently wrapping the
    /// length prefixes would write an undecodable frame and lose every
    /// batch behind it on replay.
    pub fn append_batch(&mut self, first_seq: SeqNo, ops: &[BatchOp]) -> Result<u64> {
        self.append_encoded(first_seq, ops.len(), &[&encode_ops(ops)], None)
    }

    /// Append one record over **pre-encoded** op regions ([`encode_ops`]),
    /// `count` ops in all (the caller tracks it; encoded bytes don't carry
    /// it), concatenated in order: the one header writer and the one
    /// frame-and-append. Several regions are a whole **commit group** fused
    /// into one record — the pipelined group commit ([`crate::db`]) claims
    /// one contiguous sequence range for the queue and logs it with one
    /// frame, one CRC pass, one storage append, the leader only
    /// concatenating what each writer encoded outside the lock. Replay
    /// cannot tell a fused record from a single large batch, so recovery
    /// stays all-or-nothing per *group* — which is safe precisely because
    /// the visible ceiling is only published once the whole group applied.
    ///
    /// `cross` tags the record as a cross-shard **prepare** (format 2,
    /// which differs from format 1 only in its header): replay hands the
    /// tag to the recovery coordinator instead of applying the fragment
    /// unconditionally.
    pub fn append_encoded(
        &mut self,
        first_seq: SeqNo,
        count: usize,
        parts: &[&[u8]],
        cross: Option<&CrossBatchTag>,
    ) -> Result<u64> {
        debug_assert!(count > 0, "empty batches are not logged");
        if count > u32::MAX as usize {
            return Err(Error::Corruption(format!(
                "wal batch of {count} ops exceeds the record format"
            )));
        }
        if cross.is_some_and(|t| t.participants.len() > u16::MAX as usize) {
            return Err(Error::Corruption(
                "wal cross-shard tag exceeds the record format".into(),
            ));
        }
        let header = BATCH_HEADER + cross.map_or(0, |t| CROSS_HEADER + 2 * t.participants.len());
        let payload = parts
            .iter()
            .map(|p| p.len())
            .fold(header, usize::saturating_add);
        if payload > u32::MAX as usize {
            return Err(Error::Corruption(format!(
                "wal batch payload of {payload} bytes exceeds the record format"
            )));
        }
        self.buf.clear();
        self.buf.push(if cross.is_some() {
            CROSS_BATCH_FORMAT
        } else {
            BATCH_FORMAT
        });
        self.buf.extend_from_slice(&first_seq.to_le_bytes());
        self.buf.extend_from_slice(&(count as u32).to_le_bytes());
        if let Some(tag) = cross {
            self.buf.extend_from_slice(&tag.global_first.to_le_bytes());
            self.buf.extend_from_slice(&tag.global_last.to_le_bytes());
            self.buf
                .extend_from_slice(&(tag.participants.len() as u16).to_le_bytes());
            for &shard in &tag.participants {
                self.buf.extend_from_slice(&shard.to_le_bytes());
            }
        }
        for p in parts {
            self.buf.extend_from_slice(p);
        }
        let framed = frame(&self.buf);
        self.file.append(&framed)?;
        Ok(framed.len() as u64)
    }

    /// Flush the log to the storage medium.
    pub fn sync(&mut self) -> Result<()> {
        self.file.sync()?;
        Ok(())
    }

    /// Bytes appended so far.
    pub fn written(&self) -> u64 {
        self.file.written()
    }
}

/// Decode one intact batch payload into its operations and, for cross-shard
/// prepare records, its resolution tag.
fn decode_batch(body: &[u8]) -> Result<ReplayedRecord> {
    if body.len() < BATCH_HEADER {
        return Err(Error::Corruption(format!(
            "wal batch header too short: {}",
            body.len()
        )));
    }
    if body[0] != BATCH_FORMAT && body[0] != CROSS_BATCH_FORMAT {
        return Err(Error::Corruption(format!(
            "wal batch format {} unsupported (expected {BATCH_FORMAT} or {CROSS_BATCH_FORMAT})",
            body[0]
        )));
    }
    let first_seq = SeqNo::from_le_bytes(body[1..9].try_into().unwrap());
    let count = u32::from_le_bytes(body[9..13].try_into().unwrap()) as usize;
    if count == 0 {
        return Err(Error::Corruption("wal batch with zero operations".into()));
    }
    let mut pos = BATCH_HEADER;
    let cross = if body[0] == CROSS_BATCH_FORMAT {
        if body.len() < pos + CROSS_HEADER {
            return Err(Error::Corruption(format!(
                "wal cross-shard header too short: {}",
                body.len()
            )));
        }
        let global_first = SeqNo::from_le_bytes(body[pos..pos + 8].try_into().unwrap());
        let global_last = SeqNo::from_le_bytes(body[pos + 8..pos + 16].try_into().unwrap());
        let nparts = u16::from_le_bytes(body[pos + 16..pos + 18].try_into().unwrap()) as usize;
        pos += CROSS_HEADER;
        if body.len() < pos + 2 * nparts {
            return Err(Error::Corruption(format!(
                "wal cross-shard record claims {nparts} participants in a {}-byte record",
                body.len()
            )));
        }
        if global_last < global_first {
            return Err(Error::Corruption(format!(
                "wal cross-shard record with inverted range {global_first}..{global_last}"
            )));
        }
        let participants = (0..nparts)
            .map(|i| u16::from_le_bytes(body[pos + 2 * i..pos + 2 * i + 2].try_into().unwrap()))
            .collect();
        pos += 2 * nparts;
        Some(CrossBatchTag {
            global_first,
            global_last,
            participants,
        })
    } else {
        None
    };
    // Bound the claimed count by what the body could possibly hold before
    // allocating — a CRC-valid but malformed record must produce a clean
    // corruption error, not a giant allocation.
    if count > (body.len() - pos) / OP_HEADER {
        return Err(Error::Corruption(format!(
            "wal batch claims {count} ops in a {}-byte record",
            body.len()
        )));
    }
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        if pos + OP_HEADER > body.len() {
            return Err(Error::Corruption(format!(
                "wal batch truncated at op {i}/{count}"
            )));
        }
        let kind = EntryKind::from_tag(body[pos])
            .ok_or_else(|| Error::Corruption(format!("wal bad kind {}", body[pos])))?;
        let key = u64::from_le_bytes(body[pos + 1..pos + 9].try_into().unwrap());
        let vlen = u32::from_le_bytes(body[pos + 9..pos + 13].try_into().unwrap()) as usize;
        pos += OP_HEADER;
        if pos + vlen > body.len() {
            return Err(Error::Corruption(format!(
                "wal batch value overruns record at op {i}/{count}"
            )));
        }
        out.push(BatchOp {
            kind,
            key,
            value: body[pos..pos + vlen].to_vec(),
        });
        pos += vlen;
    }
    if pos != body.len() {
        return Err(Error::Corruption(format!(
            "wal batch has {} trailing bytes",
            body.len() - pos
        )));
    }
    Ok(ReplayedRecord {
        first_seq,
        ops: out,
        cross,
    })
}

/// Replay a log file into its records, batch-atomically.
///
/// Returns the decoded records in append order, each carrying its
/// cross-shard tag when present — recovery resolves tagged fragments
/// against the commit-marker log before applying them. A torn or
/// CRC-corrupt tail frame terminates the replay without error (a crash
/// mid-append is expected) and drops that frame's **entire batch** —
/// recovery never applies a batch prefix. A malformed payload *inside* an
/// intact frame is reported as corruption, since the CRC passing means
/// real damage.
pub fn replay_records(storage: &dyn Storage, name: &str) -> Result<Vec<ReplayedRecord>> {
    if !storage.exists(name) {
        return Ok(Vec::new());
    }
    let data = lsm_io::read_all(storage, name)?;
    intact_frames(&data).map(decode_batch).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Entry, InternalKey};
    use lsm_io::MemStorage;

    impl WalWriter {
        /// Append one single-operation record.
        fn append(&mut self, key: u64, seq: SeqNo, kind: EntryKind, value: &[u8]) -> Result<()> {
            let value = value.to_vec();
            self.append_batch(seq, &[BatchOp { kind, key, value }])?;
            Ok(())
        }
    }

    /// [`replay_records`] flattened to entries, every record applied.
    fn replay(storage: &dyn Storage, name: &str) -> Result<Vec<Entry>> {
        let records = replay_records(storage, name)?;
        let entries = records.into_iter().flat_map(|r| {
            r.ops.into_iter().enumerate().map(move |(i, op)| Entry {
                key: InternalKey {
                    user_key: op.key,
                    seq: r.first_seq + i as SeqNo,
                    kind: op.kind,
                },
                value: op.value,
            })
        });
        Ok(entries.collect())
    }

    #[test]
    fn crc32_known_vectors() {
        // CRC-32/IEEE check values (see e.g. the reveng catalogue).
        assert_eq!(crc32(b"123456789"), 0xCBF43926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"abc"), 0x3524_41C2);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
        assert_eq!(crc32(&[0xFFu8; 32]), 0xFF6C_AB0B);
    }

    #[test]
    fn crc32_table_matches_bitwise_reference() {
        fn bitwise(data: &[u8]) -> u32 {
            let mut crc: u32 = !0;
            for &b in data {
                crc ^= b as u32;
                for _ in 0..8 {
                    let mask = (crc & 1).wrapping_neg();
                    crc = (crc >> 1) ^ (0xEDB88320 & mask);
                }
            }
            !crc
        }
        let mut payload = Vec::new();
        for i in 0..1024u32 {
            payload.push((i.wrapping_mul(2654435761) >> 13) as u8);
        }
        for window in [0usize, 1, 7, 64, 1000, 1024] {
            assert_eq!(crc32(&payload[..window]), bitwise(&payload[..window]));
        }
    }

    #[test]
    fn append_replay_roundtrip() {
        let storage = MemStorage::new();
        let mut w = WalWriter::create(&storage, "wal").unwrap();
        w.append(7, 1, EntryKind::Put, b"seven").unwrap();
        w.append(8, 2, EntryKind::Delete, b"").unwrap();
        w.append(9, 3, EntryKind::Put, &[0xab; 100]).unwrap();
        w.sync().unwrap();
        drop(w);

        let entries = replay(&storage, "wal").unwrap();
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0].key.user_key, 7);
        assert_eq!(entries[0].value, b"seven");
        assert_eq!(entries[1].key.kind, EntryKind::Delete);
        assert_eq!(entries[2].value, vec![0xab; 100]);
        assert_eq!(entries[2].key.seq, 3);
    }

    #[test]
    fn batch_record_assigns_contiguous_seqs() {
        let storage = MemStorage::new();
        let mut w = WalWriter::create(&storage, "wal").unwrap();
        let ops = vec![
            BatchOp {
                kind: EntryKind::Put,
                key: 10,
                value: b"a".to_vec(),
            },
            BatchOp {
                kind: EntryKind::Delete,
                key: 11,
                value: vec![],
            },
            BatchOp {
                kind: EntryKind::Put,
                key: 12,
                value: b"c".to_vec(),
            },
        ];
        w.append_batch(40, &ops).unwrap();
        drop(w);
        let entries = replay(&storage, "wal").unwrap();
        let seqs: Vec<u64> = entries.iter().map(|e| e.key.seq).collect();
        assert_eq!(seqs, vec![40, 41, 42]);
        assert_eq!(entries[1].key.kind, EntryKind::Delete);
    }

    #[test]
    fn fused_group_record_is_one_frame_one_contiguous_range() {
        let storage = MemStorage::new();
        let mut w = WalWriter::create(&storage, "wal").unwrap();
        let a = vec![
            BatchOp {
                kind: EntryKind::Put,
                key: 1,
                value: b"a1".to_vec(),
            },
            BatchOp {
                kind: EntryKind::Delete,
                key: 2,
                value: vec![],
            },
        ];
        let b = vec![BatchOp {
            kind: EntryKind::Put,
            key: 3,
            value: b"b1".to_vec(),
        }];
        w.append_encoded(20, 3, &[&encode_ops(&a), &encode_ops(&b)], None)
            .unwrap();
        drop(w);
        // One frame holding every member's ops, seqs contiguous across the
        // member boundary.
        let records = replay_records(&storage, "wal").unwrap();
        assert_eq!(records.len(), 1, "the group is one record");
        assert_eq!(records[0].cross, None, "fused groups are plain format 1");
        let entries = replay(&storage, "wal").unwrap();
        let seqs: Vec<u64> = entries.iter().map(|e| e.key.seq).collect();
        assert_eq!(seqs, vec![20, 21, 22]);
        assert_eq!(entries[2].key.user_key, 3);
    }

    #[test]
    fn torn_tail_drops_whole_batch_never_a_prefix() {
        let storage = MemStorage::new();
        let mut w = WalWriter::create(&storage, "wal").unwrap();
        w.append(1, 1, EntryKind::Put, b"full").unwrap();
        let ops: Vec<BatchOp> = (0..5u64)
            .map(|k| BatchOp {
                kind: EntryKind::Put,
                key: 100 + k,
                value: vec![7; 20],
            })
            .collect();
        w.append_batch(2, &ops).unwrap();
        drop(w);
        // Truncate mid-batch: only the final op's bytes are missing, but the
        // whole 5-op batch must vanish.
        let full = lsm_io::read_all(&storage, "wal").unwrap();
        let mut f = storage.create("wal").unwrap();
        f.append(&full[..full.len() - 5]).unwrap();
        drop(f);

        let entries = replay(&storage, "wal").unwrap();
        assert_eq!(entries.len(), 1, "only the intact first record survives");
        assert_eq!(entries[0].key.user_key, 1);
    }

    #[test]
    fn corrupt_tail_crc_stops_replay() {
        let storage = MemStorage::new();
        let mut w = WalWriter::create(&storage, "wal").unwrap();
        w.append(1, 1, EntryKind::Put, b"ok").unwrap();
        w.append(2, 2, EntryKind::Put, b"bad").unwrap();
        drop(w);
        let mut full = lsm_io::read_all(&storage, "wal").unwrap();
        let n = full.len();
        full[n - 1] ^= 0xff; // flip a bit in the last record's value
        let mut f = storage.create("wal").unwrap();
        f.append(&full).unwrap();
        drop(f);

        let entries = replay(&storage, "wal").unwrap();
        assert_eq!(entries.len(), 1);
    }

    #[test]
    fn unknown_format_is_corruption() {
        let storage = MemStorage::new();
        let mut w = WalWriter::create(&storage, "wal").unwrap();
        w.append(1, 1, EntryKind::Put, b"x").unwrap();
        drop(w);
        let mut full = lsm_io::read_all(&storage, "wal").unwrap();
        full[8] = 99; // payload format byte
        let body_len = full.len() - 8;
        let crc = crc32(&full[8..8 + body_len]);
        full[0..4].copy_from_slice(&crc.to_le_bytes());
        let mut f = storage.create("wal").unwrap();
        f.append(&full).unwrap();
        drop(f);
        assert!(replay(&storage, "wal").is_err(), "valid CRC + bad format");
    }

    #[test]
    fn absurd_op_count_is_corruption_not_allocation() {
        // A frame whose CRC validates but whose count field claims far more
        // ops than the body holds must error cleanly (never allocate for
        // the claimed count).
        let mut body = vec![BATCH_FORMAT];
        body.extend_from_slice(&1u64.to_le_bytes()); // first_seq
        body.extend_from_slice(&u32::MAX.to_le_bytes()); // absurd count
        body.extend_from_slice(&[0u8; 13]); // room for exactly one op header
        let mut frame = Vec::new();
        frame.extend_from_slice(&crc32(&body).to_le_bytes());
        frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
        frame.extend_from_slice(&body);

        let storage = MemStorage::new();
        let mut f = storage.create("wal").unwrap();
        f.append(&frame).unwrap();
        drop(f);
        assert!(replay(&storage, "wal").is_err());
    }

    #[test]
    fn cross_record_roundtrips_tag_and_entries() {
        let storage = MemStorage::new();
        let mut w = WalWriter::create(&storage, "wal").unwrap();
        let tag = CrossBatchTag {
            global_first: 100,
            global_last: 111,
            participants: vec![0, 2, 5],
        };
        let ops = vec![
            BatchOp {
                kind: EntryKind::Put,
                key: 7,
                value: b"frag".to_vec(),
            },
            BatchOp {
                kind: EntryKind::Delete,
                key: 8,
                value: vec![],
            },
        ];
        // This shard's fragment holds seqs 103..=104 of the global batch.
        w.append_encoded(103, 2, &[&encode_ops(&ops)], Some(&tag))
            .unwrap();
        w.append(9, 105, EntryKind::Put, b"plain").unwrap();
        drop(w);

        let records = replay_records(&storage, "wal").unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].cross.as_ref(), Some(&tag));
        assert_eq!(records[0].first_seq, 103);
        assert_eq!(records[0].ops, ops);
        assert_eq!(records[1].cross, None);
        assert_eq!(records[1].ops[0].value, b"plain");
        // The flattened view applies everything.
        assert_eq!(replay(&storage, "wal").unwrap().len(), 3);
    }

    #[test]
    fn cross_record_malformed_headers_are_corruption() {
        // An intact CRC with a cross header whose participant list overruns
        // the record must error cleanly.
        let mut body = vec![CROSS_BATCH_FORMAT];
        body.extend_from_slice(&1u64.to_le_bytes()); // first_seq
        body.extend_from_slice(&1u32.to_le_bytes()); // count
        body.extend_from_slice(&1u64.to_le_bytes()); // global_first
        body.extend_from_slice(&2u64.to_le_bytes()); // global_last
        body.extend_from_slice(&u16::MAX.to_le_bytes()); // absurd participants
        let mut frame = Vec::new();
        frame.extend_from_slice(&crc32(&body).to_le_bytes());
        frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
        frame.extend_from_slice(&body);
        let storage = MemStorage::new();
        let mut f = storage.create("wal").unwrap();
        f.append(&frame).unwrap();
        drop(f);
        assert!(replay_records(&storage, "wal").is_err());
    }

    /// The three record kinds through the public appenders, against the
    /// bytes the same calls wrote before the appenders shared one encoder.
    #[test]
    fn record_bytes_match_the_recorded_golden() {
        let op = |kind, key, value: &[u8]| BatchOp {
            kind,
            key,
            value: value.to_vec(),
        };
        let storage = MemStorage::new();
        let mut w = WalWriter::create(&storage, "wal").unwrap();
        // A single batch: put, delete, empty value.
        let single = [
            op(EntryKind::Put, 1, b"one"),
            op(EntryKind::Delete, 2, b""),
            op(EntryKind::Put, 3, b""),
        ];
        assert_eq!(w.append_batch(7, &single).unwrap(), 63);
        // A fused group of three pre-encoded members.
        let members = [
            vec![
                op(EntryKind::Put, 10, b"a1"),
                op(EntryKind::Delete, 11, b""),
            ],
            vec![op(EntryKind::Put, 12, &[0xab; 40])],
            vec![
                op(EntryKind::Delete, 13, b""),
                op(EntryKind::Put, u64::MAX, b"z"),
            ],
        ];
        let encoded: Vec<Vec<u8>> = members.iter().map(|m| encode_ops(m)).collect();
        let parts: Vec<&[u8]> = encoded.iter().map(Vec::as_slice).collect();
        assert_eq!(w.append_encoded(10, 5, &parts, None).unwrap(), 129);
        // A format-2 prepare with two participants.
        let tag = CrossBatchTag {
            global_first: 18,
            global_last: 25,
            participants: vec![0, 3],
        };
        let frag = [
            op(EntryKind::Put, 20, b"frag"),
            op(EntryKind::Delete, 21, b""),
        ];
        let prepare = w.append_encoded(20, 2, &[&encode_ops(&frag)], Some(&tag));
        assert_eq!(prepare.unwrap(), 73);
        drop(w);
        let bytes = lsm_io::read_all(&storage, "wal").unwrap();
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, GOLDEN_LOG);
    }

    /// Recorded at the parent of the change that made the appenders share
    /// one encoder, by the calls above (`append_batch`,
    /// `append_encoded_group`, `append_batch_tagged`).
    const GOLDEN_LOG: &str = "\
        ea68f2213700000001070000000000000003000000010100000000000000030000006f6e\
        650002000000000000000000000001030000000000000000000000b43957657900000001\
        0a0000000000000005000000010a00000000000000020000006131000b00000000000000\
        00000000010c0000000000000028000000ababababababababababababababababababab\
        ababababababababababababababababababababab000d000000000000000000000001ff\
        ffffffffffffff010000007a409548684100000002140000000000000002000000120000\
        000000000019000000000000000200000003000114000000000000000400000066726167\
        00150000000000000000000000";

    /// Every field of the record format that can overflow is checked before
    /// the log is touched.
    #[test]
    fn oversize_records_are_corruption_and_leave_the_log_untouched() {
        let storage = MemStorage::new();
        let mut w = WalWriter::create(&storage, "wal").unwrap();
        let region = encode_ops(&[BatchOp {
            kind: EntryKind::Put,
            key: 1,
            value: b"v".to_vec(),
        }]);
        let ops = w.append_encoded(1, u32::MAX as usize + 1, &[&region], None);
        assert!(matches!(ops, Err(Error::Corruption(_))), "op count");
        let tag = CrossBatchTag {
            global_first: 1,
            global_last: 1,
            participants: vec![0; u16::MAX as usize + 1],
        };
        let participants = w.append_encoded(1, 1, &[&region], Some(&tag));
        assert!(matches!(participants, Err(Error::Corruption(_))));
        // 64 × 64 MiB of zero pages nothing reads: 4 GiB with the header.
        let chunk = vec![0u8; 1 << 26];
        let payload = w.append_encoded(1, 1, &[&chunk[..]; 64], None);
        assert!(
            matches!(payload, Err(Error::Corruption(_))),
            "payload length"
        );
        assert_eq!(w.written(), 0);
    }

    #[test]
    fn missing_log_is_empty() {
        let storage = MemStorage::new();
        assert!(replay(&storage, "nope").unwrap().is_empty());
    }

    #[test]
    fn empty_values_and_large_keys() {
        let storage = MemStorage::new();
        let mut w = WalWriter::create(&storage, "wal").unwrap();
        w.append(u64::MAX, u64::MAX >> 9, EntryKind::Put, b"")
            .unwrap();
        drop(w);
        let entries = replay(&storage, "wal").unwrap();
        assert_eq!(entries[0].key.user_key, u64::MAX);
        assert_eq!(entries[0].key.seq, u64::MAX >> 9);
    }
}
