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
//! op      = [kind u8][user_key u64][value_len u32][value bytes]
//! ```
//!
//! Operation `i` of a record receives sequence number `first_seq + i`, so a
//! batch occupies one contiguous sequence range. The `format` byte versions
//! the payload encoding; replay rejects formats it does not understand.
//!
//! A [`crate::sharding::ShardedDb`] keeps one log of these records for all
//! its shards: a cross-shard batch is one record, its ops grouped by shard
//! in routing order, so its crash atomicity is the frame's own.
//!
//! The writer builds each record in one reused buffer: the 8-byte frame
//! header is reserved in front, the payload written behind it, and the CRC
//! and length filled in last. [`crc32`] folds 64 bytes a step with
//! carry-less multiplies on x86-64 hosts that have them and falls back to
//! slicing-by-8 tables elsewhere; it frames every WAL record, manifest and
//! topology seal, and checks them again on replay.

use crate::batch::BatchOp;
use crate::codec::{self, Reader};
use crate::types::{EntryKind, SeqNo};
use crate::{Error, Result};
use lsm_io::{Storage, WritableFile};

/// WAL payload format of a batch record.
pub const BATCH_FORMAT: u8 = 1;

/// Fixed bytes of a batch payload before its operations.
const BATCH_HEADER: usize = 1 + 8 + 4;

/// One decoded WAL record: its operations, operation `i` committed at
/// `first_seq + i`.
#[derive(Debug, Clone)]
pub struct ReplayedRecord {
    pub first_seq: SeqNo,
    pub ops: Vec<BatchOp>,
}

impl ReplayedRecord {
    /// The sequence number of the record's last operation.
    pub fn last_seq(&self) -> SeqNo {
        self.first_seq + self.ops.len() as SeqNo - 1
    }
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

/// CRC-32 (IEEE) over `data`. It frames every record in the commit
/// leader's serial section (and re-checks them on replay), so on an x86-64
/// host with the carry-less multiply it folds 64 bytes a step (`clmul`);
/// elsewhere, below `clmul::MIN_LEN` and for the last `len % 16` bytes the
/// slicing-by-8 tables digest 8 bytes a step. Both give the same value.
pub fn crc32(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= clmul::MIN_LEN && clmul::available() {
        let folded = data.len() & !15;
        // SAFETY: `available` saw the CPU feature the kernel is compiled
        // for, and `folded` is at least `MIN_LEN` and a multiple of 16.
        let crc = unsafe { clmul::fold(!0, &data[..folded]) };
        return !crc32_tables(crc, &data[folded..]);
    }
    !crc32_tables(!0, data)
}

/// The slicing-by-8 update of the running (inverted) CRC register `crc`
/// over `data`; the tail shorter than 8 bytes goes a byte at a time.
fn crc32_tables(mut crc: u32, data: &[u8]) -> u32 {
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
    crc
}

/// CRC-32 by carry-less multiplication (Gopal et al., "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ Instruction",
/// Intel 2009 — the bit-reflected form zlib and Linux use): four 128-bit
/// lanes fold 64 bytes a step, fold into one lane, then Barrett-reduce to
/// 32 bits. The constants are `x^k mod P(x)`, bit-reflected, for the IEEE
/// polynomial `P`.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;

    /// Shortest input the kernel takes: one 64-byte block, plus one
    /// 64-byte step so the fold pays for its reduction.
    pub const MIN_LEN: usize = 128;

    /// Whether this CPU has the carry-less multiply (cached by std).
    pub fn available() -> bool {
        std::arch::is_x86_feature_detected!("pclmulqdq")
    }

    /// The running (inverted) CRC register after `data`.
    ///
    /// # Safety
    /// The CPU must support `pclmulqdq`, and `data.len()` must be a
    /// multiple of 16 and at least 64.
    #[target_feature(enable = "pclmulqdq")]
    pub unsafe fn fold(crc: u32, data: &[u8]) -> u32 {
        debug_assert!(data.len() >= 64 && data.len() & 15 == 0);
        // One lane times `k`: its low half by k's low and its high half by
        // k's high, summed — the lane moved `k`'s distance further on.
        macro_rules! step {
            ($x:expr, $k:expr) => {
                _mm_xor_si128(
                    _mm_clmulepi64_si128($x, $k, 0x00),
                    _mm_clmulepi64_si128($x, $k, 0x11),
                )
            };
        }
        // SAFETY: every load reads 16 bytes at the start of a 16-byte
        // chunk of `data` (`chunks_exact`), and the caller vouches for the
        // CPU feature the intrinsics need.
        unsafe {
            let load = |chunk: &[u8]| _mm_loadu_si128(chunk.as_ptr().cast());
            let (head, rest) = data.split_at(64);
            let mut x1 = _mm_xor_si128(load(&head[..16]), _mm_cvtsi32_si128(crc as i32));
            let mut x2 = load(&head[16..32]);
            let mut x3 = load(&head[32..48]);
            let mut x4 = load(&head[48..]);

            let k1k2 = _mm_set_epi64x(0x1_c6e4_1596, 0x1_5444_2bd4);
            let mut blocks = rest.chunks_exact(64);
            for block in &mut blocks {
                x1 = _mm_xor_si128(step!(x1, k1k2), load(&block[..16]));
                x2 = _mm_xor_si128(step!(x2, k1k2), load(&block[16..32]));
                x3 = _mm_xor_si128(step!(x3, k1k2), load(&block[32..48]));
                x4 = _mm_xor_si128(step!(x4, k1k2), load(&block[48..]));
            }

            // Four lanes into one, then the remaining 16-byte chunks.
            let k3k4 = _mm_set_epi64x(0x0_ccaa_009e, 0x1_7519_97d0);
            x1 = _mm_xor_si128(step!(x1, k3k4), x2);
            x1 = _mm_xor_si128(step!(x1, k3k4), x3);
            x1 = _mm_xor_si128(step!(x1, k3k4), x4);
            for chunk in blocks.remainder().chunks_exact(16) {
                x1 = _mm_xor_si128(step!(x1, k3k4), load(chunk));
            }

            // 128 bits to 64, then to the 32-bit remainder.
            let low32 = _mm_setr_epi32(!0, 0, !0, 0);
            x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), _mm_clmulepi64_si128(x1, k3k4, 0x10));
            let k5 = _mm_set_epi64x(0, 0x1_63cd_6124);
            x1 = _mm_xor_si128(
                _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00),
                _mm_srli_si128(x1, 4),
            );
            let poly = _mm_set_epi64x(0x1_f701_1641, 0x1_db71_0641);
            let mut x2 = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
            x2 = _mm_clmulepi64_si128(_mm_and_si128(x2, low32), poly, 0x00);
            x1 = _mm_xor_si128(x1, x2);
            _mm_cvtsi128_si32(_mm_srli_si128(x1, 4)) as u32
        }
    }
}

/// Fill in the frame header a record's buffer reserved: `buf` is 8 bytes
/// of header room followed by the payload, and becomes
/// `[crc32 u32][payload_len u32][payload]`.
fn seal_frame(buf: &mut [u8]) {
    let (header, payload) = buf.split_at_mut(8);
    header[..4].copy_from_slice(&crc32(payload).to_le_bytes());
    header[4..].copy_from_slice(&(payload.len() as u32).to_le_bytes());
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
        codec::put_u8(&mut out, op.kind.tag());
        codec::put_u64(&mut out, op.key);
        codec::put_bytes(&mut out, &op.value);
    }
    out
}

/// Iterator over the **intact** frame payloads of a log byte stream. The
/// scan ends cleanly (no error, no item) at the first torn or CRC-corrupt
/// frame — a crash mid-append is expected, and everything behind the tear
/// is by definition unsealed. What an intact payload *means* is the
/// caller's business.
struct FrameIter<'a> {
    rest: Reader<'a>,
}

impl<'a> Iterator for FrameIter<'a> {
    type Item = &'a [u8];

    /// The reader advances only past an intact frame, so once a tear or a
    /// bad CRC ends the scan every later call ends it too.
    fn next(&mut self) -> Option<&'a [u8]> {
        let mut r = self.rest.clone();
        let crc = r.u32("frame crc").ok()?;
        let body = r.bytes("frame payload").ok()?; // torn tail
        if crc32(body) != crc {
            return None; // corrupt tail
        }
        self.rest = r;
        Some(body)
    }
}

/// The intact frames of `data`, in append order.
fn intact_frames(data: &[u8]) -> FrameIter<'_> {
    FrameIter {
        rest: Reader::new(data),
    }
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
        self.append_encoded(first_seq, ops.len(), &[&encode_ops(ops)])
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
    /// A sharded database's cross-shard batch is the same: one region per
    /// touched shard, in routing order.
    pub fn append_encoded(
        &mut self,
        first_seq: SeqNo,
        count: usize,
        parts: &[&[u8]],
    ) -> Result<u64> {
        debug_assert!(count > 0, "empty batches are not logged");
        if count > u32::MAX as usize {
            return Err(Error::Corruption(format!(
                "wal batch of {count} ops exceeds the record format"
            )));
        }
        let payload = parts
            .iter()
            .map(|p| p.len())
            .fold(BATCH_HEADER, usize::saturating_add);
        if payload > u32::MAX as usize {
            return Err(Error::Corruption(format!(
                "wal batch payload of {payload} bytes exceeds the record format"
            )));
        }
        // The frame header is reserved in front and filled in once the
        // payload is in place: one buffer, one copy of the regions.
        self.buf.clear();
        self.buf.extend_from_slice(&[0; 8]);
        codec::put_u8(&mut self.buf, BATCH_FORMAT);
        codec::put_u64(&mut self.buf, first_seq);
        codec::put_u32(&mut self.buf, count as u32);
        for p in parts {
            self.buf.extend_from_slice(p);
        }
        seal_frame(&mut self.buf);
        self.file.append(&self.buf)?;
        Ok(self.buf.len() as u64)
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

/// Decode one intact batch payload into its operations. The codec checks
/// every length — a
/// CRC-valid but malformed record is a clean corruption error, and the
/// declared op count is bounded by the record's size before anything is
/// reserved for it; the checks here are what the bytes mean.
fn decode_batch(body: &[u8]) -> Result<ReplayedRecord> {
    let mut r = Reader::new(body);
    let format = r.u8("wal format")?;
    if format != BATCH_FORMAT {
        return Err(Error::Corruption(format!(
            "wal batch format {format} unsupported (expected {BATCH_FORMAT})"
        )));
    }
    let first_seq = r.u64("wal first_seq")?;
    let count = r.count("wal op count", OP_HEADER)?;
    if count == 0 {
        return Err(Error::Corruption("wal batch with zero operations".into()));
    }
    let mut ops = Vec::with_capacity(count);
    for _ in 0..count {
        let tag = r.u8("wal op kind")?;
        let kind = EntryKind::from_tag(tag)
            .ok_or_else(|| Error::Corruption(format!("wal bad kind {tag}")))?;
        let key = r.u64("wal op key")?;
        let value = r.bytes("wal op value")?.to_vec();
        ops.push(BatchOp { kind, key, value });
    }
    r.finish()?;
    Ok(ReplayedRecord { first_seq, ops })
}

/// Replay a log file into its records, batch-atomically.
///
/// Returns the decoded records in append order. A torn or
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

    /// CRC-32 a bit at a time: the definition the fast paths must equal.
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

    /// `n` bytes of a multiplicative hash sequence.
    fn pseudo_random(n: usize) -> Vec<u8> {
        (0..n as u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect()
    }

    #[test]
    fn crc32_table_matches_bitwise_reference() {
        let payload = pseudo_random(1024);
        for window in [0usize, 1, 7, 64, 1000, 1024] {
            assert_eq!(crc32(&payload[..window]), bitwise(&payload[..window]));
        }
    }

    /// Both kernels — `crc32` (which folds with carry-less multiplies where
    /// the CPU has them) and the slicing-by-8 tables called directly — equal
    /// the bitwise reference at every length up to 1 100 bytes, from every
    /// start offset in a 16-byte line, and over 1 MiB.
    #[test]
    fn crc32_kernels_match_bitwise_reference_at_every_length_and_offset() {
        let data = pseudo_random(1_100 + 16);
        for offset in 0..16 {
            for len in 0..=1_100 {
                let input = &data[offset..offset + len];
                let want = bitwise(input);
                assert_eq!(crc32(input), want, "len {len} offset {offset}");
                assert_eq!(!crc32_tables(!0, input), want, "len {len} offset {offset}");
            }
        }
        let big = pseudo_random(1 << 20);
        assert_eq!(crc32(&big), bitwise(&big));
        assert_eq!(!crc32_tables(!0, &big), bitwise(&big));
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
        w.append_encoded(20, 3, &[&encode_ops(&a), &encode_ops(&b)])
            .unwrap();
        drop(w);
        // One frame holding every member's ops, seqs contiguous across the
        // member boundary.
        let records = replay_records(&storage, "wal").unwrap();
        assert_eq!(records.len(), 1, "the group is one record");
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

    /// A format byte this build does not write is corruption behind a valid
    /// CRC — 2 too, the retired cross-shard prepare record.
    #[test]
    fn unknown_format_is_corruption() {
        for format in [2, 99] {
            let storage = MemStorage::new();
            let mut w = WalWriter::create(&storage, "wal").unwrap();
            w.append(1, 1, EntryKind::Put, b"x").unwrap();
            drop(w);
            let mut full = lsm_io::read_all(&storage, "wal").unwrap();
            full[8] = format; // payload format byte
            let body_len = full.len() - 8;
            let crc = crc32(&full[8..8 + body_len]);
            full[0..4].copy_from_slice(&crc.to_le_bytes());
            let mut f = storage.create("wal").unwrap();
            f.append(&full).unwrap();
            drop(f);
            let refused = replay(&storage, "wal");
            assert!(
                matches!(&refused, Err(Error::Corruption(m)) if m.contains(&format!("format {format}"))),
                "valid CRC + format {format}: {refused:?}"
            );
        }
    }

    /// A retired cross-shard record (format 2) left by an older build, its
    /// CRC intact and its participant list overrunning the record, errors
    /// cleanly: the format is refused before any header field is trusted.
    #[test]
    fn cross_record_malformed_headers_are_corruption() {
        let mut body = vec![2u8];
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
        let refused = replay_records(&storage, "wal");
        assert!(
            matches!(&refused, Err(Error::Corruption(m)) if m.contains("format 2")),
            "{:?}",
            refused.map(|r| r.len())
        );
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

    /// The two record kinds through the public appenders, against the
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
        assert_eq!(w.append_encoded(10, 5, &parts).unwrap(), 129);
        drop(w);
        let bytes = lsm_io::read_all(&storage, "wal").unwrap();
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, GOLDEN_LOG);
    }

    /// Recorded at the parent of the change that made the appenders share
    /// one encoder, by the calls above (`append_batch`,
    /// `append_encoded_group`). The recording also held a third record, a
    /// format-2 cross-shard prepare; that format is gone (a sharded
    /// database logs a cross-shard batch as one format-1 record in its one
    /// log), so the golden is the recording's first 192 bytes, unchanged.
    const GOLDEN_LOG: &str = "\
        ea68f2213700000001070000000000000003000000010100000000000000030000006f6e\
        650002000000000000000000000001030000000000000000000000b43957657900000001\
        0a0000000000000005000000010a00000000000000020000006131000b00000000000000\
        00000000010c0000000000000028000000ababababababababababababababababababab\
        ababababababababababababababababababababab000d000000000000000000000001ff\
        ffffffffffffff010000007a";

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
        let ops = w.append_encoded(1, u32::MAX as usize + 1, &[&region]);
        assert!(matches!(ops, Err(Error::Corruption(_))), "op count");
        // 64 × 64 MiB of zero pages nothing reads: 4 GiB with the header.
        let chunk = vec![0u8; 1 << 26];
        let payload = w.append_encoded(1, 1, &[&chunk[..]; 64]);
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
