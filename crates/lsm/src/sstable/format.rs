//! On-disk SSTable layout.
//!
//! ```text
//! ┌──────────────────────────────┐
//! │ entry 0 │ entry 1 │ ...      │  n fixed-width entries, key-sorted
//! ├──────────────────────────────┤
//! │ index payload                │  serialized SegmentIndex (any kind)
//! ├──────────────────────────────┤
//! │ bloom payload                │
//! ├──────────────────────────────┤
//! │ footer (fixed width)         │
//! └──────────────────────────────┘
//! ```
//!
//! Entries are *fixed width* — `[24 B key][1 B kind][7 B seq][4 B vlen]
//! [value_width B payload]` — so a learned model's position prediction maps
//! to a byte offset with one multiply. This is the data-clustered layout of
//! Section 3: physically continuous, sorted key-value pairs. Each table
//! holds at most one version per user key (compaction deduplicates), so the
//! key column is strictly increasing, which is what the index models train
//! on.

use crate::types::{Entry, EntryKind, InternalKey, SeqNo};
use crate::{Error, Result};
use lsm_workloads::{decode_key, encode_key, KEY_LEN};

/// Fixed entry header: key slot + kind + seq + value length.
pub const ENTRY_HEADER: usize = KEY_LEN + 1 + 7 + 4;

/// Footer magic ("LSMLRND1").
pub const MAGIC: u64 = 0x4C53_4D4C_524E_4431;

/// Fixed footer size in bytes.
pub const FOOTER_LEN: usize = 8 * 9 + 4;

/// Width of one on-disk entry for a table with `value_width`-byte value slots.
#[inline]
pub fn entry_width(value_width: usize) -> usize {
    ENTRY_HEADER + value_width
}

/// Serialize one entry into `out` (appends exactly `entry_width` bytes).
pub fn encode_entry(out: &mut Vec<u8>, key: &InternalKey, value: &[u8], value_width: usize) {
    debug_assert!(value.len() <= value_width, "value exceeds table slot");
    out.extend_from_slice(&encode_key(key.user_key));
    out.push(key.kind.tag());
    let seq_bytes = key.seq.to_le_bytes();
    out.extend_from_slice(&seq_bytes[..7]);
    out.extend_from_slice(&(value.len() as u32).to_le_bytes());
    out.extend_from_slice(value);
    out.resize(out.len() + (value_width - value.len()), 0);
}

/// Parse and check the fixed header at `buf[0..ENTRY_HEADER]`: the internal
/// key and the length of the value that follows it. A cursor decides on
/// this alone and borrows the value only of an entry it keeps.
pub fn decode_header(buf: &[u8], value_width: usize) -> Result<(InternalKey, usize)> {
    if buf.len() < ENTRY_HEADER {
        return Err(Error::Corruption("entry buffer too short".into()));
    }
    let user_key = decode_key(&buf[..KEY_LEN]);
    let kind = EntryKind::from_tag(buf[KEY_LEN])
        .ok_or_else(|| Error::Corruption(format!("bad entry kind {}", buf[KEY_LEN])))?;
    let mut seq_bytes = [0u8; 8];
    seq_bytes[..7].copy_from_slice(&buf[KEY_LEN + 1..KEY_LEN + 8]);
    let seq = SeqNo::from_le_bytes(seq_bytes);
    let vlen = u32::from_le_bytes(buf[KEY_LEN + 8..KEY_LEN + 12].try_into().unwrap()) as usize;
    if vlen > value_width {
        return Err(Error::Corruption(format!(
            "value length {vlen} exceeds slot {value_width}"
        )));
    }
    let key = InternalKey {
        user_key,
        seq,
        kind,
    };
    Ok((key, vlen))
}

/// Parse the entry at `buf[0..entry_width]`.
pub fn decode_entry(buf: &[u8], value_width: usize) -> Result<Entry> {
    if buf.len() < entry_width(value_width) {
        return Err(Error::Corruption("entry buffer too short".into()));
    }
    let (key, vlen) = decode_header(buf, value_width)?;
    let value = buf[ENTRY_HEADER..ENTRY_HEADER + vlen].to_vec();
    Ok(Entry { key, value })
}

/// Read only the user key of the entry at `buf[0..]` (hot path of in-segment
/// binary search — avoids copying the value).
#[inline]
pub fn decode_entry_key(buf: &[u8]) -> u64 {
    decode_key(&buf[..KEY_LEN])
}

/// Table footer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Footer {
    pub n: u64,
    pub value_width: u32,
    pub index_off: u64,
    pub index_len: u64,
    pub bloom_off: u64,
    pub bloom_len: u64,
    pub min_key: u64,
    pub max_key: u64,
    pub max_seq: u64,
}

impl Footer {
    /// Serialize (fixed width, magic last).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.n.to_le_bytes());
        out.extend_from_slice(&self.value_width.to_le_bytes());
        out.extend_from_slice(&self.index_off.to_le_bytes());
        out.extend_from_slice(&self.index_len.to_le_bytes());
        out.extend_from_slice(&self.bloom_off.to_le_bytes());
        out.extend_from_slice(&self.bloom_len.to_le_bytes());
        out.extend_from_slice(&self.min_key.to_le_bytes());
        out.extend_from_slice(&self.max_key.to_le_bytes());
        out.extend_from_slice(&self.max_seq.to_le_bytes());
        out.extend_from_slice(&MAGIC.to_le_bytes());
    }

    /// Decode a `FOOTER_LEN`-byte buffer.
    pub fn decode(buf: &[u8]) -> Result<Self> {
        if buf.len() != FOOTER_LEN {
            return Err(Error::Corruption(format!(
                "footer length {} != {FOOTER_LEN}",
                buf.len()
            )));
        }
        let u64_at = |i: usize| u64::from_le_bytes(buf[i..i + 8].try_into().unwrap());
        let magic = u64_at(FOOTER_LEN - 8);
        if magic != MAGIC {
            return Err(Error::Corruption(format!("bad magic {magic:#x}")));
        }
        Ok(Footer {
            n: u64_at(0),
            value_width: u32::from_le_bytes(buf[8..12].try_into().unwrap()),
            index_off: u64_at(12),
            index_len: u64_at(20),
            bloom_off: u64_at(28),
            bloom_len: u64_at(36),
            min_key: u64_at(44),
            max_key: u64_at(52),
            max_seq: u64_at(60),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_roundtrip() {
        let e = Entry::put(0xdead_beef, 42, b"hello".to_vec());
        let mut buf = Vec::new();
        encode_entry(&mut buf, &e.key, &e.value, 16);
        assert_eq!(buf.len(), entry_width(16));
        let back = decode_entry(&buf, 16).unwrap();
        assert_eq!(back, e);
        assert_eq!(decode_entry_key(&buf), 0xdead_beef);
        assert_eq!(decode_header(&buf, 16).unwrap(), (e.key, 5));
    }

    #[test]
    fn tombstone_roundtrip() {
        let e = Entry::tombstone(7, 9);
        let mut buf = Vec::new();
        encode_entry(&mut buf, &e.key, &e.value, 8);
        let back = decode_entry(&buf, 8).unwrap();
        assert_eq!(back.key.kind, EntryKind::Delete);
        assert!(back.value.is_empty());
    }

    #[test]
    fn corrupt_entry_rejected() {
        assert!(decode_entry(&[0u8; 4], 16).is_err());
        let mut buf = Vec::new();
        let e = Entry::put(1, 1, vec![1, 2, 3]);
        encode_entry(&mut buf, &e.key, &e.value, 8);
        let good = buf.clone();
        buf[KEY_LEN] = 9; // bad kind tag
        assert!(decode_entry(&buf, 8).is_err());
        assert!(decode_header(&buf[..ENTRY_HEADER], 8).is_err());
        buf.clone_from(&good);
        buf[KEY_LEN + 8] = 9; // a value longer than the slot
        assert!(decode_entry(&buf, 8).is_err());
        assert!(decode_header(&buf[..ENTRY_HEADER], 8).is_err());
        assert!(decode_header(&good[..ENTRY_HEADER - 1], 8).is_err());
    }

    #[test]
    fn footer_roundtrip() {
        let f = Footer {
            n: 1000,
            value_width: 100,
            index_off: 36_000,
            index_len: 512,
            bloom_off: 36_512,
            bloom_len: 1300,
            min_key: 3,
            max_key: 999_999,
            max_seq: 1234,
        };
        let mut buf = Vec::new();
        f.encode_into(&mut buf);
        assert_eq!(buf.len(), FOOTER_LEN);
        assert_eq!(Footer::decode(&buf).unwrap(), f);
    }

    #[test]
    fn footer_rejects_bad_magic() {
        let f = Footer {
            n: 1,
            value_width: 1,
            index_off: 0,
            index_len: 0,
            bloom_off: 0,
            bloom_len: 0,
            min_key: 0,
            max_key: 0,
            max_seq: 0,
        };
        let mut buf = Vec::new();
        f.encode_into(&mut buf);
        buf[FOOTER_LEN - 1] ^= 0xff;
        assert!(Footer::decode(&buf).is_err());
        assert!(Footer::decode(&buf[..10]).is_err());
    }

    #[test]
    fn large_seq_survives_7_byte_encoding() {
        let seq = (1u64 << 55) - 1;
        let e = Entry::put(1, seq, vec![]);
        let mut buf = Vec::new();
        encode_entry(&mut buf, &e.key, &e.value, 4);
        assert_eq!(decode_entry(&buf, 4).unwrap().key.seq, seq);
    }
}
