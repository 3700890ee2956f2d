//! The workspace's one little-endian byte codec: fixed-width scalars,
//! `u32`-length-prefixed byte strings and arrays, and one bounds-checked
//! [`Reader`] that every binary decoder goes through.
//!
//! Its users:
//!
//! * the learned indexes, whose models are written into the SSTable's
//!   index block during `BuildTable` (Figure 9 measures "write model" time)
//!   and decoded at every table open;
//! * the engine's other on-device formats (`lsm_tree` re-exports this
//!   module as `lsm_tree::codec`): the WAL record and its frame header,
//!   the table footer, the bloom payload and the commit marker;
//! * the server's wire protocol, through that re-export.
//!
//! So every on-device and on-wire length is checked by the same few lines:
//! a read past the end is [`DecodeError::UnexpectedEof`], and a declared
//! element count is refused by [`Reader::count`] unless that many elements
//! of their smallest size fit in the bytes left, before anything is
//! reserved for them.
//!
//! Kept outside it, on purpose:
//!
//! * the SSTable's fixed-width entry slot (`format::encode_entry` /
//!   `decode_header` in `lsm_tree`): it is the paper's position → offset
//!   layout, with a 7-byte sequence number, that the in-segment search
//!   reads on every probe;
//! * the CRC kernel's word loads (`wal::crc32_tables`), which digest data,
//!   not a format;
//! * the WAL's in-place frame header fill (`seal_frame`), which writes the
//!   CRC and length into room reserved in front of a payload already built.
//!
//! `scripts/check-codec.sh` holds this: it fails on any other non-test
//! `from_le_bytes` under `crates/*/src`.

use std::fmt;

/// Errors when decoding a serialized payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended in the middle of the named field.
    UnexpectedEof(&'static str),
    /// Unknown index-kind tag byte.
    BadTag(u8),
    /// Structurally invalid payload, or a declared count that overruns it.
    Corrupt(&'static str),
    /// Bytes remained after a complete decode.
    TrailingBytes(usize),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEof(what) => write!(f, "payload truncated reading {what}"),
            DecodeError::BadTag(t) => write!(f, "unknown kind tag {t}"),
            DecodeError::Corrupt(what) => write!(f, "{what} is malformed or overruns payload"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after payload"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Append one byte.
#[inline]
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Append a little-endian `u16`.
#[inline]
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u32`.
#[inline]
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u64`.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian IEEE-754 `f64`.
#[inline]
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u32`-length-prefixed byte string (what [`Reader::bytes`]
/// reads back). The caller keeps `b` under 4 GiB.
#[inline]
pub fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

/// Length-prefixed `u64` slice.
pub fn put_u64_slice(out: &mut Vec<u8>, vs: &[u64]) {
    put_u32(out, vs.len() as u32);
    for &v in vs {
        put_u64(out, v);
    }
}

/// Cursor over a byte slice with typed, bounds-checked reads. `what`
/// names the field in error messages.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wrap `buf` starting at offset 0.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    #[inline]
    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], DecodeError> {
        if n > self.buf.len() - self.pos {
            return Err(DecodeError::UnexpectedEof(what));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    #[inline]
    fn array<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], DecodeError> {
        Ok(self
            .take(N, what)?
            .try_into()
            .expect("take returned N bytes"))
    }

    /// Read one byte.
    #[inline]
    pub fn u8(&mut self, what: &'static str) -> Result<u8, DecodeError> {
        Ok(self.take(1, what)?[0])
    }

    /// Read a little-endian `u16`.
    #[inline]
    pub fn u16(&mut self, what: &'static str) -> Result<u16, DecodeError> {
        self.array(what).map(u16::from_le_bytes)
    }

    /// Read a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self, what: &'static str) -> Result<u32, DecodeError> {
        self.array(what).map(u32::from_le_bytes)
    }

    /// Read a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self, what: &'static str) -> Result<u64, DecodeError> {
        self.array(what).map(u64::from_le_bytes)
    }

    /// Read a little-endian `f64`.
    #[inline]
    pub fn f64(&mut self, what: &'static str) -> Result<f64, DecodeError> {
        self.array(what).map(f64::from_le_bytes)
    }

    /// A `u32`-length-prefixed byte string ([`put_bytes`]), borrowed from
    /// the buffer.
    #[inline]
    pub fn bytes(&mut self, what: &'static str) -> Result<&'a [u8], DecodeError> {
        let len = self.u32(what)? as usize;
        self.take(len, what)
    }

    /// A declared `u32` element count, refused as [`DecodeError::Corrupt`]
    /// unless the bytes left can hold that many elements of at least
    /// `min_bytes` each — so the caller may reserve `count` slots, and a
    /// corrupt count is a typed error, never a large allocation.
    #[inline]
    pub fn count(&mut self, what: &'static str, min_bytes: usize) -> Result<usize, DecodeError> {
        let count = self.u32(what)? as usize;
        if count.saturating_mul(min_bytes) > self.buf.len() - self.pos {
            return Err(DecodeError::Corrupt(what));
        }
        Ok(count)
    }

    /// Length-prefixed `u64` vector ([`put_u64_slice`]).
    pub fn u64_vec(&mut self, what: &'static str) -> Result<Vec<u64>, DecodeError> {
        let n = self.count(what, 8)?;
        let raw = self.take(n * 8, what)?;
        Ok(raw
            .chunks_exact(8)
            .map(|w| u64::from_le_bytes(w.try_into().expect("8-byte chunk")))
            .collect())
    }

    /// Error if any bytes remain unread.
    #[inline]
    pub fn finish(self) -> Result<(), DecodeError> {
        let rest = self.buf.len() - self.pos;
        if rest > 0 {
            return Err(DecodeError::TrailingBytes(rest));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let mut out = Vec::new();
        put_u8(&mut out, 7);
        put_u32(&mut out, 0xdead_beef);
        put_u64(&mut out, u64::MAX - 3);
        put_f64(&mut out, -1.5);
        let mut r = Reader::new(&out);
        assert_eq!(r.u8("a").unwrap(), 7);
        assert_eq!(r.u32("b").unwrap(), 0xdead_beef);
        assert_eq!(r.u64("c").unwrap(), u64::MAX - 3);
        assert_eq!(r.f64("d").unwrap(), -1.5);
        r.finish().unwrap();
    }

    #[test]
    fn slice_roundtrip() {
        let mut out = Vec::new();
        put_u64_slice(&mut out, &[1, 2, 3]);
        let mut r = Reader::new(&out);
        assert_eq!(r.u64_vec("xs").unwrap(), vec![1, 2, 3]);
        r.finish().unwrap();
    }

    #[test]
    fn eof_reported() {
        let mut r = Reader::new(&[1, 2]);
        assert_eq!(r.u32("field"), Err(DecodeError::UnexpectedEof("field")));
    }

    #[test]
    fn corrupt_length_rejected() {
        let mut out = Vec::new();
        put_u32(&mut out, u32::MAX); // absurd element count
        let mut r = Reader::new(&out);
        assert_eq!(r.u64_vec("xs"), Err(DecodeError::Corrupt("xs")));
    }

    #[test]
    fn trailing_bytes_detected() {
        let r = Reader::new(&[0u8; 3]);
        assert_eq!(r.finish(), Err(DecodeError::TrailingBytes(3)));
    }

    #[test]
    fn u16_and_bytes_roundtrip() {
        let mut out = Vec::new();
        put_u16(&mut out, 0xbeef);
        put_bytes(&mut out, b"abc");
        put_bytes(&mut out, b"");
        let mut r = Reader::new(&out);
        assert_eq!(r.u16("a").unwrap(), 0xbeef);
        assert_eq!(r.bytes("b").unwrap(), b"abc");
        assert_eq!(r.bytes("c").unwrap(), b"");
        r.finish().unwrap();
    }

    /// The one count guard: `u32::MAX` declared elements of 8 bytes in a
    /// 16-byte buffer are refused before the caller could reserve them,
    /// and a count that fits exactly passes.
    #[test]
    fn count_guard_refuses_what_the_bytes_left_cannot_hold() {
        let mut out = Vec::new();
        put_u32(&mut out, u32::MAX);
        out.extend_from_slice(&[0u8; 12]);
        assert_eq!(out.len(), 16);
        assert_eq!(
            Reader::new(&out).count("xs", 8),
            Err(DecodeError::Corrupt("xs"))
        );
        assert_eq!(
            Reader::new(&out).u64_vec("xs"),
            Err(DecodeError::Corrupt("xs"))
        );
        // 12 bytes left: one 8-byte element fits, two do not.
        out[..4].copy_from_slice(&1u32.to_le_bytes());
        assert_eq!(Reader::new(&out).count("xs", 8), Ok(1));
        out[..4].copy_from_slice(&2u32.to_le_bytes());
        assert_eq!(
            Reader::new(&out).count("xs", 8),
            Err(DecodeError::Corrupt("xs"))
        );
        // The product saturates instead of wrapping past the check.
        let huge = 1usize << (usize::BITS - 1);
        assert_eq!(
            Reader::new(&out).count("xs", huge),
            Err(DecodeError::Corrupt("xs"))
        );
    }

    #[test]
    fn bytes_length_past_the_end_is_refused() {
        let mut out = Vec::new();
        put_u32(&mut out, 5);
        out.extend_from_slice(b"abcd");
        let mut r = Reader::new(&out);
        assert_eq!(r.bytes("v"), Err(DecodeError::UnexpectedEof("v")));
    }

    #[test]
    fn trailing_bytes_after_a_complete_read_fail_finish() {
        let mut out = Vec::new();
        put_u64(&mut out, 9);
        put_u8(&mut out, 0);
        let mut r = Reader::new(&out);
        assert_eq!(r.u64("a").unwrap(), 9);
        assert_eq!(r.finish(), Err(DecodeError::TrailingBytes(1)));
    }
}
