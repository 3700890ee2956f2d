//! Minimal little-endian binary codec for serializing index models.
//!
//! Models are written into the SSTable's index block during `BuildTable`
//! (Figure 9 measures "write model" time), so the encoding is deliberately
//! simple and position-independent: fixed-width little-endian scalars and
//! length-prefixed arrays. No external serialization dependency is needed.

use std::fmt;

/// Errors when decoding a serialized index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended in the middle of the named field.
    UnexpectedEof(&'static str),
    /// Unknown index-kind tag byte.
    BadTag(u8),
    /// Structurally invalid payload.
    Corrupt(&'static str),
    /// Bytes remained after a complete decode.
    TrailingBytes(usize),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEof(what) => write!(f, "unexpected EOF reading {what}"),
            DecodeError::BadTag(t) => write!(f, "unknown index kind tag {t}"),
            DecodeError::Corrupt(what) => write!(f, "corrupt index payload: {what}"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after index payload"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Append one byte.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Append a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian IEEE-754 `f64`.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Length-prefixed `u64` slice.
pub fn put_u64_slice(out: &mut Vec<u8>, vs: &[u64]) {
    put_u32(out, vs.len() as u32);
    for &v in vs {
        put_u64(out, v);
    }
}

/// Cursor over a byte slice with typed reads.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wrap `buf` starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], DecodeError> {
        if self.pos + n > self.buf.len() {
            return Err(DecodeError::UnexpectedEof(what));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte (`what` names the field in error messages).
    pub fn u8(&mut self, what: &'static str) -> Result<u8, DecodeError> {
        Ok(self.take(1, what)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self, what: &'static str) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self, what: &'static str) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    /// Read a little-endian `f64`.
    pub fn f64(&mut self, what: &'static str) -> Result<f64, DecodeError> {
        Ok(f64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    /// Length-prefixed `u64` vector with a sanity cap against corrupt lengths.
    pub fn u64_vec(&mut self, what: &'static str) -> Result<Vec<u64>, DecodeError> {
        let n = self.u32(what)? as usize;
        if n * 8 > self.buf.len() - self.pos {
            return Err(DecodeError::Corrupt(what));
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.u64(what)?);
        }
        Ok(out)
    }

    /// Error if any bytes remain unread.
    pub fn finish(self) -> Result<(), DecodeError> {
        let rest = self.buf.len() - self.pos;
        if rest > 0 {
            return Err(DecodeError::TrailingBytes(rest));
        }
        Ok(())
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
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
}
