//! Where device bytes arrive: the span a lookup or a cursor searches, and the
//! reads that fill it.

use std::sync::Arc;

use learned_index::SearchBound;

use super::TableReader;
use crate::cache::BlockKey;
use crate::Result;

/// Cache block granularity (matches the device model's 4 KiB blocks).
pub(super) const CACHE_BLOCK: u64 = 4096;

/// The bytes of a run of fixed-width entries, as fetched.
pub(super) enum Span {
    /// One positional read into one buffer (no cache attached).
    Buf(Vec<u8>),
    /// Consecutive cached blocks, borrowed; the run starts `skip` bytes into
    /// the first. Every block but the file's last is `CACHE_BLOCK` long.
    Blocks {
        blocks: Vec<Arc<Vec<u8>>>,
        skip: usize,
    },
}

impl Span {
    /// `len` bytes at offset `off` of the run: borrowed in place, or — only
    /// when they straddle a block edge — stitched into `scratch`.
    #[inline]
    pub(super) fn bytes<'a>(
        &'a self,
        off: usize,
        len: usize,
        scratch: &'a mut Vec<u8>,
    ) -> &'a [u8] {
        match self {
            Span::Buf(buf) => &buf[off..off + len],
            Span::Blocks { blocks, skip } => {
                let at = skip + off;
                let (mut b, mut o) = (at / CACHE_BLOCK as usize, at % CACHE_BLOCK as usize);
                if o + len <= blocks[b].len() {
                    return &blocks[b][o..o + len];
                }
                scratch.clear();
                while scratch.len() < len {
                    let take = (len - scratch.len()).min(blocks[b].len() - o);
                    scratch.extend_from_slice(&blocks[b][o..o + take]);
                    (b, o) = (b + 1, 0);
                }
                scratch
            }
        }
    }

    /// Block `b` of the file, if this span — whose run starts at file offset
    /// `at` — holds it.
    fn block(&self, at: u64, b: u64) -> Option<&Arc<Vec<u8>>> {
        match self {
            Span::Buf(_) => None,
            Span::Blocks { blocks, .. } => blocks.get(b.checked_sub(at / CACHE_BLOCK)? as usize),
        }
    }
}

impl TableReader {
    /// Fetch entries `[bound.lo, bound.hi)`: one positional read when no
    /// cache is attached, otherwise the 4 KiB blocks covering them, each
    /// from the cache or, on a miss, the device. A no-fill fetch is served
    /// from resident blocks but never inserts, so scans and compactions
    /// cannot evict the point-lookup working set.
    pub(super) fn fetch(&self, bound: SearchBound, fill_cache: bool) -> Result<Span> {
        if self.cache.is_some() {
            return self.fetch_blocks(bound, fill_cache, None);
        }
        let mut buf = vec![0u8; (bound.hi - bound.lo) * self.entry_width];
        self.file
            .read_exact_at((bound.lo * self.entry_width) as u64, &mut buf)?;
        Ok(Span::Buf(buf))
    }

    /// The 4 KiB blocks covering entries `[bound.lo, bound.hi)`, in order.
    /// A block that `held` — a cursor's previous span and the entry its run
    /// starts at — already has is taken from there: nobody is asked for it
    /// again. Without a cache the blocks still missing are read whole and
    /// aligned, in one call.
    pub(super) fn fetch_blocks(
        &self,
        bound: SearchBound,
        fill_cache: bool,
        held: Option<(&Span, usize)>,
    ) -> Result<Span> {
        let off = (bound.lo * self.entry_width) as u64;
        let len = ((bound.hi - bound.lo) * self.entry_width) as u64;
        if len == 0 {
            return Ok(Span::Buf(Vec::new()));
        }
        let first = off / CACHE_BLOCK;
        let last = (off + len - 1) / CACHE_BLOCK;
        let mut blocks = Vec::with_capacity((last - first + 1) as usize);
        for b in first..=last {
            let held = held.and_then(|(span, lo)| span.block((lo * self.entry_width) as u64, b));
            if let Some(block) = held {
                blocks.push(Arc::clone(block));
                continue;
            }
            let Some(cache) = &self.cache else {
                let rest = self.read_blocks(b, last)?;
                if b == last {
                    blocks.push(Arc::new(rest));
                } else {
                    let chop = rest.chunks(CACHE_BLOCK as usize);
                    blocks.extend(chop.map(|block| Arc::new(block.to_vec())));
                }
                break;
            };
            let key = BlockKey {
                table_id: self.table_id,
                block_no: b,
            };
            blocks.push(match cache.get(key) {
                Some(block) => block,
                None => {
                    let block = Arc::new(self.read_blocks(b, b)?);
                    if fill_cache {
                        cache.insert(key, Arc::clone(&block));
                    }
                    block
                }
            });
        }
        Ok(Span::Blocks {
            blocks,
            skip: (off - first * CACHE_BLOCK) as usize,
        })
    }

    /// Blocks `first..=last` of the file (its last block is short), read
    /// from the device in one call.
    fn read_blocks(&self, first: u64, last: u64) -> Result<Vec<u8>> {
        let start = first * CACHE_BLOCK;
        let end = ((last + 1) * CACHE_BLOCK).min(self.file.len());
        let mut buf = vec![0u8; end.saturating_sub(start) as usize];
        self.file.read_exact_at(start, &mut buf)?;
        Ok(buf)
    }

    /// All user keys, read sequentially (what a level's model is trained
    /// over). A one-shot full-table sweep: it never fills the block cache —
    /// training a model must not evict the read working set.
    pub fn read_all_keys(&self) -> Result<Vec<u64>> {
        let mut keys = Vec::with_capacity(self.n);
        const CHUNK_ENTRIES: usize = 4096;
        let mut pos = 0usize;
        while pos < self.n {
            let hi = (pos + CHUNK_ENTRIES).min(self.n);
            let span = self.fetch(SearchBound { lo: pos, hi }, false)?;
            let mut scratch = Vec::new();
            keys.extend((0..hi - pos).map(|i| self.span_key(&span, i, &mut scratch)));
            pos = hi;
        }
        Ok(keys)
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::make_table;
    use learned_index::IndexKind;

    #[test]
    fn read_all_keys_roundtrip() {
        let keys: Vec<u64> = (0..5_000u64).map(|i| i * 13 + 5).collect();
        let (_s, r) = make_table(&keys, IndexKind::Pgm);
        assert_eq!(r.read_all_keys().unwrap(), keys);
    }
}
