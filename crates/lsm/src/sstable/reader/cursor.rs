//! `TableIter`: the sequential cursor over one table.

use std::sync::Arc;

use learned_index::SearchBound;

use super::fetch::Span;
use super::TableReader;
use crate::iter::Cursor;
use crate::sstable::format;
use crate::types::InternalKey;
use crate::Result;

/// Sequential cursor over one table, fetching one I/O block's worth of
/// entries at a time (the paper's range-lookup implementation reads one
/// 4096-byte block per step). It holds the bytes as fetched — what `seek`
/// searched, then one chunk per refill — and reads keys and values where
/// they lie; a refill carries the blocks the old span shares with the new
/// one, so one pass asks the cache or the device for each block once.
pub struct TableIter {
    reader: Arc<TableReader>,
    /// Entry under the cursor.
    pos: usize,
    /// The bytes of entries `[lo, hi)`.
    span: Span,
    lo: usize,
    hi: usize,
    /// Where the last seek landed: chunks end every `chunk_entries` from here.
    origin: usize,
    /// Value length of the entry at `pos`, from the header `key` decoded.
    vlen: usize,
    /// Entries fetched per refill.
    chunk_entries: usize,
    /// Whether this cursor's reads may populate the block cache
    /// (`ReadOptions::fill_cache`; compaction inputs always read no-fill).
    fill_cache: bool,
    scratch: Vec<u8>,
}

impl TableIter {
    /// New cursor at the first entry, with an explicit cache fill policy.
    pub fn with_fill(reader: Arc<TableReader>, fill_cache: bool) -> Self {
        let chunk_entries = (4096 / reader.entry_width).max(1);
        Self {
            reader,
            pos: 0,
            span: Span::Buf(Vec::new()),
            lo: 0,
            hi: 0,
            origin: 0,
            vlen: 0,
            chunk_entries,
            fill_cache,
            scratch: Vec::new(),
        }
    }

    /// Park at entry `pos`, holding `span` as entries `[lo, hi)`.
    fn park(&mut self, pos: usize, span: Span, lo: usize, hi: usize) {
        (self.pos, self.origin) = (pos, pos);
        (self.span, self.lo, self.hi) = (span, lo, hi);
    }
}

// The per-entry calls are inlined: `LevelIter` calls them from another
// module, and out of line a scan's `next` measured about 20 % slower. `key`
// is the large one and sat on the inliner's threshold — an unrelated edit
// elsewhere in the crate pushed it out of line (`scan_kops` −9 % on
// `get-hot`) — so it does not leave the decision to a hint.
impl Cursor for TableIter {
    /// One index prediction and one bounded read, which stays held as the
    /// first chunk: reading on from here fetches nothing the search did.
    fn seek(&mut self, key: u64) -> Result<()> {
        let r = &*self.reader;
        if r.n == 0 || key <= r.min_key || key > r.max_key {
            let pos = if key > r.max_key { r.n } else { 0 };
            self.park(pos, Span::Buf(Vec::new()), 0, 0);
            return Ok(());
        }
        let bound = r.index.predict(key);
        let span = r.fetch_blocks(bound, self.fill_cache, None)?;
        let pos = bound.lo + r.lower_bound_in(&span, bound.hi - bound.lo, key);
        self.park(pos, span, bound.lo, bound.hi);
        // The learned bound contains the insertion point for absent keys at
        // its edge in rare rounding cases; walk forward defensively.
        while pos == bound.hi && self.key()?.is_some_and(|k| k.user_key < key) {
            self.pos += 1;
        }
        Ok(())
    }

    fn seek_to_first(&mut self) {
        self.park(0, Span::Buf(Vec::new()), 0, 0);
    }

    #[inline(always)]
    fn key(&mut self) -> Result<Option<InternalKey>> {
        let r = &*self.reader;
        if self.pos >= r.n {
            return Ok(None);
        }
        if self.pos >= self.hi {
            // Refill up to the next chunk edge.
            let chunks = (self.pos - self.origin) / self.chunk_entries + 1;
            let hi = (self.origin + chunks * self.chunk_entries).min(r.n);
            let bound = SearchBound { lo: self.pos, hi };
            self.span = r.fetch_blocks(bound, self.fill_cache, Some((&self.span, self.lo)))?;
            (self.lo, self.hi) = (self.pos, hi);
        }
        let off = (self.pos - self.lo) * r.entry_width;
        let header = self
            .span
            .bytes(off, format::ENTRY_HEADER, &mut self.scratch);
        let (key, vlen) = format::decode_header(header, r.value_width)?;
        self.vlen = vlen;
        Ok(Some(key))
    }

    #[inline]
    fn value(&mut self) -> &[u8] {
        let off = (self.pos - self.lo) * self.reader.entry_width + format::ENTRY_HEADER;
        self.span.bytes(off, self.vlen, &mut self.scratch)
    }

    #[inline]
    fn advance(&mut self) {
        self.pos += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::make_table;
    use super::*;
    use learned_index::IndexKind;

    #[test]
    fn seek_position_matches_partition_point() {
        let keys: Vec<u64> = (0..3_000u64).map(|i| i * 10).collect();
        for kind in [IndexKind::Pgm, IndexKind::FencePointers, IndexKind::Rmi] {
            let (_s, r) = make_table(&keys, kind);
            let mut it = TableIter::with_fill(r, true);
            for probe in [0u64, 5, 10, 29_990, 29_995, 30_000, 123_456] {
                it.seek(probe).unwrap();
                let want = keys.partition_point(|&k| k < probe);
                assert_eq!(it.pos, want, "{kind} probe={probe}");
                let at = it.key().unwrap().map(|k| k.user_key);
                assert_eq!(at, keys.get(want).copied(), "{kind} probe={probe}");
            }
        }
    }

    #[test]
    fn iterator_scans_in_order() {
        let keys: Vec<u64> = (0..500u64).map(|i| i * 3).collect();
        let (_s, r) = make_table(&keys, IndexKind::RadixSpline);
        let mut it = TableIter::with_fill(r, true);
        it.seek_to_first();
        let mut seen = Vec::new();
        while let Some(key) = it.key().unwrap() {
            assert_eq!(it.value(), format!("val-{}", key.user_key).as_bytes());
            seen.push(key.user_key);
            it.advance();
        }
        assert_eq!(seen, keys);
    }

    #[test]
    fn iterator_seek_mid_stream() {
        let keys: Vec<u64> = (0..500u64).map(|i| i * 3).collect();
        let (_s, r) = make_table(&keys, IndexKind::Plex);
        let mut it = TableIter::with_fill(r, true);
        it.seek(100).unwrap(); // between 99 and 102
        let first = it.key().unwrap().unwrap().user_key;
        assert_eq!(first, 102);
        assert_eq!(it.pos, 34);
    }
}
