//! SSTable builder — the paper's `BuildTable` interface.
//!
//! Receives key-sorted, deduplicated entries (from a flush or compaction
//! merge), streams the fixed-width data section to storage, then *trains the
//! index over the buffered keys*, serializes it, appends the Bloom filter and
//! footer. Training and model-write durations are recorded separately
//! because Figure 9 breaks compaction time into exactly those stages.

use std::time::Instant;

use learned_index::IndexKind;

use crate::bloom::BloomFilter;
use crate::options::IndexChoice;
use crate::sstable::format::{self, Footer};
use crate::types::{Entry, InternalKey, SeqNo};
use crate::{Error, Result};
use lsm_io::WritableFile;

/// Everything the engine needs to know about a finished table.
#[derive(Debug, Clone)]
pub struct TableMeta {
    /// Storage file name.
    pub name: String,
    /// Entry count.
    pub n: u64,
    /// Smallest / largest user key.
    pub min_key: u64,
    pub max_key: u64,
    /// Largest sequence number contained.
    pub max_seq: SeqNo,
    /// Total file bytes.
    pub file_bytes: u64,
    /// In-memory size of the table's index structure.
    pub index_bytes: usize,
    /// Serialized index payload bytes on disk.
    pub index_payload_bytes: usize,
    /// Bloom filter bytes.
    pub bloom_bytes: usize,
    /// Index kind used.
    pub index_kind: IndexKind,
    /// Nanoseconds spent training the index model.
    pub train_ns: u64,
    /// Nanoseconds spent serializing + appending the model.
    pub model_write_ns: u64,
}

/// Streaming builder for one SSTable.
pub struct TableBuilder {
    file: Box<dyn WritableFile>,
    name: String,
    index: IndexChoice,
    value_width: usize,
    bloom_bits_per_key: usize,
    keys: Vec<u64>,
    buf: Vec<u8>,
    max_seq: SeqNo,
    last_key: Option<u64>,
}

/// Flush the write buffer to the file once it exceeds this size.
const WRITE_CHUNK: usize = 1 << 20;

impl TableBuilder {
    /// Start building `name` on `file`.
    pub fn new(
        file: Box<dyn WritableFile>,
        name: String,
        index: IndexChoice,
        value_width: usize,
        bloom_bits_per_key: usize,
    ) -> Self {
        Self {
            file,
            name,
            index,
            value_width,
            bloom_bits_per_key,
            keys: Vec::new(),
            buf: Vec::with_capacity(WRITE_CHUNK + 4096),
            max_seq: 0,
            last_key: None,
        }
    }

    /// Append one entry. Entries must arrive in strictly increasing user-key
    /// order (the caller deduplicates versions).
    pub fn add(&mut self, e: &Entry) -> Result<()> {
        self.add_parts(&e.key, &e.value)
    }

    /// [`TableBuilder::add`] from a key and a borrowed value, so a merge can
    /// hand over a cursor's bytes without building an [`Entry`].
    pub fn add_parts(&mut self, key: &InternalKey, value: &[u8]) -> Result<()> {
        if let Some(last) = self.last_key {
            if key.user_key <= last {
                return Err(Error::Corruption(format!(
                    "out-of-order key {} after {last}",
                    key.user_key
                )));
            }
        }
        if value.len() > self.value_width {
            return Err(Error::Corruption(format!(
                "value of {} bytes exceeds table slot {}",
                value.len(),
                self.value_width
            )));
        }
        self.last_key = Some(key.user_key);
        self.keys.push(key.user_key);
        self.max_seq = self.max_seq.max(key.seq);
        format::encode_entry(&mut self.buf, key, value, self.value_width);
        if self.buf.len() >= WRITE_CHUNK {
            self.file.append(&self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }

    /// Number of entries added so far.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether nothing has been added.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Estimated file size so far (data section only).
    pub fn data_bytes(&self) -> u64 {
        (self.keys.len() * format::entry_width(self.value_width)) as u64
    }

    /// Train the index, write index + bloom + footer, and return the meta.
    pub fn finish(mut self) -> Result<TableMeta> {
        if !self.buf.is_empty() {
            self.file.append(&self.buf)?;
            self.buf.clear();
        }
        let data_len = self.data_bytes();

        // --- train (Figure 9 "Learn" stage) ---
        let t0 = Instant::now();
        let index = self.index.kind.build(&self.keys, &self.index.config);
        let train_ns = t0.elapsed().as_nanos() as u64;

        // --- serialize + append model (Figure 9 "Write Model" stage) ---
        let t1 = Instant::now();
        let payload = index.encode();
        self.file.append(&payload)?;
        let model_write_ns = t1.elapsed().as_nanos() as u64;

        // --- bloom ---
        let bloom = BloomFilter::build(&self.keys, self.bloom_bits_per_key);
        let mut bloom_buf = Vec::with_capacity(bloom.size_bytes() + 8);
        bloom.encode_into(&mut bloom_buf);
        self.file.append(&bloom_buf)?;

        // --- footer ---
        let footer = Footer {
            n: self.keys.len() as u64,
            value_width: self.value_width as u32,
            index_off: data_len,
            index_len: payload.len() as u64,
            bloom_off: data_len + payload.len() as u64,
            bloom_len: bloom_buf.len() as u64,
            min_key: self.keys.first().copied().unwrap_or(0),
            max_key: self.keys.last().copied().unwrap_or(0),
            max_seq: self.max_seq,
        };
        let mut fbuf = Vec::with_capacity(format::FOOTER_LEN);
        footer.encode_into(&mut fbuf);
        self.file.append(&fbuf)?;
        self.file.sync()?;

        Ok(TableMeta {
            name: self.name,
            n: footer.n,
            min_key: footer.min_key,
            max_key: footer.max_key,
            max_seq: footer.max_seq,
            file_bytes: self.file.written(),
            index_bytes: index.size_bytes(),
            index_payload_bytes: payload.len(),
            bloom_bytes: bloom_buf.len(),
            index_kind: index.kind(),
            train_ns,
            model_write_ns,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::IndexChoice;
    use lsm_io::{MemStorage, Storage};

    fn build_table(keys: &[u64], kind: IndexKind) -> (MemStorage, TableMeta) {
        let storage = MemStorage::new();
        let file = storage.create("000001.sst").unwrap();
        let mut b = TableBuilder::new(file, "000001.sst".into(), IndexChoice::new(kind, 8), 32, 10);
        for (i, &k) in keys.iter().enumerate() {
            b.add(&Entry::put(k, i as u64 + 1, vec![b'x'; 10])).unwrap();
        }
        let meta = b.finish().unwrap();
        (storage, meta)
    }

    #[test]
    fn meta_reflects_contents() {
        let keys: Vec<u64> = (0..1000u64).map(|i| i * 3 + 7).collect();
        let (storage, meta) = build_table(&keys, IndexKind::Pgm);
        assert_eq!(meta.n, 1000);
        assert_eq!(meta.min_key, 7);
        assert_eq!(meta.max_key, 999 * 3 + 7);
        assert_eq!(meta.max_seq, 1000);
        assert_eq!(meta.index_kind, IndexKind::Pgm);
        assert!(meta.train_ns > 0);
        assert_eq!(storage.size_of("000001.sst").unwrap(), meta.file_bytes);
        // data + index + bloom + footer
        let expected_min = 1000 * format::entry_width(32) as u64 + meta.index_payload_bytes as u64;
        assert!(meta.file_bytes > expected_min);
    }

    #[test]
    fn rejects_out_of_order_keys() {
        let storage = MemStorage::new();
        let file = storage.create("t").unwrap();
        let mut b = TableBuilder::new(file, "t".into(), IndexChoice::default(), 16, 10);
        b.add(&Entry::put(5, 1, vec![])).unwrap();
        assert!(b.add(&Entry::put(5, 2, vec![])).is_err(), "duplicate key");
        assert!(b.add(&Entry::put(4, 3, vec![])).is_err(), "descending key");
    }

    #[test]
    fn rejects_oversized_value() {
        let storage = MemStorage::new();
        let file = storage.create("t").unwrap();
        let mut b = TableBuilder::new(file, "t".into(), IndexChoice::default(), 4, 10);
        assert!(b.add(&Entry::put(1, 1, vec![0u8; 5])).is_err());
    }

    #[test]
    fn every_index_kind_builds() {
        let keys: Vec<u64> = (0..500u64).map(|i| i * 11).collect();
        for kind in IndexKind::ALL {
            let (_s, meta) = build_table(&keys, kind);
            assert_eq!(meta.index_kind, kind);
            assert!(meta.index_payload_bytes > 0, "{kind}");
        }
    }

    #[test]
    fn empty_table_finishes() {
        let storage = MemStorage::new();
        let file = storage.create("t").unwrap();
        let b = TableBuilder::new(file, "t".into(), IndexChoice::default(), 16, 10);
        let meta = b.finish().unwrap();
        assert_eq!(meta.n, 0);
    }
}
