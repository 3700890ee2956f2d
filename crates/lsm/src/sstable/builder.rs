//! SSTable builder — the paper's `BuildTable` interface.
//!
//! Receives key-sorted, deduplicated entries (from a flush or compaction
//! merge) and streams the fixed-width data section to storage. Finishing a
//! table is three steps, so a caller can run the middle one elsewhere:
//!
//! 1. `TableBuilder::write_data` appends what is left of the data section;
//! 2. `TableKeys::train` *trains the index over the buffered keys* and
//!    builds the Bloom filter — CPU only, no storage, any thread;
//! 3. `WrittenTable::seal` serializes the index, appends it, the filter
//!    and the footer, and syncs.
//!
//! [`TableBuilder::finish`] runs the three in a row. Training and
//! model-write durations are recorded separately because Figure 9 breaks
//! compaction time into exactly those stages.

use std::time::Instant;

use learned_index::{IndexKind, SegmentIndex};

use crate::bloom::BloomFilter;
use crate::options::IndexChoice;
use crate::sstable::format::{self, Footer};
use crate::types::{Entry, EntryKind, InternalKey, SeqNo};
use crate::{Error, Result};
use lsm_io::WritableFile;

/// Everything the engine needs to know about a finished table. A table
/// recovered at open reads the same from its footer and its loaded index
/// and filter, except the timings (0) and the tombstone count (unknown).
#[derive(Debug, Clone, PartialEq, Eq)]
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
    /// In-memory size of the table's Bloom filter.
    pub bloom_bytes: usize,
    /// Index kind used.
    pub index_kind: IndexKind,
    /// Nanoseconds spent training the index model, on whichever thread
    /// trained it.
    pub train_ns: u64,
    /// Of `train_ns`, what the writing thread spent on it: all of it for a
    /// table trained inline, at most its wait at the join for one trained
    /// beside the next table's merge.
    pub train_wait_ns: u64,
    /// Nanoseconds spent serializing + appending the model.
    pub model_write_ns: u64,
    /// Tombstones the table holds: counted by the build, `None` for a
    /// table recovered at open (the file does not record it).
    pub tombstones: Option<u64>,
}

/// Streaming builder for one SSTable.
pub struct TableBuilder {
    /// `None` until the caller attaches the file (see
    /// [`TableBuilder::deferred`]).
    file: Option<Box<dyn WritableFile>>,
    name: String,
    index: IndexChoice,
    value_width: usize,
    bloom_bits_per_key: usize,
    keys: Vec<u64>,
    buf: Vec<u8>,
    max_seq: SeqNo,
    tombstones: u64,
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
        let mut builder = Self::deferred(name, index, value_width, bloom_bits_per_key);
        builder.file = Some(file);
        builder
    }

    /// A builder whose file does not exist yet: entries buffer until
    /// [`TableBuilder::needs_file`], and [`TableBuilder::attach`] hands the
    /// file over before anything is appended to it.
    pub(crate) fn deferred(
        name: String,
        index: IndexChoice,
        value_width: usize,
        bloom_bits_per_key: usize,
    ) -> Self {
        Self {
            file: None,
            name,
            index,
            value_width,
            bloom_bits_per_key,
            keys: Vec::new(),
            buf: Vec::with_capacity(WRITE_CHUNK + 4096),
            max_seq: 0,
            tombstones: 0,
            last_key: None,
        }
    }

    /// The table's file name.
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// Whether the builder has no file yet and a full chunk waits for one.
    pub(crate) fn needs_file(&self) -> bool {
        self.file.is_none() && self.buf.len() >= WRITE_CHUNK
    }

    /// Whether the file is attached.
    pub(crate) fn has_file(&self) -> bool {
        self.file.is_some()
    }

    /// Hand over the file of a [`TableBuilder::deferred`] builder; a full
    /// chunk waiting for it is appended now.
    pub(crate) fn attach(&mut self, file: Box<dyn WritableFile>) -> Result<()> {
        self.file = Some(file);
        self.append_chunk()
    }

    /// Append the buffer once it holds a chunk and the file exists.
    fn append_chunk(&mut self) -> Result<()> {
        if let Some(file) = self.file.as_mut().filter(|_| self.buf.len() >= WRITE_CHUNK) {
            file.append(&self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }

    /// Append one entry. Entries must arrive in strictly increasing user-key
    /// order (the caller deduplicates versions).
    pub fn add(&mut self, e: &Entry) -> Result<()> {
        self.add_parts(&e.key, &e.value)
    }

    /// [`TableBuilder::add`] from a key and a borrowed value, so a merge can
    /// hand over a cursor's bytes without building an [`Entry`].
    pub fn add_parts(&mut self, key: &InternalKey, value: &[u8]) -> Result<()> {
        if value.len() > self.value_width {
            return Err(Error::Corruption(format!(
                "value of {} bytes exceeds table slot {}",
                value.len(),
                self.value_width
            )));
        }
        self.note(key)?;
        format::encode_entry(&mut self.buf, key, value, self.value_width);
        self.append_chunk()
    }

    /// [`TableBuilder::add_parts`] from the entry's whole on-disk slot, as a
    /// table of this builder's value width holds it: the bytes are copied
    /// as they are, not decoded and encoded again. `key` is the slot's own
    /// header, decoded — the order check and the key column need it.
    pub(crate) fn add_slot(&mut self, key: &InternalKey, slot: &[u8]) -> Result<()> {
        let width = format::entry_width(self.value_width);
        if slot.len() != width {
            let len = slot.len();
            return Err(Error::Corruption(format!(
                "slot of {len} bytes, table entries are {width}"
            )));
        }
        self.note(key)?;
        self.buf.extend_from_slice(slot);
        self.append_chunk()
    }

    /// Check that `key` follows the last key, and count it.
    fn note(&mut self, key: &InternalKey) -> Result<()> {
        if let Some(last) = self.last_key {
            if key.user_key <= last {
                return Err(Error::Corruption(format!(
                    "out-of-order key {} after {last}",
                    key.user_key
                )));
            }
        }
        self.last_key = Some(key.user_key);
        self.keys.push(key.user_key);
        self.max_seq = self.max_seq.max(key.seq);
        self.tombstones += u64::from(key.kind == EntryKind::Delete);
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
    pub fn finish(self) -> Result<TableMeta> {
        let (table, keys) = self.write_data()?;
        table.seal(keys.train())
    }

    /// Step 1: append the rest of the data section. What comes back is the
    /// written table, which [`WrittenTable::seal`] completes, and its keys,
    /// which [`TableKeys::train`] turns into what the seal appends.
    pub(crate) fn write_data(self) -> Result<(WrittenTable, TableKeys)> {
        let data_len = self.data_bytes();
        let mut file = self
            .file
            .expect("a table's file exists before its data is written");
        if !self.buf.is_empty() {
            file.append(&self.buf)?;
        }
        // The seal fills in where the index and the filter land.
        let footer = Footer {
            n: self.keys.len() as u64,
            value_width: self.value_width as u32,
            index_off: data_len,
            index_len: 0,
            bloom_off: 0,
            bloom_len: 0,
            min_key: self.keys.first().copied().unwrap_or(0),
            max_key: self.keys.last().copied().unwrap_or(0),
            max_seq: self.max_seq,
        };
        let table = WrittenTable {
            file,
            name: self.name,
            footer,
            tombstones: self.tombstones,
        };
        let keys = TableKeys {
            keys: self.keys,
            index: self.index,
            bloom_bits_per_key: self.bloom_bits_per_key,
        };
        Ok((table, keys))
    }
}

/// The key column of a table whose data is written: what its index and
/// filter are built over.
pub(crate) struct TableKeys {
    keys: Vec<u64>,
    index: IndexChoice,
    bloom_bits_per_key: usize,
}

impl TableKeys {
    /// Number of keys.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Step 2: train the index (Figure 9's "Learn" stage) and build the
    /// filter. Touches no storage, so it may run on any thread.
    pub fn train(self) -> TrainedTail {
        let t0 = Instant::now();
        let index = self.index.kind.build(&self.keys, &self.index.config);
        let train_ns = t0.elapsed().as_nanos() as u64;
        let bloom = BloomFilter::build(&self.keys, self.bloom_bits_per_key);
        TrainedTail {
            index,
            bloom,
            train_ns,
        }
    }
}

/// A table's trained index and built filter, not yet on storage.
pub(crate) struct TrainedTail {
    index: Box<dyn SegmentIndex>,
    bloom: BloomFilter,
    train_ns: u64,
}

/// A table whose data section is on storage; its seal appends the rest.
pub(crate) struct WrittenTable {
    file: Box<dyn WritableFile>,
    name: String,
    footer: Footer,
    tombstones: u64,
}

impl WrittenTable {
    /// Step 3: serialize and append the model (Figure 9's "Write Model"
    /// stage), then the filter and footer, and sync.
    pub fn seal(mut self, tail: TrainedTail) -> Result<TableMeta> {
        let t1 = Instant::now();
        let payload = tail.index.encode();
        self.file.append(&payload)?;
        let model_write_ns = t1.elapsed().as_nanos() as u64;

        let mut bloom_buf = Vec::with_capacity(tail.bloom.size_bytes() + 8);
        tail.bloom.encode_into(&mut bloom_buf);
        self.file.append(&bloom_buf)?;

        let footer = Footer {
            index_len: payload.len() as u64,
            bloom_off: self.footer.index_off + payload.len() as u64,
            bloom_len: bloom_buf.len() as u64,
            ..self.footer
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
            index_bytes: tail.index.size_bytes(),
            bloom_bytes: tail.bloom.size_bytes(),
            index_kind: tail.index.kind(),
            train_ns: tail.train_ns,
            train_wait_ns: tail.train_ns,
            model_write_ns,
            tombstones: Some(self.tombstones),
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
        assert_eq!(meta.tombstones, Some(0));
        // data + index + bloom + footer
        let expected_min = 1000 * format::entry_width(32) as u64 + format::FOOTER_LEN as u64;
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
            assert!(meta.index_bytes > 0, "{kind}");
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
