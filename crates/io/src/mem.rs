//! The in-memory store, with or without a cost model.
//!
//! [`MemStorage::new`] is the plain store of the unit tests: it counts the
//! bytes and calls of every read and append and charges no blocks and no
//! time. [`MemStorage::modeled`] is the same store with a [`CostModel`]:
//! every read and append is charged in whole blocks against the store's
//! [`IoStats`] virtual clock, so an experiment's "I/O time" is a pure
//! function of its access pattern, and a `sync` sleeps the model's
//! `sync_ns`. [`crate::SimStorage`] is the modeled store under its old name.

use std::collections::HashMap;
use std::io;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::{
    scatter, short_read, span_len, CostModel, IoStats, RandomAccessFile, Storage, WritableFile,
};

type FileMap = HashMap<String, Arc<RwLock<Vec<u8>>>>;

/// An in-memory named-file store.
#[derive(Debug, Default)]
pub struct MemStorage {
    files: RwLock<FileMap>,
    stats: IoStats,
    /// What each access costs; `None` charges bytes and calls only.
    model: Option<CostModel>,
}

impl MemStorage {
    /// New empty store that charges no blocks and no time.
    pub fn new() -> Self {
        Self::default()
    }

    /// New empty store that charges every access by `model`.
    pub fn modeled(model: CostModel) -> Self {
        Self {
            model: Some(model),
            ..Self::default()
        }
    }

    fn get(&self, name: &str) -> io::Result<Arc<RwLock<Vec<u8>>>> {
        let file = self.files.read().get(name).cloned();
        file.ok_or_else(|| not_found(name))
    }

    fn meter(&self) -> Meter {
        Meter {
            stats: self.stats.clone(),
            model: self.model,
        }
    }

    /// A deep copy of every file's current contents — a point-in-time disk
    /// image, under the same cost model. The crash-point harness
    /// ([`crate::CrashStorage`]) hands these out so a test can "reopen the
    /// machine" from the exact bytes a halted world left behind, as many
    /// times as it likes.
    pub fn deep_clone(&self) -> MemStorage {
        let files = self.files.read();
        let copy = |(name, data): (&String, &Arc<RwLock<Vec<u8>>>)| {
            (name.clone(), Arc::new(RwLock::new(data.read().clone())))
        };
        MemStorage {
            files: RwLock::new(files.iter().map(copy).collect()),
            stats: IoStats::default(),
            model: self.model,
        }
    }
}

fn not_found(name: &str) -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, format!("no such file: {name}"))
}

/// Where a file's traffic is charged: the store's counters and model.
struct Meter {
    stats: IoStats,
    model: Option<CostModel>,
}

impl Meter {
    fn read(&self, offset: u64, len: usize) {
        let (blocks, ns) = self.model.map_or((0, 0), |m| {
            (m.blocks_spanned(offset, len), m.read_cost_ns(offset, len))
        });
        self.stats.record_read(len as u64, blocks, ns);
    }

    fn write(&self, offset: u64, len: usize) {
        let (blocks, ns) = self.model.map_or((0, 0), |m| {
            (m.blocks_spanned(offset, len), m.write_cost_ns(offset, len))
        });
        self.stats.record_write(len as u64, blocks, ns);
    }
}

/// Read side of an in-memory file.
struct MemFile {
    data: Arc<RwLock<Vec<u8>>>,
    meter: Meter,
}

impl RandomAccessFile for MemFile {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        let data = self.data.read();
        let rest = data.get(offset as usize..).unwrap_or_default();
        let n = buf.len().min(rest.len());
        buf[..n].copy_from_slice(&rest[..n]);
        self.meter.read(offset, n);
        Ok(n)
    }

    fn len(&self) -> u64 {
        self.data.read().len() as u64
    }

    fn read_exact_vectored_at(&self, offset: u64, bufs: &mut [&mut [u8]]) -> io::Result<()> {
        let data = self.data.read();
        let wanted = span_len(bufs);
        let rest = data.get(offset as usize..).unwrap_or_default();
        if rest.len() < wanted {
            return Err(short_read(offset, wanted, rest.len()));
        }
        scatter(rest, bufs);
        self.meter.read(offset, wanted);
        Ok(())
    }
}

/// Append side of an in-memory file.
struct MemWriter {
    data: Arc<RwLock<Vec<u8>>>,
    meter: Meter,
    written: u64,
}

impl WritableFile for MemWriter {
    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        let mut buf = self.data.write();
        // Reserve with 50% headroom so the growth memcpy happens during the
        // large data-section appends, not during a later tiny append (which
        // would attribute the realloc cost to whatever small write followed —
        // e.g. an index model — and distort stage timings).
        let need = buf.len() + data.len();
        if buf.capacity() < need {
            buf.reserve(data.len() + need / 2);
        }
        buf.extend_from_slice(data);
        drop(buf);
        self.meter.write(self.written, data.len());
        self.written += data.len() as u64;
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        let sync_ns = self.meter.model.map_or(0, |m| m.sync_ns);
        if sync_ns > 0 {
            // Realized latency, not just a counted one: block the caller
            // like a real FLUSH would, so commit-queue dynamics (group
            // fusion behind a syncing leader) are physically reproduced.
            // See `CostModel::sync_ns`.
            self.meter.stats.record_sync(sync_ns);
            std::thread::sleep(std::time::Duration::from_nanos(sync_ns));
        }
        Ok(())
    }

    fn written(&self) -> u64 {
        self.written
    }
}

impl Storage for MemStorage {
    fn open_read(&self, name: &str) -> io::Result<Arc<dyn RandomAccessFile>> {
        Ok(Arc::new(MemFile {
            data: self.get(name)?,
            meter: self.meter(),
        }))
    }

    fn create(&self, name: &str) -> io::Result<Box<dyn WritableFile>> {
        let data = Arc::new(RwLock::new(Vec::new()));
        self.files
            .write()
            .insert(name.to_string(), Arc::clone(&data));
        Ok(Box::new(MemWriter {
            data,
            meter: self.meter(),
            written: 0,
        }))
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        let removed = self.files.write().remove(name);
        removed.map(drop).ok_or_else(|| not_found(name))
    }

    fn exists(&self, name: &str) -> bool {
        self.files.read().contains_key(name)
    }

    fn list(&self) -> io::Result<Vec<String>> {
        Ok(self.files.read().keys().cloned().collect())
    }

    fn size_of(&self, name: &str) -> io::Result<u64> {
        Ok(self.get(name)?.read().len() as u64)
    }

    fn stats(&self) -> &IoStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_truncates() {
        let s = MemStorage::new();
        s.create("f").unwrap().append(b"aaaa").unwrap();
        let w = s.create("f").unwrap();
        assert_eq!(w.written(), 0);
        assert_eq!(s.size_of("f").unwrap(), 0);
    }

    #[test]
    fn reader_sees_writes_through_shared_buffer() {
        let s = MemStorage::new();
        let mut w = s.create("f").unwrap();
        w.append(b"abc").unwrap();
        let r = s.open_read("f").unwrap();
        w.append(b"def").unwrap();
        assert_eq!(r.len(), 6);
        let mut buf = [0u8; 6];
        r.read_exact_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"abcdef");
    }

    #[test]
    fn bytes_counted_in_stats() {
        let s = MemStorage::new();
        s.create("f").unwrap().append(&[0u8; 100]).unwrap();
        let r = s.open_read("f").unwrap();
        let mut buf = [0u8; 40];
        r.read_exact_at(0, &mut buf).unwrap();
        let snap = s.stats().snapshot();
        assert_eq!(snap.write_bytes, 100);
        assert_eq!(snap.read_bytes, 40);
    }
}
