//! Simulated block device: in-memory contents plus a deterministic cost model.
//!
//! This is the device the benchmark harness runs against. Reads and writes
//! behave exactly like [`crate::MemStorage`] but every call is charged in
//! whole blocks against the storage's [`IoStats`] virtual clock, so an
//! experiment's "I/O time" is a pure function of its access pattern.

use std::io;
use std::sync::Arc;

use crate::mem::{MemFile, MemStorage, MemWriter};
use crate::{span_len, CostModel, IoStats, RandomAccessFile, Storage, WritableFile};

/// In-memory storage with block-granular simulated I/O costs.
#[derive(Debug, Default)]
pub struct SimStorage {
    mem: MemStorage,
    model: CostModel,
}

impl SimStorage {
    /// New empty simulated device with the given cost model.
    pub fn new(model: CostModel) -> Self {
        Self {
            mem: MemStorage::new(),
            model,
        }
    }

    /// The cost model in effect.
    pub fn model(&self) -> &CostModel {
        &self.model
    }
}

struct SimFile {
    inner: MemFile,
    model: CostModel,
    stats: IoStats,
}

impl RandomAccessFile for SimFile {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        // Bypass MemFile's own stats (constructed with a detached sink); we
        // charge block-granular costs here instead.
        let n = self.inner.read_at(offset, buf)?;
        let blocks = self.model.blocks_spanned(offset, n);
        let ns = self.model.read_cost_ns(offset, n);
        self.stats.record_read(n as u64, blocks, ns);
        Ok(n)
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn read_exact_vectored_at(&self, offset: u64, bufs: &mut [&mut [u8]]) -> io::Result<()> {
        self.inner.read_exact_vectored_at(offset, bufs)?;
        let n = span_len(bufs);
        let blocks = self.model.blocks_spanned(offset, n);
        let ns = self.model.read_cost_ns(offset, n);
        self.stats.record_read(n as u64, blocks, ns);
        Ok(())
    }
}

struct SimWriter {
    inner: MemWriter,
    model: CostModel,
    stats: IoStats,
}

impl WritableFile for SimWriter {
    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        let offset = self.inner.written();
        self.inner.append(data)?;
        let blocks = self.model.blocks_spanned(offset, data.len());
        let ns = self.model.write_cost_ns(offset, data.len());
        self.stats.record_write(data.len() as u64, blocks, ns);
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        self.inner.sync()?;
        if self.model.sync_ns > 0 {
            // Realized latency, not just a counted one: block the caller
            // like a real FLUSH would, so commit-queue dynamics (group
            // fusion behind a syncing leader) are physically reproduced.
            // See `CostModel::sync_ns`.
            self.stats.record_sync(self.model.sync_ns);
            std::thread::sleep(std::time::Duration::from_nanos(self.model.sync_ns));
        }
        Ok(())
    }

    fn written(&self) -> u64 {
        self.inner.written()
    }
}

impl Storage for SimStorage {
    fn open_read(&self, name: &str) -> io::Result<Arc<dyn RandomAccessFile>> {
        let data = self.mem.get(name).ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, format!("no such file: {name}"))
        })?;
        Ok(Arc::new(SimFile {
            inner: MemFile {
                data,
                stats: IoStats::new(),
            },
            model: self.model,
            stats: self.mem.stats().clone(),
        }))
    }

    fn create(&self, name: &str) -> io::Result<Box<dyn WritableFile>> {
        let data = self.mem.insert_empty(name);
        Ok(Box::new(SimWriter {
            inner: MemWriter {
                data,
                stats: IoStats::new(),
                written: 0,
            },
            model: self.model,
            stats: self.mem.stats().clone(),
        }))
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        self.mem.remove(name)
    }

    fn exists(&self, name: &str) -> bool {
        self.mem.exists(name)
    }

    fn list(&self) -> io::Result<Vec<String>> {
        self.mem.list()
    }

    fn size_of(&self, name: &str) -> io::Result<u64> {
        self.mem.size_of(name)
    }

    fn stats(&self) -> &IoStats {
        self.mem.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_charges_block_costs() {
        let s = SimStorage::new(CostModel::default());
        let mut w = s.create("f").unwrap();
        w.append(&vec![7u8; 3 * 4096]).unwrap();
        drop(w);
        s.stats().reset();

        let r = s.open_read("f").unwrap();
        let mut buf = [0u8; 100];
        r.read_exact_at(0, &mut buf).unwrap();
        let snap = s.stats().snapshot();
        assert_eq!(snap.read_calls, 1);
        assert_eq!(snap.read_blocks, 1);
        assert_eq!(snap.sim_read_ns, CostModel::default().read_cost_ns(0, 100));

        // A read crossing a block boundary costs two blocks.
        s.stats().reset();
        r.read_exact_at(4090, &mut buf).unwrap();
        assert_eq!(s.stats().snapshot().read_blocks, 2);
    }

    #[test]
    fn sequential_appends_accumulate_write_time() {
        let s = SimStorage::new(CostModel::default());
        let mut w = s.create("f").unwrap();
        for _ in 0..10 {
            w.append(&[0u8; 1000]).unwrap();
        }
        let snap = s.stats().snapshot();
        assert_eq!(snap.write_calls, 10);
        assert_eq!(snap.write_bytes, 10_000);
        assert!(snap.sim_write_ns > 0);
    }

    #[test]
    fn free_model_charges_nothing_but_counts_blocks() {
        let s = SimStorage::new(CostModel::free());
        let mut w = s.create("f").unwrap();
        w.append(&[1u8; 8192]).unwrap();
        drop(w);
        let r = s.open_read("f").unwrap();
        let mut buf = [0u8; 8192];
        r.read_exact_at(0, &mut buf).unwrap();
        let snap = s.stats().snapshot();
        assert_eq!(snap.sim_total_ns(), 0);
        assert_eq!(snap.read_blocks, 2);
    }
}
