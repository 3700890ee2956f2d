//! The simulated block device under its old name.
//!
//! A [`SimStorage`] is a [`MemStorage::modeled`] store: in-memory contents
//! whose every read and append is charged in whole blocks by a
//! [`CostModel`]. It stays a type of its own only because the benchmark
//! package names it (`Arc<SimStorage>`, `SimStorage::new`); new code can
//! hold the modeled `MemStorage` directly.

use std::io;
use std::sync::Arc;

use crate::{CostModel, IoStats, MemStorage, RandomAccessFile, Storage, WritableFile};

/// In-memory storage with block-granular simulated I/O costs.
#[derive(Debug)]
pub struct SimStorage(MemStorage);

impl SimStorage {
    /// New empty simulated device with the given cost model.
    pub fn new(model: CostModel) -> Self {
        Self(MemStorage::modeled(model))
    }
}

impl Default for SimStorage {
    fn default() -> Self {
        Self::new(CostModel::default())
    }
}

impl Storage for SimStorage {
    fn open_read(&self, name: &str) -> io::Result<Arc<dyn RandomAccessFile>> {
        self.0.open_read(name)
    }

    fn create(&self, name: &str) -> io::Result<Box<dyn WritableFile>> {
        self.0.create(name)
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        self.0.remove(name)
    }

    fn sync_file(&self, name: &str) -> io::Result<()> {
        self.0.sync_file(name)
    }

    fn exists(&self, name: &str) -> bool {
        self.0.exists(name)
    }

    fn list(&self) -> io::Result<Vec<String>> {
        self.0.list()
    }

    fn size_of(&self, name: &str) -> io::Result<u64> {
        self.0.size_of(name)
    }

    fn stats(&self) -> &IoStats {
        self.0.stats()
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
