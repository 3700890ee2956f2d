//! A prefixed view of another storage: the "subdirectory" primitive.
//!
//! [`Storage`] is a flat namespace, so multi-instance deployments (one
//! engine per shard on one device) carve it into per-instance directories
//! by name prefix: a [`PrefixedStorage`] with prefix `shard-3/` maps every
//! file name `f` it is asked for onto `shard-3/f` in the underlying store
//! and shows only that subtree in [`Storage::list`]. Each shard therefore
//! keeps a fully independent `MANIFEST` + WAL set — crash recovery of one
//! shard never reads another's files — while all shards share one device
//! and one [`IoStats`] sink.

use std::io;
use std::sync::Arc;

use crate::{IoStats, RandomAccessFile, Storage, WritableFile};

/// A view of `inner` restricted to names under `prefix`.
pub struct PrefixedStorage {
    inner: Arc<dyn Storage>,
    prefix: String,
}

impl PrefixedStorage {
    /// View of `inner` under `prefix` (conventionally ending in `/`).
    pub fn new(inner: Arc<dyn Storage>, prefix: impl Into<String>) -> Self {
        Self {
            inner,
            prefix: prefix.into(),
        }
    }

    /// The prefix this view prepends.
    pub fn prefix(&self) -> &str {
        &self.prefix
    }

    fn full(&self, name: &str) -> String {
        format!("{}{name}", self.prefix)
    }
}

impl Storage for PrefixedStorage {
    fn open_read(&self, name: &str) -> io::Result<Arc<dyn RandomAccessFile>> {
        self.inner.open_read(&self.full(name))
    }

    fn create(&self, name: &str) -> io::Result<Box<dyn WritableFile>> {
        self.inner.create(&self.full(name))
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        self.inner.remove(&self.full(name))
    }

    fn sync_file(&self, name: &str) -> io::Result<()> {
        self.inner.sync_file(&self.full(name))
    }

    fn exists(&self, name: &str) -> bool {
        self.inner.exists(&self.full(name))
    }

    fn list(&self) -> io::Result<Vec<String>> {
        Ok(self
            .inner
            .list()?
            .into_iter()
            .filter_map(|n| n.strip_prefix(&self.prefix).map(str::to_string))
            .collect())
    }

    fn size_of(&self, name: &str) -> io::Result<u64> {
        self.inner.size_of(&self.full(name))
    }

    fn stats(&self) -> &IoStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemStorage;

    #[test]
    fn views_are_disjoint_namespaces() {
        let base: Arc<dyn Storage> = Arc::new(MemStorage::new());
        let a = PrefixedStorage::new(Arc::clone(&base), "a/");
        let b = PrefixedStorage::new(Arc::clone(&base), "b/");
        a.create("f").unwrap().append(b"from-a").unwrap();
        b.create("f").unwrap().append(b"from-b!").unwrap();

        assert_eq!(a.size_of("f").unwrap(), 6);
        assert_eq!(b.size_of("f").unwrap(), 7);
        assert_eq!(a.list().unwrap(), vec!["f".to_string()]);
        assert_eq!(b.list().unwrap(), vec!["f".to_string()]);
        // The underlying store sees both, under their full names.
        let mut all = base.list().unwrap();
        all.sort();
        assert_eq!(all, vec!["a/f".to_string(), "b/f".to_string()]);

        a.remove("f").unwrap();
        assert!(!a.exists("f"));
        assert!(b.exists("f"), "removing a/f must not touch b/f");
    }

    #[test]
    fn read_write_roundtrip_through_view() {
        let base: Arc<dyn Storage> = Arc::new(MemStorage::new());
        let v = PrefixedStorage::new(Arc::clone(&base), "shard-0/");
        v.create("wal").unwrap().append(b"payload").unwrap();
        let r = v.open_read("wal").unwrap();
        let mut buf = [0u8; 7];
        r.read_exact_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"payload");
        assert_eq!(v.prefix(), "shard-0/");
        assert!(v.open_read("missing").is_err());
    }
}
