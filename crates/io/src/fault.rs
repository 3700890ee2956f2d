//! Fault-injection storage wrapper for failure testing.
//!
//! Wraps any [`Storage`] and fails I/O operations on command: after a
//! countdown of operations, or on every operation matching a name substring.
//! Used by the engine's failure-injection tests to check that flushes and
//! compactions fail *cleanly* (no torn versions, reads keep working, a retry
//! succeeds once the fault clears).

use std::io;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::{IoStats, RandomAccessFile, Storage, WritableFile};

/// Shared fault control handle.
#[derive(Debug)]
pub struct FaultControl {
    /// Remaining successful *write* operations before failures begin
    /// (negative = unlimited).
    writes_until_failure: AtomicI64,
    /// Fail every operation touching a file whose name contains this.
    poisoned_substring: RwLock<Option<String>>,
    /// Master switch.
    armed: AtomicBool,
}

impl Default for FaultControl {
    /// Disarmed, with no write budget: arming one fault (a poisoned name)
    /// fails nothing else.
    fn default() -> Self {
        FaultControl {
            writes_until_failure: AtomicI64::new(-1),
            poisoned_substring: RwLock::new(None),
            armed: AtomicBool::new(false),
        }
    }
}

impl FaultControl {
    /// Allow `n` more write operations, then fail all subsequent ones.
    pub fn fail_writes_after(&self, n: u64) {
        self.writes_until_failure.store(n as i64, Ordering::SeqCst);
        self.armed.store(true, Ordering::SeqCst);
    }

    /// Fail every operation on files whose name contains `pat`.
    pub fn poison(&self, pat: &str) {
        *self.poisoned_substring.write() = Some(pat.to_string());
        self.armed.store(true, Ordering::SeqCst);
    }

    /// Clear all faults.
    pub fn heal(&self) {
        self.armed.store(false, Ordering::SeqCst);
        self.writes_until_failure.store(-1, Ordering::SeqCst);
        *self.poisoned_substring.write() = None;
    }

    fn name_poisoned(&self, name: &str) -> bool {
        self.armed.load(Ordering::SeqCst)
            && self
                .poisoned_substring
                .read()
                .as_deref()
                .is_some_and(|p| name.contains(p))
    }

    fn consume_write_budget(&self) -> bool {
        if !self.armed.load(Ordering::SeqCst) {
            return true;
        }
        let left = self.writes_until_failure.load(Ordering::SeqCst);
        if left < 0 {
            return true;
        }
        self.writes_until_failure
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| {
                (v > 0).then_some(v - 1)
            })
            .is_ok()
    }
}

fn injected() -> io::Error {
    io::Error::other("injected fault")
}

/// Storage wrapper that injects failures per its [`FaultControl`].
pub struct FaultStorage {
    inner: Arc<dyn Storage>,
    control: Arc<FaultControl>,
}

impl FaultStorage {
    /// Wrap `inner`; returns the storage and its control handle.
    pub fn wrap(inner: Arc<dyn Storage>) -> (Arc<FaultStorage>, Arc<FaultControl>) {
        let control = Arc::new(FaultControl::default());
        (
            Arc::new(FaultStorage {
                inner,
                control: Arc::clone(&control),
            }),
            control,
        )
    }
}

struct FaultWriter {
    inner: Box<dyn WritableFile>,
    control: Arc<FaultControl>,
    name: String,
}

impl WritableFile for FaultWriter {
    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        if self.control.name_poisoned(&self.name) || !self.control.consume_write_budget() {
            return Err(injected());
        }
        self.inner.append(data)
    }

    fn sync(&mut self) -> io::Result<()> {
        if self.control.name_poisoned(&self.name) {
            return Err(injected());
        }
        self.inner.sync()
    }

    fn written(&self) -> u64 {
        self.inner.written()
    }
}

struct FaultFile {
    inner: Arc<dyn RandomAccessFile>,
    control: Arc<FaultControl>,
    name: String,
}

impl RandomAccessFile for FaultFile {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        if self.control.name_poisoned(&self.name) {
            return Err(injected());
        }
        self.inner.read_at(offset, buf)
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn read_exact_vectored_at(&self, offset: u64, bufs: &mut [&mut [u8]]) -> io::Result<()> {
        if self.control.name_poisoned(&self.name) {
            return Err(injected());
        }
        self.inner.read_exact_vectored_at(offset, bufs)
    }
}

impl Storage for FaultStorage {
    fn open_read(&self, name: &str) -> io::Result<Arc<dyn RandomAccessFile>> {
        if self.control.name_poisoned(name) {
            return Err(injected());
        }
        Ok(Arc::new(FaultFile {
            inner: self.inner.open_read(name)?,
            control: Arc::clone(&self.control),
            name: name.to_string(),
        }))
    }

    fn create(&self, name: &str) -> io::Result<Box<dyn WritableFile>> {
        if self.control.name_poisoned(name) {
            return Err(injected());
        }
        Ok(Box::new(FaultWriter {
            inner: self.inner.create(name)?,
            control: Arc::clone(&self.control),
            name: name.to_string(),
        }))
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        self.inner.remove(name)
    }

    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }

    fn list(&self) -> io::Result<Vec<String>> {
        self.inner.list()
    }

    fn size_of(&self, name: &str) -> io::Result<u64> {
        self.inner.size_of(name)
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
    fn write_budget_counts_down() {
        let (s, ctl) = FaultStorage::wrap(Arc::new(MemStorage::new()));
        ctl.fail_writes_after(2);
        let mut w = s.create("f").unwrap();
        w.append(b"1").unwrap();
        w.append(b"2").unwrap();
        assert!(w.append(b"3").is_err(), "third write must fail");
        ctl.heal();
        w.append(b"4").unwrap();
    }

    #[test]
    fn poisoned_files_fail_everything() {
        let (s, ctl) = FaultStorage::wrap(Arc::new(MemStorage::new()));
        s.create("keep").unwrap().append(b"x").unwrap();
        ctl.poison("bad");
        assert!(s.create("bad-file").is_err());
        assert!(s.create("fine").is_ok());
        let r = s.open_read("keep").unwrap();
        let mut b = [0u8; 1];
        r.read_exact_at(0, &mut b).unwrap();
        ctl.heal();
        assert!(s.create("bad-file").is_ok());
    }

    #[test]
    fn unarmed_control_is_transparent() {
        let (s, _ctl) = FaultStorage::wrap(Arc::new(MemStorage::new()));
        let mut w = s.create("f").unwrap();
        for _ in 0..100 {
            w.append(b"data").unwrap();
        }
        assert_eq!(s.size_of("f").unwrap(), 400);
    }
}
