//! Fault-injection storage for failure testing.
//!
//! A [`FaultStorage`] is any [`Storage`] behind an [`Interposed`] whose
//! hook, the [`FaultControl`], fails operations on command: the appends
//! past a budget, or every read and write of a file whose name matches a
//! substring. Used by the engine's failure-injection tests to check that
//! flushes and compactions fail *cleanly* (no torn versions, reads keep
//! working, a retry succeeds once the fault clears).

use std::io;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::interpose::{Hook, Interposed, Op};
use crate::Storage;

/// Shared fault control handle: the hook of a [`FaultStorage`].
#[derive(Debug)]
pub struct FaultControl {
    /// Remaining successful appends before failures begin (negative =
    /// unlimited).
    writes_until_failure: AtomicI64,
    /// Fail the reads and writes of a file whose name contains this.
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
    /// Allow `n` more appends, then fail every later one. Creates, syncs
    /// and removes do not count and are not failed.
    pub fn fail_writes_after(&self, n: u64) {
        self.writes_until_failure.store(n as i64, Ordering::SeqCst);
        self.armed.store(true, Ordering::SeqCst);
    }

    /// Fail the `open_read`, reads, `create`, appends and syncs of every
    /// file whose name contains `pat`. Its `remove` still succeeds, and
    /// `exists`, `list`, `size_of` and a file's `len` are never failed.
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

impl Hook for FaultControl {
    fn before(&self, op: Op<'_>) -> io::Result<()> {
        let fails = match op {
            Op::Open(name) | Op::Read(name) | Op::Create(name) | Op::Sync(name) => {
                self.name_poisoned(name)
            }
            Op::Append(name, _) => self.name_poisoned(name) || !self.consume_write_budget(),
            Op::Remove(_) => false,
        };
        if fails {
            return Err(io::Error::other("injected fault"));
        }
        Ok(())
    }
}

/// A storage that injects failures per its [`FaultControl`].
pub type FaultStorage = Interposed<Arc<dyn Storage>, FaultControl>;

impl FaultStorage {
    /// Wrap `inner`; returns the storage and its control handle.
    pub fn wrap(inner: Arc<dyn Storage>) -> (Arc<FaultStorage>, Arc<FaultControl>) {
        let control = Arc::new(FaultControl::default());
        (
            Arc::new(Interposed::hooked(inner, Arc::clone(&control))),
            control,
        )
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
        ctl.poison("keep");
        assert!(r.read_exact_at(0, &mut b).is_err());
        assert!(s.open_read("keep").is_err());
        assert_eq!(s.size_of("keep").unwrap(), 1, "size_of is never failed");
        s.remove("keep").unwrap();
        ctl.poison("bad");
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
