//! Deterministic crash-point storage for recovery testing.
//!
//! A [`CrashStorage`] is an in-memory store behind an [`Interposed`] whose
//! hook, the [`CrashControl`], **halts the world** after a configurable
//! number of mutating storage operations: the N-th and every later
//! `create`/`append`/`sync`/`remove` fails with a "simulated crash" error,
//! so the byte image freezes at an exact, reproducible operation boundary.
//! [`CrashStorage::image`] then yields a deep copy of that frozen state —
//! exactly what a real crash would leave on disk — which a test reopens as
//! a fresh database, any number of times (including re-crashing the
//! recovery itself via [`CrashStorage::over`]).
//!
//! Where the fault storage ([`crate::FaultStorage`]) injects *recoverable*
//! errors (a budget of appends, a poisoned name) to test clean failure
//! paths, the crash storage models *termination* — no operation succeeds
//! after the crash point, and recovery only ever sees the image. Because
//! the index is an exact operation count rather than a byte budget spread
//! across unrelated files, a test can enumerate every crash point of a
//! protocol (`for n in 0..=total_ops`) instead of sampling, and two runs
//! of the same deterministic workload crash at the same place — which is
//! what lets the WAL stay enabled in failure-injection tests.
//!
//! Reads are never failed: they cannot change the image, and the
//! in-process engine is expected to keep serving whatever it has in
//! memory until the test discards it (matching a kernel that still runs
//! while its disk went away).

use std::io;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use crate::interpose::{Hook, Interposed, Op};
use crate::MemStorage;

/// Shared crash-point control handle: the hook of a [`CrashStorage`].
#[derive(Debug)]
pub struct CrashControl {
    /// Mutating operations performed so far.
    ops: AtomicU64,
    /// Mutating operations allowed before the world halts (negative =
    /// disarmed, never crash).
    limit: AtomicI64,
    /// Set once the first operation has been refused.
    crashed: AtomicBool,
}

impl Default for CrashControl {
    fn default() -> Self {
        Self {
            ops: AtomicU64::new(0),
            limit: AtomicI64::new(-1),
            crashed: AtomicBool::new(false),
        }
    }
}

impl CrashControl {
    /// Halt the world after `n` *further* successful mutating operations
    /// past the current count: the `n+1`-th fails, and every one after it.
    /// `crash_after(0)` halts immediately.
    pub fn crash_after(&self, n: u64) {
        let at = self.ops.load(Ordering::SeqCst) + n;
        self.limit.store(at as i64, Ordering::SeqCst);
    }

    /// Disarm the crash point; operations succeed again ("the device came
    /// back") — used by ported fault-injection tests to model
    /// fail-then-heal with a deterministic failure index.
    pub fn disarm(&self) {
        self.limit.store(-1, Ordering::SeqCst);
        self.crashed.store(false, Ordering::SeqCst);
    }

    /// Mutating operations performed so far (the crash-point coordinate
    /// system: `crash_after(k)` halts at coordinate `ops() + k`).
    pub fn ops(&self) -> u64 {
        self.ops.load(Ordering::SeqCst)
    }

    /// Whether any operation has been refused since the last arm/disarm.
    pub fn has_crashed(&self) -> bool {
        self.crashed.load(Ordering::SeqCst)
    }

    /// Count one mutating operation, failing it if the world has halted.
    /// Check-and-increment is a single CAS so concurrent writers can never
    /// slip an operation past the limit
    /// (`concurrent_appends_never_pass_the_limit`).
    fn tick(&self) -> io::Result<()> {
        let limit = self.limit.load(Ordering::SeqCst);
        let allowed = self
            .ops
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |ops| {
                (limit < 0 || ops < limit as u64).then_some(ops + 1)
            })
            .is_ok();
        if !allowed {
            self.crashed.store(true, Ordering::SeqCst);
            return Err(io::Error::other("simulated crash: storage halted"));
        }
        Ok(())
    }
}

impl Hook for CrashControl {
    fn before(&self, op: Op<'_>) -> io::Result<()> {
        match op {
            Op::Open(_) | Op::Read(_) => Ok(()),
            Op::Create(_) | Op::Append(..) | Op::Sync(_) | Op::Remove(_) => self.tick(),
        }
    }
}

/// In-memory storage that halts at an exact mutating-operation index.
pub type CrashStorage = Interposed<Arc<MemStorage>, CrashControl>;

impl CrashStorage {
    /// A fresh, empty crash-point store and its control handle.
    pub fn new() -> (Arc<CrashStorage>, Arc<CrashControl>) {
        Self::over(MemStorage::new())
    }

    /// A crash-point store over an existing byte image (e.g. one produced
    /// by [`CrashStorage::image`]) — this is how a test crashes the
    /// *recovery* of an earlier crash.
    pub fn over(image: MemStorage) -> (Arc<CrashStorage>, Arc<CrashControl>) {
        let control = Arc::new(CrashControl::default());
        let storage = Interposed::hooked(Arc::new(image), Arc::clone(&control));
        (Arc::new(storage), control)
    }

    /// The control handle (also returned by the constructors).
    pub fn control(&self) -> &Arc<CrashControl> {
        &self.hook
    }

    /// A deep copy of the current byte image — what the "disk" holds at
    /// this instant. After a crash the image is frozen (every mutation
    /// fails), so repeated calls return identical contents.
    pub fn image(&self) -> MemStorage {
        self.inner.deep_clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Storage;

    #[test]
    fn world_halts_at_the_exact_op_index() {
        let (s, ctl) = CrashStorage::new();
        let mut w = s.create("f").unwrap(); // op 0
        w.append(b"one").unwrap(); // op 1
        ctl.crash_after(1);
        w.append(b"two").unwrap(); // op 2: last allowed
        assert!(w.append(b"three").is_err(), "world halted");
        assert!(w.sync().is_err(), "stays halted");
        assert!(s.create("g").is_err());
        assert!(s.remove("f").is_err());
        assert!(ctl.has_crashed());
        assert_eq!(ctl.ops(), 3);
        // The image froze with exactly the surviving bytes.
        assert_eq!(crate::read_all(&s.image(), "f").unwrap(), b"onetwo");
    }

    #[test]
    fn reads_survive_the_crash() {
        let (s, ctl) = CrashStorage::new();
        s.create("f").unwrap().append(b"data").unwrap();
        ctl.crash_after(0);
        let r = s.open_read("f").unwrap();
        let mut buf = [0u8; 4];
        r.read_exact_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"data");
        assert!(s.exists("f"));
        assert_eq!(s.size_of("f").unwrap(), 4);
    }

    #[test]
    fn image_is_deep_and_repeatable() {
        let (s, ctl) = CrashStorage::new();
        s.create("f").unwrap().append(b"abc").unwrap();
        ctl.crash_after(0);
        let img1 = s.image();
        let img2 = s.image();
        // Mutating one image touches neither the other nor the source.
        img1.create("f").unwrap().append(b"zzzz").unwrap();
        assert_eq!(crate::read_all(&img2, "f").unwrap(), b"abc");
        assert_eq!(crate::read_all(&s.image(), "f").unwrap(), b"abc");
    }

    #[test]
    fn over_an_image_recrashes_recovery() {
        let (s, ctl) = CrashStorage::new();
        s.create("f").unwrap().append(b"v1").unwrap();
        ctl.crash_after(0);
        let (s2, ctl2) = CrashStorage::over(s.image());
        ctl2.crash_after(1);
        let mut w = s2.create("g").unwrap(); // allowed
        assert!(w.append(b"x").is_err(), "second crash");
        assert_eq!(crate::read_all(&s2.image(), "f").unwrap(), b"v1");
    }

    #[test]
    fn disarm_resumes_the_world() {
        let (s, ctl) = CrashStorage::new();
        let mut w = s.create("f").unwrap();
        ctl.crash_after(0);
        assert!(w.append(b"x").is_err());
        ctl.disarm();
        assert!(!ctl.has_crashed());
        w.append(b"y").unwrap();
        assert_eq!(s.size_of("f").unwrap(), 1);
    }

    /// Eight writers race one armed control: exactly `k` appends get
    /// through, each writer's appends fail from its first failure on, and
    /// the count stops at the limit.
    #[test]
    fn concurrent_appends_never_pass_the_limit() {
        const K: u64 = 3_001;
        let (s, ctl) = CrashStorage::new();
        let writers: Vec<_> = (0..8)
            .map(|t| s.create(&format!("f{t}")).unwrap())
            .collect();
        let armed_at = ctl.ops();
        ctl.crash_after(K);
        let start = std::sync::Barrier::new(writers.len());
        let passed: u64 = std::thread::scope(|scope| {
            let threads: Vec<_> = writers
                .into_iter()
                .map(|mut w| {
                    let start = &start;
                    scope.spawn(move || {
                        start.wait();
                        let results: Vec<bool> =
                            (0..1_000).map(|_| w.append(b"x").is_ok()).collect();
                        let passed = results.iter().take_while(|&&ok| ok).count();
                        assert!(
                            results[passed..].iter().all(|&ok| !ok),
                            "an append passed a failed one"
                        );
                        passed as u64
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).sum()
        });
        assert_eq!(passed, K);
        assert_eq!(ctl.ops(), armed_at + K);
        assert!(ctl.has_crashed());
        let image = s.image();
        let bytes: u64 = (0..8)
            .map(|t| image.size_of(&format!("f{t}")).unwrap())
            .sum();
        assert_eq!(bytes, K, "the image holds exactly the appends that passed");
    }
}
