//! Storage abstraction layer for the learned-LSM testbed.
//!
//! The paper's experiments run against a 2 TB NVMe SSD through `pread`. To
//! make the reproduction deterministic and machine-independent we model the
//! device instead of requiring the hardware: every experiment runs against a
//! [`Storage`] implementation. There are two devices:
//!
//! * [`FileStorage`] — real files on a local filesystem (functional parity,
//!   used by integration tests and anyone who wants to run on a real disk).
//! * [`MemStorage`] — in-memory files. [`MemStorage::new`] counts bytes and
//!   calls only (fast unit tests); [`MemStorage::modeled`] adds a
//!   *deterministic I/O cost model*: each read/write is charged in
//!   4096-byte blocks against a virtual clock, calibrated so that one
//!   random block read costs ~2.1 µs, matching Table 1 of the paper ("Disk
//!   I/O 2.10–2.16 us/op"). [`SimStorage`] is the modeled store under the
//!   name the benchmark uses. All experiments report `cpu time (measured) +
//!   I/O time (modeled)`, which reproduces the paper's latency *shapes*
//!   exactly and is immune to page-cache noise.
//!
//! [`PrefixedStorage`] is a per-shard view of one device. Every storage
//! that only *watches* operations is one decorator, [`Interposed`], with a
//! [`Hook`] that sees each [`Op`] before the wrapped store does:
//! [`CrashStorage`] halts at an operation index ([`CrashControl`]),
//! [`FaultStorage`] fails a budget or a name ([`FaultControl`]), and tests
//! park or record operations with hooks of their own.
//!
//! The traits intentionally mirror LevelDB's `Env`/`RandomAccessFile`/
//! `WritableFile` split because the testbed is a LevelDB-style system.

pub mod cost;
pub mod crash;
pub mod fault;
pub mod file;
pub mod interpose;
pub mod mem;
pub mod prefix;
pub mod sim;
pub mod stats;

use std::io;
use std::sync::Arc;

pub use cost::{CostModel, DEFAULT_BLOCK_SIZE};
pub use crash::{CrashControl, CrashStorage};
pub use fault::{FaultControl, FaultStorage};
pub use file::FileStorage;
pub use interpose::{Hook, Interposed, Op};
pub use mem::MemStorage;
pub use prefix::PrefixedStorage;
pub use sim::SimStorage;
pub use stats::{IoStats, IoStatsSnapshot};

/// A file that supports positional reads (`pread` semantics).
///
/// Implementations must be safe to share across threads; the LSM engine reads
/// SSTables concurrently from lookups and compactions.
///
/// One method call is one device call: the engine's read counts
/// (`IoStats::read_calls`, and what a modeled [`MemStorage`] charges)
/// count calls of `read_at`, `read_exact_at` and `read_exact_vectored_at`
/// alike, so a wrapper that forwards a vectored read forwards it as one.
pub trait RandomAccessFile: Send + Sync {
    /// Read up to `buf.len()` bytes starting at `offset`, returning the number
    /// of bytes read. Short reads only happen at end-of-file.
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<usize>;

    /// Total length of the file in bytes.
    fn len(&self) -> u64;

    /// Whether the file is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Read exactly `buf.len()` bytes at `offset`, failing on EOF.
    fn read_exact_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        let n = self.read_at(offset, buf)?;
        if n != buf.len() {
            return Err(short_read(offset, buf.len(), n));
        }
        Ok(())
    }

    /// Read the contiguous span starting at `offset` into `bufs`, filling
    /// each in turn — `preadv` semantics, but exact: a span that runs past
    /// EOF is an error. One device call, charged as one `read_exact_at` of
    /// the whole span. After an error the buffers hold no particular bytes.
    ///
    /// The default reads the span into a temporary and scatters it, so a
    /// file that only knows `read_at` still makes one call; the in-memory
    /// files copy straight into `bufs`.
    fn read_exact_vectored_at(&self, offset: u64, bufs: &mut [&mut [u8]]) -> io::Result<()> {
        let mut span = vec![0u8; span_len(bufs)];
        self.read_exact_at(offset, &mut span)?;
        scatter(&span, bufs);
        Ok(())
    }
}

/// Bytes `bufs` hold together.
fn span_len(bufs: &[&mut [u8]]) -> usize {
    bufs.iter().map(|b| b.len()).sum()
}

/// Fill `bufs` in turn from `span`, which is at least as long as they are.
fn scatter(mut span: &[u8], bufs: &mut [&mut [u8]]) {
    for buf in bufs {
        let (head, rest) = span.split_at(buf.len());
        buf.copy_from_slice(head);
        span = rest;
    }
}

fn short_read(offset: u64, wanted: usize, got: usize) -> io::Error {
    io::Error::new(
        io::ErrorKind::UnexpectedEof,
        format!("short read: wanted {wanted} bytes at offset {offset}, got {got}"),
    )
}

/// An append-only output file, as produced by flushes and compactions.
pub trait WritableFile: Send + Sync {
    /// Append `data` to the end of the file.
    fn append(&mut self, data: &[u8]) -> io::Result<()>;

    /// Flush buffered data to the underlying medium.
    fn sync(&mut self) -> io::Result<()>;

    /// Number of bytes appended so far.
    fn written(&self) -> u64;
}

/// A named-file store: the minimal `Env` surface the LSM engine needs.
pub trait Storage: Send + Sync {
    /// Open an existing file for positional reads.
    fn open_read(&self, name: &str) -> io::Result<Arc<dyn RandomAccessFile>>;

    /// Create (or truncate) a file for appending.
    fn create(&self, name: &str) -> io::Result<Box<dyn WritableFile>>;

    /// Delete a file. Deleting a missing file is an error.
    fn remove(&self, name: &str) -> io::Result<()>;

    /// Whether a file with this name exists.
    fn exists(&self, name: &str) -> bool;

    /// List all file names in the store, in unspecified order.
    fn list(&self) -> io::Result<Vec<String>>;

    /// Size of the named file in bytes.
    fn size_of(&self, name: &str) -> io::Result<u64>;

    /// The I/O statistics sink shared by all files of this storage.
    fn stats(&self) -> &IoStats;
}

/// Convenience: read a whole file into memory.
pub fn read_all(storage: &dyn Storage, name: &str) -> io::Result<Vec<u8>> {
    let f = storage.open_read(name)?;
    let mut buf = vec![0u8; f.len() as usize];
    f.read_exact_at(0, &mut buf)?;
    Ok(buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise_storage(s: &dyn Storage) {
        assert!(!s.exists("a"));
        {
            let mut w = s.create("a").unwrap();
            w.append(b"hello ").unwrap();
            w.append(b"world").unwrap();
            assert_eq!(w.written(), 11);
            w.sync().unwrap();
        }
        assert!(s.exists("a"));
        assert_eq!(s.size_of("a").unwrap(), 11);

        let r = s.open_read("a").unwrap();
        assert_eq!(r.len(), 11);
        let mut buf = [0u8; 5];
        r.read_exact_at(6, &mut buf).unwrap();
        assert_eq!(&buf, b"world");

        // Short read at EOF.
        let mut big = [0u8; 32];
        let n = r.read_at(6, &mut big).unwrap();
        assert_eq!(n, 5);

        // read_exact past EOF errors.
        let mut big = [0u8; 32];
        assert!(r.read_exact_at(6, &mut big).is_err());

        let listed = s.list().unwrap();
        assert!(listed.contains(&"a".to_string()));

        s.remove("a").unwrap();
        assert!(!s.exists("a"));
        assert!(s.remove("a").is_err());
        assert!(s.open_read("a").is_err());
    }

    #[test]
    fn mem_storage_contract() {
        exercise_storage(&MemStorage::new());
    }

    #[test]
    fn sim_storage_contract() {
        exercise_storage(&SimStorage::new(CostModel::default()));
    }

    #[test]
    fn unarmed_crash_storage_contract() {
        exercise_storage(&*CrashStorage::new().0);
    }

    #[test]
    fn unarmed_fault_storage_contract() {
        exercise_storage(&*FaultStorage::wrap(Arc::new(MemStorage::new())).0);
    }

    #[test]
    fn file_storage_contract() {
        let dir = tempfile::tempdir().unwrap();
        exercise_storage(&FileStorage::new(dir.path()).unwrap());
    }

    /// Write 10 000 patterned bytes to "v" and read `[100, 9 000)` into
    /// three buffers of unequal length, then a span past EOF.
    fn exercise_vectored(s: &dyn Storage) {
        let payload: Vec<u8> = (0..10_000u32).map(|i| (i * 7 % 251) as u8).collect();
        s.create("v").unwrap().append(&payload).unwrap();
        let r = s.open_read("v").unwrap();
        let (mut a, mut b, mut c) = (vec![0u8; 4096], vec![0u8; 4], vec![0u8; 4800]);
        r.read_exact_vectored_at(100, &mut [&mut a[..], &mut b[..], &mut c[..]])
            .unwrap();
        assert_eq!([a, b, c].concat(), payload[100..9_000]);

        let (mut a, mut b) = (vec![0u8; 4096], vec![0u8; 4096]);
        let err = r
            .read_exact_vectored_at(2_000, &mut [&mut a[..], &mut b[..]])
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        let err = r.read_exact_vectored_at(20_000, &mut [&mut a[..]]);
        assert_eq!(err.unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
        r.read_exact_vectored_at(10_000, &mut []).unwrap();
    }

    #[test]
    fn vectored_read_fills_the_buffers_in_turn() {
        exercise_vectored(&MemStorage::new());
        exercise_vectored(&SimStorage::new(CostModel::default()));
        exercise_vectored(&*FaultStorage::wrap(Arc::new(MemStorage::new())).0);
        let dir = tempfile::tempdir().unwrap();
        exercise_vectored(&FileStorage::new(dir.path()).unwrap());
    }

    /// One call, whoever serves it: a vectored read is counted and charged
    /// as one `read_exact_at` of the same span.
    #[test]
    fn vectored_read_is_charged_as_one_read_of_its_span() {
        let dir = tempfile::tempdir().unwrap();
        let stores: [Box<dyn Storage>; 3] = [
            Box::new(MemStorage::new()),
            Box::new(SimStorage::new(CostModel::default())),
            Box::new(FileStorage::new(dir.path()).unwrap()),
        ];
        for s in stores {
            s.create("f").unwrap().append(&[9u8; 5 * 4096]).unwrap();
            let r = s.open_read("f").unwrap();
            // 4 090..16 378 touches blocks 0..=3.
            let (mut a, mut b, mut c) = (vec![0u8; 4096], vec![0u8; 4096], vec![0u8; 4096]);
            let before = s.stats().snapshot();
            r.read_exact_vectored_at(4_090, &mut [&mut a[..], &mut b[..], &mut c[..]])
                .unwrap();
            let vectored = s.stats().snapshot().since(&before);
            let before = s.stats().snapshot();
            r.read_exact_at(4_090, &mut vec![0u8; 3 * 4096]).unwrap();
            let plain = s.stats().snapshot().since(&before);
            assert_eq!(vectored, plain);
            assert_eq!((plain.read_calls, plain.read_bytes), (1, 3 * 4096));
        }
    }

    #[test]
    fn vectored_read_of_a_poisoned_file_is_the_injected_error() {
        let (s, ctl) = FaultStorage::wrap(Arc::new(MemStorage::new()));
        s.create("f").unwrap().append(&[9u8; 8192]).unwrap();
        let r = s.open_read("f").unwrap();
        let (mut a, mut b) = (vec![1u8; 4096], vec![1u8; 4096]);
        ctl.poison("f");
        let before = s.stats().snapshot();
        let err = r.read_exact_vectored_at(0, &mut [&mut a[..], &mut b[..]]);
        assert!(err.unwrap_err().to_string().contains("injected"));
        assert_eq!(s.stats().snapshot(), before, "the device was not asked");
        assert!(a.iter().chain(&b).all(|&x| x == 1), "nothing was written");
        ctl.heal();
        r.read_exact_vectored_at(0, &mut [&mut a[..], &mut b[..]])
            .unwrap();
        assert!(a.iter().chain(&b).all(|&x| x == 9));
    }

    /// Notes every operation, with the bytes of each append.
    #[derive(Default)]
    struct Recorder(parking_lot::Mutex<Vec<String>>);

    impl Hook for Recorder {
        fn before(&self, op: Op<'_>) -> io::Result<()> {
            let line = match op {
                Op::Append(name, data) => {
                    format!("append {name} {}", String::from_utf8_lossy(data))
                }
                op => format!("{op:?}"),
            };
            self.0.lock().push(line);
            Ok(())
        }
    }

    /// A hook sees each operation once, in the order it is made, before
    /// the store does — what a recording of a load's storage ops relies on.
    #[test]
    fn a_hook_sees_every_operation_in_order() {
        let recorder = Arc::new(Recorder::default());
        let s = Interposed::hooked(Arc::new(MemStorage::new()), Arc::clone(&recorder));
        let mut w = s.create("f").unwrap();
        w.append(b"ab").unwrap();
        w.append(b"cd").unwrap();
        w.sync().unwrap();
        let r = s.open_read("f").unwrap();
        r.read_exact_vectored_at(0, &mut [&mut [0u8; 1][..], &mut [0u8; 3][..]])
            .unwrap();
        assert!(s.exists("f") && r.len() == 4 && s.size_of("f").unwrap() == 4);
        s.remove("f").unwrap();
        assert_eq!(
            *recorder.0.lock(),
            [
                "Create(\"f\")",
                "append f ab",
                "append f cd",
                "Sync(\"f\")",
                "Open(\"f\")",
                "Read(\"f\")",
                "Remove(\"f\")",
            ]
        );
        assert_eq!(s.stats().snapshot().read_calls, 1, "one vectored read");
    }

    #[test]
    fn read_all_roundtrip() {
        let s = MemStorage::new();
        let payload: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let mut w = s.create("blob").unwrap();
        w.append(&payload).unwrap();
        drop(w);
        assert_eq!(read_all(&s, "blob").unwrap(), payload);
    }
}
