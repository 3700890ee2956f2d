//! # learned-lsm-repro
//!
//! Reproduction of **"Evaluating Learned Indexes in LSM-tree Systems:
//! Benchmarks, Insights and Design Choices"** (EDBT 2026) as a Rust
//! workspace. This facade crate re-exports the pieces; see `README.md` for a
//! tour and the experiments, and `ARCHITECTURE.md` for the engine's design.
//!
//! * [`io`] — storage backends incl. the deterministic simulated NVMe;
//! * [`workloads`] — the seven SOSD-style datasets and YCSB A–F;
//! * [`index`] — PLR, FITing-Tree, PGM, RadixSpline, PLEX, RMI and fence
//!   pointers behind one `SegmentIndex` trait;
//! * [`lsm`] — the LevelDB-style engine with pluggable table indexes,
//!   exposing LevelDB's API quartet: atomic `WriteBatch` group commit,
//!   RAII `Snapshot` handles, and `ReadOptions`/`WriteOptions` knobs;
//! * [`server`] — the network front end: length-prefixed frame protocol,
//!   pipelined client, and admission control mapped onto engine
//!   backpressure;
//! * [`testbed`] — the paper's configuration space and workload runners.
//!
//! ```
//! use learned_lsm_repro::index::IndexKind;
//! use learned_lsm_repro::lsm::{Db, Options, ReadOptions, WriteBatch, WriteOptions};
//!
//! let mut opts = Options::small_for_tests();
//! opts.index.kind = IndexKind::Pgm;
//! let db = Db::open_memory(opts).unwrap();
//!
//! // One atomic batch → one WAL record (group commit).
//! let mut batch = WriteBatch::new();
//! batch.put(1, b"one");
//! batch.put(2, b"two");
//! db.write(batch, &WriteOptions::default()).unwrap();
//!
//! // Snapshots pin a point-in-time view across later writes.
//! let snap = db.snapshot();
//! db.put(1, b"uno").unwrap();
//! assert_eq!(db.get(1).unwrap().as_deref(), Some(&b"uno"[..]));
//! assert_eq!(
//!     db.get_with(1, &ReadOptions::at(&snap)).unwrap().as_deref(),
//!     Some(&b"one"[..]),
//! );
//! ```

pub use learned_index as index;
pub use learned_lsm as testbed;
pub use learned_unclustered as unclustered;
pub use lsm_bench as bench;
pub use lsm_io as io;
pub use lsm_server as server;
pub use lsm_tree as lsm;
pub use lsm_workloads as workloads;
