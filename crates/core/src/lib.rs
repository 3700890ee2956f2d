//! The paper's unified testbed (Figure 4): one system where **index type**,
//! **position boundary**, and **index granularity** — the three-dimensional
//! configuration space of Section 4 — can each be varied independently, with
//! measurement plumbing that reproduces every table and figure of the
//! evaluation.
//!
//! Layering:
//!
//! * [`config`] — the configuration space and the paper's sweep grids, each
//!   point mapped onto engine options (the engine owns all three dimensions:
//!   granularity is `lsm_tree::IndexChoice::granularity`);
//! * [`allocator`] — non-uniform position boundaries across levels
//!   (Observation 5);
//! * [`testbed`] — [`Testbed`]: an engine instance wired to a configuration,
//!   with dataset loading and workload runners, every read through `Db`;
//! * [`report`] — measurement records that serialize to JSON and print as
//!   the rows/series the paper reports.

pub mod allocator;
pub mod config;
pub mod report;
pub mod testbed;

pub use allocator::{AllocationPlan, BoundaryAllocator, LevelWorkload};
pub use config::{Granularity, TestbedConfig, PAPER_BOUNDARIES, PAPER_SST_MIB};
pub use report::{CompactionReport, LookupReport, RangeReport};
pub use testbed::Testbed;
