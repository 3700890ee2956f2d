//! `lsm-obs`: engine-wide observability primitives.
//!
//! Production systems are debugged through traces, histograms, and
//! scrapeable metrics; flat counters alone cannot say *which* flush
//! stalled a writer or *when* a split's dual-write window opened. This
//! crate is the engine's shared observability substrate — deliberately
//! free of engine dependencies so every layer (engine, sharding,
//! server, benches) can record into it:
//!
//! * [`Observer`] — the engine's shared sink of structured [`Event`]s:
//!   a bounded FIFO allocated up front, so emitting never allocates; a
//!   full buffer drops the new event and counts the drop. Begin/end
//!   pairs share a span id for duration stitching.
//! * [`LatencyHistogram`] / [`AtomicHistogram`] — HDR-style
//!   log-bucketed distributions (exact below 128 ns, 64 sub-buckets per
//!   octave, ≤1/64 relative quantile error). The atomic variant is the
//!   multi-writer recorder the engine's hot paths use; snapshots lower
//!   into the single-writer form for folding and quantiles.
//! * [`MetricsSnapshot`] — counters + folded histogram quantiles +
//!   recent events, rendered by [`MetricsSnapshot::render_text`] as a
//!   Prometheus-style exposition. Its wire form (the `METRICS` opcode
//!   payload) belongs to the server's protocol; this crate has no codec.
//!
//! Cross-shard aggregation folds **histograms**, never averages of
//! per-shard quantiles — see [`OpHistSet::merge`].

pub mod event;
pub mod hist;
pub mod metrics;

pub use event::{now_ns, Event, EventKind, GLOBAL_SHARD};
pub use hist::{AtomicHistogram, LatencyHistogram};
pub use metrics::{
    EngineObs, HistSummary, MetricsSnapshot, Observer, OpHistSet, OpHistograms, OpLatencies,
    DEFAULT_EVENT_CAPACITY,
};
