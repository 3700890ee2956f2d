//! The scrapeable surface: per-op histogram sets, the event observer,
//! and [`MetricsSnapshot`] — the one value that travels over the
//! `METRICS` opcode and renders as Prometheus-style text.
//!
//! Layering: this crate knows nothing about the engine. The engine
//! hangs an [`EngineObs`] off each shard (all sharing one [`Observer`])
//! and records into it; [`MetricsSnapshot::collect`] *folds* the per-shard
//! histograms (bucket-wise [`LatencyHistogram::merge`], never averages
//! of averages) and assembles the snapshot, for a sharded engine and a
//! single `Db` (a fleet of one) alike.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::event::{now_ns, Event, EventKind};
use crate::hist::{AtomicHistogram, LatencyHistogram};
use crate::ring::EventRing;

/// Default event-ring capacity used by [`EngineObs::solo`] (events; the
/// ring rounds up to a power of two).
pub const DEFAULT_RING_CAPACITY: usize = 8192;

/// The shared event sink: one per engine (all shards emit into it), so
/// the drained timeline interleaves shards in true order.
pub struct Observer {
    ring: EventRing,
    spans: AtomicU64,
}

impl Observer {
    pub fn new(ring_capacity: usize) -> Observer {
        Observer {
            ring: EventRing::new(ring_capacity),
            spans: AtomicU64::new(0),
        }
    }

    /// A fresh nonzero span id for a begin/end pair.
    #[inline]
    pub fn next_span(&self) -> u64 {
        self.spans.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Emit one event, stamped with the monotonic clock. Lock-free and
    /// allocation-free; a full ring drops the event and counts it.
    #[inline]
    pub fn emit(&self, kind: EventKind, shard: u16, span: u64, a: u64, b: u64) {
        self.ring.push(Event {
            ts_ns: now_ns(),
            span,
            a,
            b,
            kind,
            shard,
        });
    }

    /// Drain every ready event in enqueue order.
    pub fn drain(&self) -> Vec<Event> {
        self.ring.drain()
    }

    /// Drain into an existing buffer; returns the number drained.
    pub fn drain_into(&self, out: &mut Vec<Event>) -> usize {
        self.ring.drain_into(out)
    }

    /// Events dropped on ring overflow since creation.
    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }
}

/// The per-op latency recorders a single shard writes into.
#[derive(Default)]
pub struct OpHistograms {
    /// `Db::write` enqueue → fence publish (end-to-end commit latency).
    pub write: AtomicHistogram,
    /// Wall time the group leader spent in the WAL `sync` call.
    pub sync_wait: AtomicHistogram,
    /// `Db::get` end-to-end.
    pub get: AtomicHistogram,
    /// `Db::scan` end-to-end.
    pub scan: AtomicHistogram,
}

impl OpHistograms {
    /// Lower all four live recorders into single-writer histograms.
    pub fn snapshot(&self) -> OpHistSet {
        OpHistSet {
            write: self.write.snapshot(),
            sync_wait: self.sync_wait.snapshot(),
            get: self.get.snapshot(),
            scan: self.scan.snapshot(),
        }
    }
}

/// A snapshotted per-op histogram set — the unit the sharding layer
/// folds across shards.
#[derive(Clone, Default)]
pub struct OpHistSet {
    pub write: LatencyHistogram,
    pub sync_wait: LatencyHistogram,
    pub get: LatencyHistogram,
    pub scan: LatencyHistogram,
}

impl OpHistSet {
    /// Bucket-wise fold of another shard's distributions into this one.
    /// This is the correct cross-shard aggregation: quantiles of the
    /// merged histogram equal quantiles of the combined sample set,
    /// which no arithmetic on per-shard quantiles can reproduce.
    pub fn merge(&mut self, other: &OpHistSet) {
        self.write.merge(&other.write);
        self.sync_wait.merge(&other.sync_wait);
        self.get.merge(&other.get);
        self.scan.merge(&other.scan);
    }

    /// Summarize for the wire, tagged with `shard`.
    pub fn summarize(&self, shard: u16) -> OpLatencies {
        OpLatencies {
            shard,
            write: HistSummary::of(&self.write),
            sync_wait: HistSummary::of(&self.sync_wait),
            get: HistSummary::of(&self.get),
            scan: HistSummary::of(&self.scan),
        }
    }
}

/// One shard's observability handle: the shared observer plus this
/// shard's own histogram set and stable-id tag.
pub struct EngineObs {
    observer: Arc<Observer>,
    shard: u16,
    /// Per-op latency recorders (public: the engine records directly).
    pub ops: OpHistograms,
}

impl EngineObs {
    /// A handle tagged `shard`, emitting into a shared `observer`.
    pub fn new(observer: Arc<Observer>, shard: u16) -> EngineObs {
        EngineObs {
            observer,
            shard,
            ops: OpHistograms::default(),
        }
    }

    /// A standalone handle with its own observer — the single-`Db`
    /// (unsharded) configuration.
    pub fn solo(shard: u16) -> EngineObs {
        EngineObs::new(Arc::new(Observer::new(DEFAULT_RING_CAPACITY)), shard)
    }

    /// The shared event sink.
    pub fn observer(&self) -> &Arc<Observer> {
        &self.observer
    }

    /// This shard's stable id tag.
    pub fn shard(&self) -> u16 {
        self.shard
    }

    /// A fresh span id (shared counter, so ids are unique engine-wide).
    #[inline]
    pub fn span(&self) -> u64 {
        self.observer.next_span()
    }

    /// Emit one event tagged with this shard.
    #[inline]
    pub fn emit(&self, kind: EventKind, span: u64, a: u64, b: u64) {
        self.observer.emit(kind, self.shard, span, a, b);
    }
}

/// Quantile summary of one histogram, small enough for the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistSummary {
    pub count: u64,
    pub mean_ns: u64,
    pub max_ns: u64,
    pub p50_ns: u64,
    pub p90_ns: u64,
    pub p99_ns: u64,
    pub p999_ns: u64,
}

impl HistSummary {
    pub fn of(h: &LatencyHistogram) -> HistSummary {
        HistSummary {
            count: h.count(),
            mean_ns: h.mean(),
            max_ns: h.max(),
            p50_ns: h.value_at(0.50),
            p90_ns: h.value_at(0.90),
            p99_ns: h.value_at(0.99),
            p999_ns: h.value_at(0.999),
        }
    }
}

/// One shard's (or the fold's) per-op latency summaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpLatencies {
    /// Stable shard id, or [`crate::GLOBAL_SHARD`] for the cross-shard fold.
    pub shard: u16,
    pub write: HistSummary,
    pub sync_wait: HistSummary,
    pub get: HistSummary,
    pub scan: HistSummary,
}

/// Everything a scrape returns: flat counters, folded + per-shard
/// latency distributions, and the recent event timeline.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Whether `Options::observability` was on. When off, only the
    /// counters are populated (today's `DbStats`, unperturbed).
    pub enabled: bool,
    /// Flat counters, name → value: every `DbStats` counter, then, for a
    /// sharded engine, its residency report.
    pub counters: Vec<(String, u64)>,
    /// Cross-shard fold (histogram-merged, not averaged).
    pub total: OpLatencies,
    /// Per-shard summaries, one per live shard.
    pub shards: Vec<OpLatencies>,
    /// Recent events drained from the ring (enqueue order).
    pub events: Vec<Event>,
    /// Events lost to ring overflow since the engine opened.
    pub dropped_events: u64,
}

impl MetricsSnapshot {
    /// Assemble a scrape of a fleet of shards: `counters` always; with an
    /// `observer`, each shard's latency summary, their bucket-wise fold
    /// and the drained event timeline. Draining consumes the ring: each
    /// event appears in exactly one scrape.
    pub fn collect<'a>(
        counters: Vec<(String, u64)>,
        observer: Option<&Observer>,
        shards: impl IntoIterator<Item = &'a EngineObs>,
    ) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot {
            counters,
            ..MetricsSnapshot::default()
        };
        let Some(observer) = observer else {
            return snap;
        };
        snap.enabled = true;
        let mut fold = OpHistSet::default();
        for obs in shards {
            let set = obs.ops.snapshot();
            fold.merge(&set);
            snap.shards.push(set.summarize(obs.shard()));
        }
        snap.total = fold.summarize(crate::GLOBAL_SHARD);
        snap.events = observer.drain();
        snap.dropped_events = observer.dropped();
        snap
    }

    /// Prometheus-style text exposition: counters, per-op latency
    /// quantile gauges (the cross-shard fold plus one series per
    /// shard), the drop counter, and the recent event timeline as
    /// trailing comment lines.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str("# TYPE lsm_counter counter\n");
        for (name, value) in &self.counters {
            out.push_str(&format!("lsm_{name} {value}\n"));
        }
        out.push_str(&format!(
            "lsm_observability_enabled {}\n",
            self.enabled as u8
        ));
        out.push_str(&format!("lsm_events_dropped {}\n", self.dropped_events));
        if self.enabled {
            out.push_str("# TYPE lsm_op_latency_ns summary\n");
            let mut render_shard = |label: &str, l: &OpLatencies| {
                for (op, s) in [
                    ("write", &l.write),
                    ("sync_wait", &l.sync_wait),
                    ("get", &l.get),
                    ("scan", &l.scan),
                ] {
                    for (q, v) in [
                        ("0.5", s.p50_ns),
                        ("0.9", s.p90_ns),
                        ("0.99", s.p99_ns),
                        ("0.999", s.p999_ns),
                        ("1", s.max_ns),
                    ] {
                        out.push_str(&format!(
                            "lsm_op_latency_ns{{op=\"{op}\",shard=\"{label}\",quantile=\"{q}\"}} {v}\n"
                        ));
                    }
                    out.push_str(&format!(
                        "lsm_op_latency_ns_count{{op=\"{op}\",shard=\"{label}\"}} {}\n",
                        s.count
                    ));
                    out.push_str(&format!(
                        "lsm_op_latency_ns_mean{{op=\"{op}\",shard=\"{label}\"}} {}\n",
                        s.mean_ns
                    ));
                }
            };
            render_shard("all", &self.total);
            for l in &self.shards {
                let label = l.shard.to_string();
                render_shard(&label, l);
            }
            // The timeline tail: the *most recent* events only, so a
            // scrape stays readable when the drain caught a full ring.
            const RENDERED_EVENTS: usize = 128;
            let skipped = self.events.len().saturating_sub(RENDERED_EVENTS);
            if skipped > 0 {
                out.push_str(&format!("# ... {skipped} earlier events elided\n"));
            }
            for e in &self.events[skipped..] {
                out.push_str("# ");
                out.push_str(&e.render());
                out.push('\n');
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::GLOBAL_SHARD;

    fn sample_snapshot() -> MetricsSnapshot {
        let obs = EngineObs::solo(2);
        obs.ops.write.record(1_000);
        obs.ops.write.record(2_000);
        obs.ops.get.record(500);
        let span = obs.span();
        obs.emit(EventKind::FlushBegin, span, 0, 0);
        obs.emit(EventKind::FlushEnd, span, 128, 9_999);
        let set = obs.ops.snapshot();
        MetricsSnapshot {
            enabled: true,
            counters: vec![("lookups".into(), 7), ("flushes".into(), 1)],
            total: set.summarize(GLOBAL_SHARD),
            shards: vec![set.summarize(2)],
            events: obs.observer().drain(),
            dropped_events: obs.observer().dropped(),
        }
    }

    #[test]
    fn render_text_exposes_quantiles_and_events() {
        let text = sample_snapshot().render_text();
        assert!(text.contains("lsm_lookups 7"));
        assert!(text.contains("lsm_observability_enabled 1"));
        assert!(text.contains("op=\"write\",shard=\"all\",quantile=\"0.99\""));
        assert!(text.contains("op=\"get\",shard=\"2\",quantile=\"0.5\""));
        assert!(text.contains("# event "));
        assert!(text.contains("kind=flush_begin"));
    }

    #[test]
    fn fold_matches_combined_distribution() {
        // Two shards' histograms folded through OpHistSet::merge give
        // the quantiles of the union — the satellite's sum-of-averages
        // fix, asserted end-to-end.
        let a = EngineObs::solo(0);
        let b = EngineObs::solo(1);
        for _ in 0..90 {
            a.ops.get.record(100);
        }
        for _ in 0..10 {
            b.ops.get.record(1_000_000);
        }
        let mut fold = a.ops.snapshot();
        fold.merge(&b.ops.snapshot());
        let s = fold.summarize(GLOBAL_SHARD).get;
        assert_eq!(s.count, 100);
        assert!(s.p50_ns <= 100);
        assert!(s.p99_ns >= 900_000, "tail comes from the slow shard");
        // Mean of the fold is the true pooled mean, not (mean+mean)/2.
        assert_eq!(s.mean_ns, (90 * 100 + 10 * 1_000_000) / 100);
    }
}
