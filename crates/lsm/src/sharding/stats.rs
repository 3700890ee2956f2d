//! What a sharded engine reports: merged counters, the residency and
//! balance report behind the split trigger, and the metrics scrape that
//! carries both (ARCHITECTURE.md §7).

use super::{imbalance, RoutingState, ShardedDb};
use crate::stats::{DbStats, StatsSnapshot};
use lsm_obs::MetricsSnapshot;

/// Residency + balance report of one [`ShardedDb`] — the observability
/// the split trigger acts on, exposed so an operator can watch a split
/// coming before it fires. Obtained from [`ShardedDb::sharded_stats`].
#[derive(Debug, Clone)]
pub struct ShardedStats {
    /// Engine counters summed across every shard (plus the sharding
    /// layer's own split/checkpoint counters).
    pub merged: StatsSnapshot,
    /// The current topology epoch.
    pub topology_epoch: u64,
    /// Stable shard ids in routing order.
    pub shard_ids: Vec<u16>,
    /// Resident bytes per shard (tables + memtables) in routing order —
    /// what the split trigger compares.
    pub resident_bytes: Vec<u64>,
    /// Resident entries per shard (tables + active memtable).
    pub resident_entries: Vec<u64>,
    /// `max/mean - 1` over `resident_bytes`.
    pub resident_imbalance: f64,
    /// Markers live in the active commit-log generation.
    pub live_commit_markers: usize,
}

impl ShardedStats {
    /// The scrape's counters: every merged engine counter, then
    /// `topology_epoch`, `live_commit_markers`, and per shard in routing
    /// order `shard{id}_resident_bytes` / `shard{id}_resident_entries`
    /// (the `level{N}_…` convention, keyed by stable id). The two ratios
    /// are not carried — `resident_imbalance` is a function of the
    /// per-shard bytes, [`StatsSnapshot::write_amplification`] one of
    /// `flush_bytes_written` and `compact_bytes_written`.
    pub fn counter_pairs(&self) -> Vec<(String, u64)> {
        let markers = self.live_commit_markers as u64;
        let mut out = self.merged.counter_pairs();
        out.push(("topology_epoch".into(), self.topology_epoch));
        out.push(("live_commit_markers".into(), markers));
        for (pos, id) in self.shard_ids.iter().enumerate() {
            let (bytes, entries) = (self.resident_bytes[pos], self.resident_entries[pos]);
            out.push((format!("shard{id}_resident_bytes"), bytes));
            out.push((format!("shard{id}_resident_entries"), entries));
        }
        out
    }
}

impl ShardedDb {
    /// Engine counters summed across every shard plus the sharding
    /// layer's own (peaks take the max) — [`DbStats::merged`] over the
    /// per-shard blocks.
    pub fn stats(&self) -> StatsSnapshot {
        let state = self.core.current_state();
        let mut snap = DbStats::merged(
            state
                .shards
                .iter()
                .map(|d| d.stats())
                .chain(std::iter::once(&self.core.own_stats)),
        );
        // Cache counters live in the cache itself, not in any `DbStats`
        // block.
        if let Some(cache) = &self.core.cache {
            snap.absorb_cache(&cache.stats());
        }
        snap
    }

    /// Residency and balance report: per-shard resident bytes/entries and
    /// their imbalance — the observability behind the split trigger.
    pub fn sharded_stats(&self) -> ShardedStats {
        self.report(&self.core.current_state())
    }

    fn report(&self, state: &RoutingState) -> ShardedStats {
        let resident_bytes: Vec<u64> = state.shards.iter().map(|d| d.resident_bytes()).collect();
        let resident_entries = Self::entry_counts(state);
        ShardedStats {
            merged: self.stats(),
            topology_epoch: state.epoch,
            shard_ids: state.ids.clone(),
            resident_imbalance: imbalance(&resident_bytes),
            resident_bytes,
            resident_entries,
            live_commit_markers: self.core.commit_log.lock().live_markers(),
        }
    }

    /// Assemble the scrapeable [`MetricsSnapshot`] (see `Db::metrics`, its
    /// one-shard case): the merged counters and the residency report of
    /// [`ShardedStats::counter_pairs`], both from one routing state;
    /// with observability on, per-shard latency summaries, their fold and
    /// the drained event timeline.
    pub fn metrics(&self) -> MetricsSnapshot {
        let state = self.core.current_state();
        let shards = state.shards.iter().filter_map(|db| db.observability());
        let observer = self.core.observer.as_deref();
        let counters = self.report(&state).counter_pairs();
        MetricsSnapshot::collect(counters, observer, shards.map(|obs| &**obs))
    }
}
