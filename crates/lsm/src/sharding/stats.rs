//! What a sharded engine reports: merged counters, the residency and
//! balance report behind the split trigger, and the metrics scrape
//! (ARCHITECTURE.md §7).

use super::{imbalance, ShardedDb};
use crate::stats::{DbStats, StatsSnapshot};
use lsm_obs::{MetricsSnapshot, GLOBAL_SHARD};

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
        let state = self.core.current_state();
        let resident_bytes: Vec<u64> = state.shards.iter().map(|d| d.resident_bytes()).collect();
        let resident_entries = Self::entry_counts(&state);
        ShardedStats {
            merged: self.stats(),
            topology_epoch: state.epoch,
            shard_ids: state.ids.clone(),
            resident_imbalance: imbalance(&resident_bytes),
            resident_bytes,
            resident_entries,
            live_commit_markers: self
                .core
                .commit_log
                .as_ref()
                .map_or(0, |l| l.lock().live_markers()),
        }
    }

    /// Assemble the scrapeable [`MetricsSnapshot`]: merged `DbStats`
    /// counters always; with observability on, per-shard latency
    /// summaries plus the cross-shard **histogram fold** (bucket-wise
    /// merge — quantiles of the union, never averages of per-shard
    /// quantiles) and the drained event timeline. Draining consumes the
    /// ring: each event appears in exactly one scrape.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::disabled();
        snap.counters = self.stats().counter_pairs();
        let Some(observer) = self.core.observer.as_deref() else {
            return snap;
        };
        snap.enabled = true;
        let state = self.core.current_state();
        let mut fold = lsm_obs::OpHistSet::default();
        for (pos, db) in state.shards.iter().enumerate() {
            let Some(obs) = db.observability() else {
                continue;
            };
            let set = obs.ops.snapshot();
            fold.merge(&set);
            snap.shards.push(set.summarize(state.ids[pos]));
        }
        snap.total = fold.summarize(GLOBAL_SHARD);
        snap.events = observer.drain();
        snap.dropped_events = observer.dropped();
        snap
    }
}
