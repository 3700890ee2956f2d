//! Engine instrumentation.
//!
//! Every figure in the paper's evaluation needs a different slice of the
//! engine's behaviour: per-stage lookup times (Fig. 7, Table 1), per-level
//! read counts (Fig. 10), compaction stage breakdown (Fig. 9), and index
//! memory (Figs. 6, 8, 11, 12). [`DbStats`] collects all of them with
//! relaxed atomics so the hot path stays cheap.
//!
//! Every counter is declared **once**, in the `engine_counters!` table
//! below, with its doc comment and its class. The macro expands the table
//! into [`DbStats`], [`StatsSnapshot`], `snapshot`, `since`, `absorb_cache`,
//! `counter_pairs` and `+=`; the one scrape, METRICS, renders
//! [`StatsSnapshot::counter_pairs`].

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::version::MAX_LEVELS;

/// One lookup in this many is timed (see [`DbStats::begin_lookup`]).
pub const STAGE_SAMPLE_PERIOD: u64 = 16;

thread_local! {
    /// What a stage nanosecond on this thread counts for: the period inside
    /// a sampled lookup, 0 inside an unsampled one, 1 outside any lookup.
    static STAGE_WEIGHT: Cell<u64> = const { Cell::new(1) };
}

/// One point lookup, from [`DbStats::begin_lookup`] until this is dropped.
#[must_use]
pub struct LookupScope(());

impl Drop for LookupScope {
    fn drop(&mut self) {
        STAGE_WEIGHT.set(1);
    }
}

/// Stopwatch for one stage of a lookup; inside an unsampled lookup it never
/// reads the clock.
pub struct StageTimer(Option<Instant>);

impl StageTimer {
    #[inline]
    pub fn start() -> Self {
        StageTimer((STAGE_WEIGHT.get() > 0).then(Instant::now))
    }

    /// Nanoseconds since `start` (0 inside an unsampled lookup).
    #[inline]
    pub fn ns(&self) -> u64 {
        self.0.map_or(0, |t| t.elapsed().as_nanos() as u64)
    }
}

/// Add `ns` of a stage of the current lookup to `sum`, at the lookup's weight.
#[inline]
pub fn add_stage_ns(sum: &AtomicU64, ns: u64) {
    let weight = STAGE_WEIGHT.get();
    if weight > 0 {
        sum.fetch_add(ns * weight, Ordering::Relaxed);
    }
}

/// A counter class: `(since(later, earlier), merge(a, b))`.
type Class = (fn(u64, u64) -> u64, fn(u64, u64) -> u64);
/// Monotone count: a diff subtracts, a merge adds.
const SUM: Class = (|later, earlier| later - earlier, |a, b| a + b);
/// High-water mark: a fleet's peak is its worst shard's, not the sum.
const PEAK: Class = (|later, _| later, u64::max);
/// A reading: separate engines' caches add up to the fleet's footprint.
const GAUGE: Class = (|later, _| later, |a, b| a + b);

/// Expands the counter table. `engine`: an atomic in [`DbStats`], scraped
/// under its field name. `cache`: owned by the `BlockCache` — absent from
/// `DbStats`, zero after `snapshot()`, set by `absorb_cache` from the named
/// `CacheStats` field. `level`: one `SUM` per LSM level, scraped as
/// `level{N}_{wire}`; a bracketed group is emitted for level N when any
/// member is non-zero there, so a small tree does not scrape 48 zeros.
/// `live`: gauges read in place, never snapshotted.
macro_rules! engine_counters {
    (
        engine { $( $(#[$em:meta])* $ec:ident $e:ident, )* }
        cache { $( $(#[$cm:meta])* $cc:ident $c:ident = $src:ident, )* }
        level { $( [ $( $(#[$lm:meta])* $l:ident as $wire:literal ),* ], )* }
        live { $( $(#[$gm:meta])* $g:ident, )* }
    ) => {
        /// Shared engine counters. Cloneable snapshots via [`DbStats::snapshot`].
        #[derive(Debug, Default)]
        pub struct DbStats {
            $( $(#[$em])* pub $e: AtomicU64, )*
            $($( $(#[$lm])* pub $l: [AtomicU64; MAX_LEVELS], )*)*
            $( $(#[$gm])* pub $g: AtomicU64, )*
        }

        /// Point-in-time copy of [`DbStats`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct StatsSnapshot {
            $( $(#[$em])* pub $e: u64, )*
            $( $(#[$cm])* pub $c: u64, )*
            $($( $(#[$lm])* pub $l: [u64; MAX_LEVELS], )*)*
        }

        impl DbStats {
            /// Copy the current counter values. The engine cache keeps its own
            /// atomics; fold them in with [`StatsSnapshot::absorb_cache`].
            pub fn snapshot(&self) -> StatsSnapshot {
                StatsSnapshot {
                    $( $e: self.$e.load(Ordering::Relaxed), )*
                    $( $c: 0, )*
                    $($( $l: std::array::from_fn(|i| self.$l[i].load(Ordering::Relaxed)), )*)*
                }
            }
        }

        impl StatsSnapshot {
            /// Deltas since `earlier`; peaks and gauges keep the later value.
            pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
                StatsSnapshot {
                    $( $e: $ec.0(self.$e, earlier.$e), )*
                    $( $c: $cc.0(self.$c, earlier.$c), )*
                    $($( $l: std::array::from_fn(|i| self.$l[i] - earlier.$l[i]), )*)*
                }
            }

            /// Set this snapshot's cache counters from the engine cache's —
            /// an engine, sharded or not, has one cache or none.
            pub fn absorb_cache(&mut self, cache: &crate::cache::CacheStats) {
                $( self.$c = cache.$src; )*
            }

            /// Flatten into `(name, value)` pairs for the scrape
            /// (`MetricsSnapshot::counters`): scalar counters under their
            /// field names, then `level{N}_…` for busy levels.
            pub fn counter_pairs(&self) -> Vec<(String, u64)> {
                let mut out = vec![
                    $( (stringify!($e).to_string(), self.$e), )*
                    $( (stringify!($c).to_string(), self.$c), )*
                ];
                $( for i in 0..MAX_LEVELS {
                    if $( self.$l[i] > 0 )||* {
                        $( out.push((format!(concat!("level{}_", $wire), i), self.$l[i])); )*
                    }
                } )*
                out
            }
        }

        /// Class-wise merge — what makes per-shard stats composable into one
        /// engine-level report.
        impl std::ops::AddAssign for StatsSnapshot {
            fn add_assign(&mut self, rhs: StatsSnapshot) {
                $( self.$e = $ec.1(self.$e, rhs.$e); )*
                $( self.$c = $cc.1(self.$c, rhs.$c); )*
                for i in 0..MAX_LEVELS {
                    $($( self.$l[i] += rhs.$l[i]; )*)*
                }
            }
        }

        /// A snapshot holding `base + step * i` in its `i`-th slot, so the
        /// class test walks the whole table instead of a hand-picked few.
        #[cfg(test)]
        fn numbered(base: u64, step: u64) -> StatsSnapshot {
            let mut slots = (0..).map(|i| base + step * i);
            let mut next = || slots.next().unwrap();
            StatsSnapshot {
                $( $e: next(), )*
                $( $c: next(), )*
                $($( $l: std::array::from_fn(|_| next()), )*)*
            }
        }
    };
}

engine_counters! {
    engine {
        // Point lookup stage timers (Table 1 / Figure 7). "Sampled": one
        // lookup in `STAGE_SAMPLE_PERIOD` is timed and counts that many times
        // — an unbiased total, to divide by the exact counts.
        /// Point lookups started ([`DbStats::begin_lookup`]). Exact.
        SUM lookups,
        /// Locating each sorted level's candidate table. Sampled.
        SUM table_locate_ns,
        /// Index prediction (inner index + model). Sampled.
        SUM predict_ns,
        /// Fetching the position boundary, cache or device. Sampled.
        SUM io_cpu_ns,
        /// Searching the fetched boundary. Sampled.
        SUM search_ns,
        // Bloom behaviour.
        SUM bloom_checks,
        SUM bloom_negatives,
        SUM memtable_hits,
        // Write path / group commit. One `Db::write` = one batch; the writer
        // queue fuses the batches of concurrent writers into **commit groups**
        // (`write_groups`), each logged as one WAL record — so `wal_appends`
        // equals `write_groups` (not `write_batches`) and the gap between
        // `write_batches` and `write_groups` measures how much fusing the
        // queue achieved under concurrency.
        SUM write_batches,
        SUM write_entries,
        SUM write_groups,
        SUM wal_appends,
        SUM wal_bytes,
        SUM wal_syncs,
        // Maintenance: compaction breakdown (Figure 9), write-amp accounting.
        SUM flushes,
        /// Bytes flushes wrote into L0 (the denominator of
        /// [`StatsSnapshot::write_amplification`]).
        SUM flush_bytes_written,
        /// Compaction jobs, moves included.
        SUM compactions,
        /// Jobs that moved their one input down a level unchanged: no
        /// merge, no file created or removed, no bytes read or written.
        SUM compaction_moves,
        SUM compact_total_ns,
        SUM compact_kv_io_ns,
        SUM compact_train_ns,
        SUM compact_model_write_ns,
        SUM compact_bytes_read,
        SUM compact_bytes_written,
        /// Tables whose index and filter trained on a helper thread beside
        /// the next table's merge (the rest train inline).
        SUM seals_off_thread,
        // Range scans (Figure 11).
        SUM scans,
        SUM scan_entries,
        // Background maintenance (`Maintenance::Background`): write
        // backpressure and worker activity.
        /// Writes delayed ~1 ms because L0 reached `L0_SLOWDOWN_TRIGGER`.
        SUM stall_slowdowns,
        /// Write stalls that blocked until maintenance caught up (L0 at
        /// `L0_STOP_TRIGGER`, or the immutable-memtable queue full).
        SUM stall_stops,
        /// Total wall time writers spent stalled (both kinds), in ns.
        SUM stall_ns,
        /// Memtable rotations onto the immutable queue.
        SUM imm_rotations,
        /// High-water mark of the immutable-memtable queue depth.
        PEAK imm_queue_peak,
        /// Busy time of background flush workers, in ns.
        SUM bg_flush_ns,
        /// Busy time of background compaction workers, in ns.
        SUM bg_compact_ns,
        /// Errors surfaced by background workers (the last one is also kept
        /// by the Db for inspection).
        SUM bg_errors,
        /// Writes that completed while at least one background worker was
        /// busy — the counter that proves foreground/maintenance overlap.
        SUM writes_during_maintenance,
        /// Live shard splits completed by the sharding layer (counted on the
        /// [`crate::sharding::ShardedDb`]'s own stats block, merged into
        /// `ShardedDb::stats()`).
        SUM shard_splits,
        /// Runtime commit-marker log checkpoints (markers below the flush
        /// watermark dropped without a reopen).
        SUM commit_checkpoints,
    }
    cache {
        SUM cache_block_hits = block_hits,
        SUM cache_block_misses = block_misses,
        SUM cache_block_evictions = block_evictions,
        /// Bytes currently charged; summing snapshots adds (separate
        /// engines' caches combine into the fleet's total footprint).
        GAUGE cache_used_bytes = used_bytes,
        /// The byte ceiling.
        GAUGE cache_capacity_bytes = capacity_bytes,
    }
    level {
        // Per-level reads (Figure 10).
        [
            /// Lookups answered by each level. Exact.
            level_reads as "reads",
            /// The answering table read, by level. Sampled.
            level_read_ns as "read_ns"
        ],
        // Per-level write-amp attribution: where maintenance traffic lands.
        [
            /// Compaction input bytes by the level they were read from.
            compact_level_bytes_read as "compact_bytes_read",
            /// Compaction output bytes by the level they were written to.
            compact_level_bytes_written as "compact_bytes_written"
        ],
    }
    live {
        /// Gauge: claimed flushes and compactions currently executing,
        /// whoever drives them (not part of [`StatsSnapshot`]; read via
        /// [`DbStats::active_background_workers`]).
        bg_active,
        /// Gauge: writers currently blocked in a hard stop (not part of
        /// [`StatsSnapshot`]; read via [`DbStats::stalled_writers`]).
        stalled_now,
    }
}

impl DbStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Count one point lookup and decide whether it is timed: the first of
    /// every [`STAGE_SAMPLE_PERIOD`] is, in full (all of its stages or none,
    /// so no timer site can fall in step with the period), at that weight.
    /// A stage run outside any lookup is timed every time at weight 1.
    #[inline]
    pub fn begin_lookup(&self) -> LookupScope {
        let nth = self.lookups.fetch_add(1, Ordering::Relaxed);
        STAGE_WEIGHT.set(match nth % STAGE_SAMPLE_PERIOD {
            0 => STAGE_SAMPLE_PERIOD,
            _ => 0,
        });
        LookupScope(())
    }

    /// Record one read that was served by level `level`.
    pub(crate) fn record_level_read(&self, level: usize, ns: u64) {
        if level < MAX_LEVELS {
            self.level_reads[level].fetch_add(1, Ordering::Relaxed);
            add_stage_ns(&self.level_read_ns[level], ns);
        }
    }

    /// Attribute compaction input bytes to the level they were read from.
    pub(crate) fn record_compact_read(&self, level: usize, bytes: u64) {
        if level < MAX_LEVELS {
            self.compact_level_bytes_read[level].fetch_add(bytes, Ordering::Relaxed);
        }
    }

    /// Attribute compaction output bytes to the level they were written to.
    pub(crate) fn record_compact_write(&self, level: usize, bytes: u64) {
        if level < MAX_LEVELS {
            self.compact_level_bytes_written[level].fetch_add(bytes, Ordering::Relaxed);
        }
    }

    /// Record a memtable rotation that left the immutable queue `depth` deep.
    pub(crate) fn record_rotation(&self, depth: usize) {
        self.imm_rotations.fetch_add(1, Ordering::Relaxed);
        self.imm_queue_peak
            .fetch_max(depth as u64, Ordering::Relaxed);
    }

    /// Record one writer stall of `ns` wall time. `stopped` distinguishes a
    /// hard stop (blocked on maintenance) from a slowdown delay.
    pub(crate) fn record_stall(&self, stopped: bool, ns: u64) {
        if stopped {
            self.stall_stops.fetch_add(1, Ordering::Relaxed);
        } else {
            self.stall_slowdowns.fetch_add(1, Ordering::Relaxed);
        }
        self.stall_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Flushes and compactions currently executing — under background
    /// maintenance, the pool workers that are mid-task.
    pub fn active_background_workers(&self) -> u64 {
        self.bg_active.load(Ordering::Relaxed)
    }

    /// Writers currently blocked in a hard stop (stop trigger / queue
    /// full), waiting for maintenance to catch up.
    pub fn stalled_writers(&self) -> u64 {
        self.stalled_now.load(Ordering::Relaxed)
    }

    /// Sum the current counters of several stats blocks into one snapshot —
    /// the per-shard → whole-engine aggregation behind
    /// `ShardedDb::stats()`, usable standalone for any fleet of engines.
    /// High-water marks (`imm_queue_peak`) take the maximum instead.
    pub fn merged<'a>(stats: impl IntoIterator<Item = &'a DbStats>) -> StatsSnapshot {
        stats
            .into_iter()
            .map(DbStats::snapshot)
            .fold(StatsSnapshot::default(), |acc, s| acc + s)
    }
}

impl StatsSnapshot {
    /// Device write amplification of the maintenance pipeline: every byte
    /// written by flushes and compactions, per byte of user data flushed.
    /// `1.0` means no compaction traffic yet; `0.0` means nothing flushed.
    pub fn write_amplification(&self) -> f64 {
        if self.flush_bytes_written == 0 {
            return 0.0;
        }
        (self.flush_bytes_written + self.compact_bytes_written) as f64
            / self.flush_bytes_written as f64
    }

    /// The compaction breakdown of Figure 9.
    pub fn compaction_breakdown(&self) -> CompactionBreakdown {
        CompactionBreakdown {
            total_ns: self.compact_total_ns,
            kv_io_ns: self.compact_kv_io_ns,
            train_ns: self.compact_train_ns,
            model_write_ns: self.compact_model_write_ns,
        }
    }
}

impl std::ops::Add for StatsSnapshot {
    type Output = StatsSnapshot;
    fn add(mut self, rhs: StatsSnapshot) -> StatsSnapshot {
        self += rhs;
        self
    }
}

/// Aggregate compaction stage times (Figure 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionBreakdown {
    pub total_ns: u64,
    pub kv_io_ns: u64,
    pub train_ns: u64,
    pub model_write_ns: u64,
}

impl CompactionBreakdown {
    /// Fraction of compaction time spent training (paper: <5% for most
    /// indexes, 10–15% for PLEX). `train_ns` is every output table's
    /// training time wherever it ran, while `total_ns` is the merge's wall
    /// time; a table trained on a helper beside the next table's merge
    /// (see [`crate::compaction::LevelWriter`]) adds to the first and only
    /// its wait at the join to the second, so the share reads higher than
    /// the merge thread's own — and `kv_io_ns` subtracts only the training
    /// a merge thread ran inline or waited on.
    pub fn train_fraction(&self) -> f64 {
        self.train_ns as f64 / self.total_ns.max(1) as f64
    }

    /// Fraction spent serializing models.
    pub fn model_write_fraction(&self) -> f64 {
        self.model_write_ns as f64 / self.total_ns.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_counter_obeys_its_class() {
        let (earlier, later) = (numbered(1, 1), numbered(1000, 3));
        let scrape = |s: StatsSnapshot| s.counter_pairs();
        let (old, new) = (scrape(earlier), scrape(later));
        let (diff, sum) = (scrape(later.since(&earlier)), scrape(earlier + later));
        // Every slot is non-zero in all four, so the four scrapes line up.
        assert_eq!(sum.len(), std::mem::size_of::<StatsSnapshot>() / 8);
        let mut not_sums = Vec::new();
        for i in 0..sum.len() {
            let (name, e, l) = (&*old[i].0, old[i].1, new[i].1);
            match (diff[i].1, sum[i].1) {
                got if got == (l - e, e + l) => {}
                got if got == (l, e.max(l)) => not_sums.push((name, "peak")),
                got if got == (l, e + l) => not_sums.push((name, "gauge")),
                got => panic!("{name}: (since, +) = {got:?} of ({e}, {l}) obeys no class"),
            }
        }
        // The classes that are not plain sums, pinned independently of the
        // table: declaring any other counter `PEAK`/`GAUGE` (or these `SUM`)
        // fails here.
        let want = [
            ("imm_queue_peak", "peak"),
            ("cache_used_bytes", "gauge"),
            ("cache_capacity_bytes", "gauge"),
        ];
        assert_eq!(not_sums, want);
    }

    /// Wire names and order of a scrape with every counter non-zero, as the
    /// hand-written lists this table replaced emitted them.
    #[test]
    fn counter_pairs_names_are_pinned() {
        const SCALARS: &str = "lookups table_locate_ns predict_ns io_cpu_ns search_ns \
            bloom_checks bloom_negatives memtable_hits write_batches write_entries \
            write_groups wal_appends wal_bytes wal_syncs flushes flush_bytes_written \
            compactions compaction_moves compact_total_ns compact_kv_io_ns compact_train_ns \
            compact_model_write_ns compact_bytes_read compact_bytes_written \
            seals_off_thread scans scan_entries stall_slowdowns stall_stops stall_ns imm_rotations imm_queue_peak \
            bg_flush_ns bg_compact_ns bg_errors writes_during_maintenance shard_splits \
            commit_checkpoints cache_block_hits cache_block_misses cache_block_evictions \
            cache_used_bytes cache_capacity_bytes";
        let mut want: Vec<String> = SCALARS.split_whitespace().map(String::from).collect();
        let groups = [
            ["reads", "read_ns"],
            ["compact_bytes_read", "compact_bytes_written"],
        ];
        for group in groups {
            for level in 0..MAX_LEVELS {
                want.extend(group.iter().map(|wire| format!("level{level}_{wire}")));
            }
        }
        let scrape = numbered(1, 1).counter_pairs();
        assert_eq!(scrape.into_iter().map(|p| p.0).collect::<Vec<_>>(), want);
    }

    #[test]
    fn snapshot_diffs() {
        let s = DbStats::new();
        s.lookups.fetch_add(5, Ordering::Relaxed);
        add_stage_ns(&s.predict_ns, 100);
        let a = s.snapshot();
        s.lookups.fetch_add(3, Ordering::Relaxed);
        add_stage_ns(&s.predict_ns, 50);
        s.record_level_read(2, 42);
        let d = s.snapshot().since(&a);
        assert_eq!((d.lookups, d.predict_ns), (3, 50));
        assert_eq!((d.level_reads[2], d.level_read_ns[2]), (1, 42));
    }

    /// No clock: a constant 10 ns per stage through 1 600 lookups. One in
    /// 16 is sampled and counts 16 times, so the sums come back exact.
    #[test]
    fn sampled_stage_sums_are_unbiased_and_counts_exact() {
        let s = DbStats::new();
        for i in 0..1_600 {
            let _lookup = s.begin_lookup();
            assert_eq!(StageTimer::start().0.is_some(), i % 16 == 0, "lookup {i}");
            for sum in [
                &s.table_locate_ns,
                &s.predict_ns,
                &s.io_cpu_ns,
                &s.search_ns,
            ] {
                add_stage_ns(sum, 10);
            }
            s.record_level_read(1, 10);
        }
        let snap = s.snapshot();
        assert_eq!((snap.lookups, snap.level_reads[1]), (1_600, 1_600));
        let sums = [snap.table_locate_ns, snap.predict_ns, snap.io_cpu_ns];
        assert_eq!(sums, [16_000; 3]);
        assert_eq!((snap.search_ns, snap.level_read_ns[1]), (16_000, 16_000));
        // Outside a lookup every call is timed and counts once.
        assert!(StageTimer::start().0.is_some());
        add_stage_ns(&s.search_ns, 5);
        assert_eq!(s.snapshot().search_ns, 16_005);
    }

    #[test]
    fn compaction_fractions() {
        let c = CompactionBreakdown {
            total_ns: 1_000,
            kv_io_ns: 900,
            train_ns: 40,
            model_write_ns: 20,
        };
        assert!((c.train_fraction() - 0.04).abs() < 1e-9);
        assert!((c.model_write_fraction() - 0.02).abs() < 1e-9);
    }

    #[test]
    fn stall_and_rotation_counters() {
        let s = DbStats::new();
        s.record_stall(false, 100);
        s.record_stall(true, 400);
        s.record_rotation(1);
        s.record_rotation(3);
        s.record_rotation(2);
        let snap = s.snapshot();
        assert_eq!((snap.stall_slowdowns, snap.stall_stops), (1, 1));
        assert_eq!(snap.stall_ns, 500);
        assert_eq!(snap.imm_rotations, 3);
        assert_eq!(snap.imm_queue_peak, 3, "peak is a high-water mark");
    }

    #[test]
    fn add_sums_counters_and_maxes_peak() {
        let a = DbStats::new();
        a.lookups.fetch_add(3, Ordering::Relaxed);
        a.record_rotation(2);
        let b = DbStats::new();
        b.lookups.fetch_add(4, Ordering::Relaxed);
        b.record_rotation(5);
        // The helper folds the live blocks the way `+` folds snapshots.
        let sum = DbStats::merged([&a, &b]);
        assert_eq!(sum, a.snapshot() + b.snapshot());
        assert_eq!((sum.lookups, sum.imm_queue_peak), (7, 5));
        let none = DbStats::merged([]);
        assert_eq!(none, StatsSnapshot::default(), "empty merge is zero");
    }

    #[test]
    fn counter_pairs_flatten_scalars_and_busy_levels() {
        let s = DbStats::new();
        s.lookups.fetch_add(9, Ordering::Relaxed);
        s.record_level_read(2, 42);
        s.record_compact_write(3, 7);
        let pairs = s.snapshot().counter_pairs();
        let get = |name: &str| pairs.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
        assert_eq!(get("lookups"), Some(9));
        assert_eq!(get("level2_reads"), Some(1));
        assert_eq!(get("level2_read_ns"), Some(42));
        assert_eq!(get("level0_reads"), None, "idle levels stay off the wire");
        // A group flattens together, and only where it saw traffic.
        assert_eq!(get("level3_compact_bytes_read"), Some(0));
        assert_eq!(get("level3_compact_bytes_written"), Some(7));
        assert_eq!(get("level3_reads"), None);
    }

    #[test]
    fn level_reads_out_of_range_ignored() {
        let s = DbStats::new();
        s.record_level_read(MAX_LEVELS + 3, 1); // must not panic
        assert_eq!(s.snapshot().level_reads.iter().sum::<u64>(), 0);
    }
}
