//! Leveled partial compaction (paper Section 2.1 / Figure 9).
//!
//! * L0→L1 when L0 accumulates `l0_compaction_trigger` flushed buffers
//!   (all of L0 merges, because L0 tables overlap).
//! * Ln→Ln+1 (n ≥ 1) when the level exceeds its `T`-exponential target;
//!   one input table is picked round-robin (cursor per level) plus the
//!   next-level tables it overlaps — LevelDB's partial compaction.
//!
//! The merge deduplicates versions (one survivor per user key) and drops
//! tombstones when the output is the bottom-most populated level. Outputs
//! rotate at the SSTable granularity target. Index training and model
//! serialization inside [`TableBuilder::finish`] are timed separately so
//! Figure 9's breakdown falls out directly.
//!
//! **Subcompactions** ([`Options::max_subcompactions`] > 1): one
//! logical compaction is range-partitioned into disjoint
//! user-key sub-ranges ([`plan_subcompactions`] cuts at byte-weighted
//! input-table boundaries so each sub-range carries ≈even work) and each
//! sub-range merges on its own scoped thread. Correctness at the seams
//! rests on cuts being *user-key* boundaries: every version of a user
//! key lands in exactly one sub-range, so the per-subcompaction
//! [`KeyRetention`] state machine sees complete version chains and
//! tombstone elision is identical to the single-threaded merge. The
//! caller installs all sub-outputs through **one** version edit and one
//! manifest seal — a partial compaction is never visible, and a crash
//! leaves only orphan output files (swept on the next open).

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::cache::BlockCache;
use crate::iter::{Cursor, Merge};
use crate::options::Options;
use crate::sstable::{TableBuilder, TableIter, TableMeta, TableReader};
use crate::stats::DbStats;
use crate::types::{EntryKind, InternalKey};
use crate::version::{TableHandle, Version};
use crate::Result;
use lsm_io::Storage;
use lsm_obs::{EngineObs, EventKind};

/// Version-retention state machine for merges (flushes and compactions).
///
/// Feed it each entry in merge order (user key ascending, sequence
/// descending within a key); [`KeyRetention::keep`] answers whether the
/// entry must be written out:
///
/// * only the newest version of each user key survives (every SSTable holds
///   at most one version per key — the strictly-increasing key column is
///   what the learned index models train on);
/// * a tombstone is additionally elided when the output is the bottom of
///   the tree (`elide_tombstones`) — there is nothing underneath left to
///   mask.
///
/// Older versions pinned by a live [`crate::Snapshot`] do **not** need to
/// survive the merge: snapshots read through their pinned `Version`, whose
/// `Arc`s keep the pre-merge tables alive for as long as the handle does.
#[derive(Debug)]
pub struct KeyRetention {
    elide_tombstones: bool,
    current_key: Option<u64>,
}

impl KeyRetention {
    /// Retention for a merge whose output lands at the tree bottom iff
    /// `elide_tombstones`.
    pub fn new(elide_tombstones: bool) -> Self {
        Self {
            elide_tombstones,
            current_key: None,
        }
    }

    /// Whether the entry with internal key `key` must be written out.
    pub fn keep(&mut self, key: &InternalKey) -> bool {
        if self.current_key == Some(key.user_key) {
            return false; // shadowed by a newer version already emitted
        }
        self.current_key = Some(key.user_key);
        !(self.elide_tombstones && key.kind == EntryKind::Delete)
    }
}

/// A planned compaction.
#[derive(Debug)]
pub struct CompactionTask {
    /// Source level (0 for L0→L1).
    pub level: usize,
    /// Input tables from `level`.
    pub inputs: Vec<Arc<TableHandle>>,
    /// Overlapping tables from `level + 1`.
    pub next_inputs: Vec<Arc<TableHandle>>,
    /// Whether tombstones can be dropped (output is the bottom level).
    pub is_bottom: bool,
}

impl CompactionTask {
    /// All input file names (to delete after the edit is applied).
    pub fn input_names(&self) -> Vec<String> {
        self.inputs
            .iter()
            .chain(self.next_inputs.iter())
            .map(|t| t.meta.name.clone())
            .collect()
    }

    /// Total input bytes.
    pub fn input_bytes(&self) -> u64 {
        self.inputs
            .iter()
            .chain(self.next_inputs.iter())
            .map(|t| t.meta.file_bytes)
            .sum()
    }
}

/// Decide whether any level needs compacting. `cursors` is the per-level
/// round-robin key cursor (advanced by [`advance_cursor`]).
pub fn pick_compaction(
    version: &Version,
    opts: &Options,
    cursors: &[u64],
) -> Option<CompactionTask> {
    pick_compaction_excluding(version, opts, cursors, &HashSet::new())
}

/// [`pick_compaction`] that never selects a task whose inputs intersect
/// `busy` (tables claimed by an in-flight background compaction). A level
/// whose due work is blocked is skipped, so disjoint tasks at other levels
/// can still run concurrently. With an empty `busy` set this is exactly
/// the synchronous picker.
pub fn pick_compaction_excluding(
    version: &Version,
    opts: &Options,
    cursors: &[u64],
    busy: &HashSet<String>,
) -> Option<CompactionTask> {
    let is_busy = |t: &Arc<TableHandle>| busy.contains(&t.meta.name);
    // L0 first: file-count pressure stalls writes soonest.
    if version.levels[0].len() >= opts.l0_compaction_trigger {
        let inputs = version.levels[0].clone();
        let min = inputs.iter().map(|t| t.meta.min_key).min()?;
        let max = inputs.iter().map(|t| t.meta.max_key).max()?;
        let next_inputs = version.overlapping(1, min, max);
        if !inputs.iter().chain(next_inputs.iter()).any(is_busy) {
            return Some(CompactionTask {
                level: 0,
                inputs,
                next_inputs,
                is_bottom: is_bottom_output(version, 1),
            });
        }
        // An L0 merge is already in flight; fall through to deeper levels.
    }
    // Size-triggered levels.
    for level in 1..version.levels.len() - 1 {
        if version.level_bytes(level) > opts.level_target_bytes(level) {
            let tables = &version.levels[level];
            if tables.is_empty() {
                continue;
            }
            // Round-robin: first table whose max key is past the cursor,
            // skipping tables (or next-level overlaps) already claimed.
            let cursor = cursors.get(level).copied().unwrap_or(0);
            let start = tables
                .iter()
                .position(|t| t.meta.max_key > cursor)
                .unwrap_or(0);
            let candidate = (0..tables.len())
                .map(|i| &tables[(start + i) % tables.len()])
                .find_map(|input| {
                    if is_busy(input) {
                        return None;
                    }
                    let next_inputs =
                        version.overlapping(level + 1, input.meta.min_key, input.meta.max_key);
                    if next_inputs.iter().any(is_busy) {
                        return None;
                    }
                    Some((Arc::clone(input), next_inputs))
                });
            if let Some((input, next_inputs)) = candidate {
                return Some(CompactionTask {
                    level,
                    inputs: vec![input],
                    next_inputs,
                    is_bottom: is_bottom_output(version, level + 1),
                });
            }
        }
    }
    None
}

/// Advance the round-robin cursor for `task`'s source level, using the
/// pre-apply `version` (the structure the task was picked from). L0 has no
/// cursor; a task that consumed the level's last table wraps to 0.
pub fn advance_cursor(version: &Version, task: &CompactionTask, cursors: &mut [u64]) {
    if task.level == 0 || task.level >= cursors.len() {
        return;
    }
    let max = task
        .inputs
        .iter()
        .map(|t| t.meta.max_key)
        .max()
        .unwrap_or(0);
    let tables = &version.levels[task.level];
    let is_last = tables.last().map(|t| t.meta.max_key <= max).unwrap_or(true);
    cursors[task.level] = if is_last { 0 } else { max };
}

/// True when `output_level` is (or will be) the deepest populated level, so
/// tombstones have nothing left to mask.
fn is_bottom_output(version: &Version, output_level: usize) -> bool {
    version
        .levels
        .iter()
        .skip(output_level + 1)
        .all(Vec::is_empty)
}

/// Outcome of a compaction run.
#[derive(Debug)]
pub struct CompactionResult {
    /// Newly written tables (for `task.level + 1`), ascending and disjoint
    /// in key space across the whole job regardless of how many
    /// subcompactions produced them.
    pub outputs: Vec<Arc<TableHandle>>,
    /// Bytes read from inputs.
    pub bytes_read: u64,
    /// Bytes written to outputs.
    pub bytes_written: u64,
}

/// One disjoint slice of a compaction job's user-key space: the entries
/// with `lo ≤ user_key < hi` (either bound `None` = unbounded on that
/// side). Cuts are user-key boundaries, so every version of a key belongs
/// to exactly one sub-range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubRange {
    /// Inclusive lower bound on user keys (`None` = from the start).
    pub lo: Option<u64>,
    /// Exclusive upper bound on user keys (`None` = to the end).
    pub hi: Option<u64>,
}

impl SubRange {
    /// The whole key space — the single-threaded merge's one "partition".
    pub fn unbounded() -> SubRange {
        SubRange { lo: None, hi: None }
    }
}

/// Boundary keys sampled per input table when planning sub-range cuts.
/// More samples → finer-grained (more even) cuts at the cost of a few
/// extra point reads per table before the merge starts.
const BOUNDARY_SAMPLES_PER_TABLE: usize = 16;

/// Partition `task`'s key space into at most `max_subcompactions` disjoint
/// sub-ranges of roughly equal input **bytes**.
///
/// Each input table is sampled at `BOUNDARY_SAMPLES_PER_TABLE` evenly
/// spaced entry positions; entries are fixed-width, so position intervals
/// are byte intervals, and an anchor `(key, weight)` means "`weight` input
/// bytes lie at user keys ≤ `key` since this table's previous anchor".
/// Sorting all anchors by key yields a byte-weighted CDF of the whole
/// job's input, and cuts fall wherever it crosses the next `k/n` fraction.
/// Fewer than `max_subcompactions` ranges come back when the key space is
/// too narrow to cut evenly (tiny inputs, heavy duplication across runs).
pub fn plan_subcompactions(
    task: &CompactionTask,
    max_subcompactions: usize,
) -> Result<Vec<SubRange>> {
    if max_subcompactions <= 1 {
        return Ok(vec![SubRange::unbounded()]);
    }
    let mut anchors: Vec<(u64, u64)> = Vec::new();
    for t in task.inputs.iter().chain(task.next_inputs.iter()) {
        let len = t.reader.len();
        if len == 0 {
            continue;
        }
        let width = t.reader.entry_width() as u64;
        let samples = BOUNDARY_SAMPLES_PER_TABLE.min(len);
        let mut prev = 0usize;
        for j in 1..=samples {
            let pos = len * j / samples;
            if pos <= prev {
                continue;
            }
            anchors.push((t.reader.key_at(pos - 1)?, (pos - prev) as u64 * width));
            prev = pos;
        }
    }
    anchors.sort_unstable();
    let total: u64 = anchors.iter().map(|&(_, w)| w).sum();
    if total == 0 {
        return Ok(vec![SubRange::unbounded()]);
    }
    // A cut is placed *after* the anchor that crosses the k/n weight
    // fraction (`hi = anchor_key + 1`, exclusive): the anchor key — and
    // with it every version of that user key — stays left of the seam.
    let n = max_subcompactions as u64;
    let mut cuts: Vec<u64> = Vec::new();
    let mut acc = 0u64;
    let mut k = 1u64;
    for &(key, w) in &anchors {
        acc += w;
        if k < n && acc.saturating_mul(n) >= total.saturating_mul(k) {
            cuts.push(key.saturating_add(1));
            while k < n && acc.saturating_mul(n) >= total.saturating_mul(k) {
                k += 1;
            }
        }
    }
    cuts.dedup();
    // A cut past the global max key would only add an empty tail range.
    let max_key = task
        .inputs
        .iter()
        .chain(task.next_inputs.iter())
        .map(|t| t.meta.max_key)
        .max()
        .unwrap_or(0);
    cuts.retain(|&c| c <= max_key);
    let mut ranges = Vec::with_capacity(cuts.len() + 1);
    let mut lo = None;
    for c in cuts {
        ranges.push(SubRange { lo, hi: Some(c) });
        lo = Some(c);
    }
    ranges.push(SubRange { lo, hi: None });
    Ok(ranges)
}

/// What writing tables needs from the engine that owns them: where the
/// files go, how they are named and built, and the cache their readers join.
/// A flush, a bulk load and every compaction write through one
/// [`LevelWriter`] over it.
pub struct TableContext<'a> {
    pub storage: &'a dyn Storage,
    pub opts: &'a Options,
    /// Supplies output names — an atomic, so background workers (and
    /// parallel subcompaction threads) can name outputs without holding the
    /// tree lock for the duration of a merge.
    pub next_file_no: &'a AtomicU64,
    pub cache: Option<&'a Arc<BlockCache>>,
}

/// The one table writer: sorted `(key, value)` pairs with one version per
/// user key in, the tables of one level out. A pair added while no table is
/// open takes the next file number, creates the file and starts a builder
/// with the level's index and filter choice; [`LevelWriter::cut`] finishes
/// it and reopens it for reading. Where the cuts fall is the caller's policy.
pub struct LevelWriter<'a> {
    ctx: &'a TableContext<'a>,
    level: usize,
    open: Option<TableBuilder>,
    done: Vec<Arc<TableHandle>>,
}

impl<'a> LevelWriter<'a> {
    /// A writer of `level`'s tables.
    pub fn new(ctx: &'a TableContext<'a>, level: usize) -> Self {
        Self {
            ctx,
            level,
            open: None,
            done: Vec::new(),
        }
    }

    /// Entry bytes of the table being built; 0 when none is.
    pub fn open_bytes(&self) -> u64 {
        self.open.as_ref().map_or(0, TableBuilder::data_bytes)
    }

    /// Append one pair; user keys must strictly increase.
    pub fn add(&mut self, key: &InternalKey, value: &[u8]) -> Result<()> {
        if self.open.is_none() {
            let (ctx, opts) = (self.ctx, self.ctx.opts);
            let name = format!(
                "{:06}.sst",
                ctx.next_file_no.fetch_add(1, Ordering::Relaxed)
            );
            let file = ctx.storage.create(&name)?;
            self.open = Some(TableBuilder::new(
                file,
                name,
                opts.index_for_level(self.level),
                opts.value_width,
                opts.bloom_bits_for_level(self.level),
            ));
        }
        let builder = self.open.as_mut().expect("a table was just opened");
        builder.add_parts(key, value)
    }

    /// Finish the table being built, if any; the next pair starts another.
    pub fn cut(&mut self) -> Result<()> {
        if let Some(builder) = self.open.take() {
            let ctx = self.ctx;
            let meta = builder.finish()?;
            let reader = Arc::new(
                TableReader::open_with(ctx.storage, &meta.name, ctx.cache.cloned())?
                    .with_search_strategy(ctx.opts.search),
            );
            self.done.push(Arc::new(TableHandle { meta, reader }));
        }
        Ok(())
    }

    /// Finish the last table and hand over all of them, in key order.
    pub fn finish(mut self) -> Result<Vec<Arc<TableHandle>>> {
        self.cut()?;
        Ok(self.done)
    }
}

/// What one sub-range merge produced; [`run_compaction`] aggregates these
/// across subcompactions before the caller installs a single version edit.
struct SubOutcome {
    outputs: Vec<Arc<TableHandle>>,
    /// Input bytes this sub-range consumed (entries popped from the merge
    /// before retention × input entry width).
    bytes_in: u64,
}

/// Sum of one `u64` of every table's meta.
fn total(tables: &[Arc<TableHandle>], of: fn(&TableMeta) -> u64) -> u64 {
    tables.iter().map(|t| of(&t.meta)).sum()
}

/// Merge `task`'s inputs restricted to `range`, writing ≤-target-size
/// output tables. This is the body of the classic single-threaded
/// compaction: with an unbounded range it is byte-for-byte the old merge
/// loop. `KeyRetention` state lives entirely inside one call — safe under
/// parallelism because sub-ranges are disjoint in user-key space.
fn merge_sub_range(
    ctx: &TableContext<'_>,
    task: &CompactionTask,
    range: SubRange,
) -> Result<SubOutcome> {
    let opts = ctx.opts;
    let sources = task
        .inputs
        .iter()
        .chain(task.next_inputs.iter())
        // No-fill: a compaction sweep reads every input block exactly once;
        // letting it populate the cache would evict the hot read set in
        // favor of blocks whose tables are deleted when the merge commits.
        .map(|t| Box::new(TableIter::with_fill(Arc::clone(&t.reader), false)) as Box<dyn Cursor>)
        .collect();
    let mut merge = Merge::new(sources);
    match range.lo {
        Some(lo) => merge.seek(lo)?,
        None => merge.seek_to_first(),
    }

    let in_width = crate::sstable::format::entry_width(opts.value_width) as u64;
    let mut bytes_in = 0;
    let mut out = LevelWriter::new(ctx, task.level + 1);
    let mut retention = KeyRetention::new(task.is_bottom);

    // The merge is read key by key; a value is borrowed, and only for an
    // entry that is written out.
    while let Some(key) = merge.key()? {
        if range.hi.is_some_and(|hi| key.user_key >= hi) {
            break; // seam: the next sub-range owns this key onward
        }
        bytes_in += in_width;
        // Dedup: internal-key order puts the newest version of a user key
        // first; all later versions of the same key are obsolete here
        // (live snapshots read through their own pinned `Version`).
        if retention.keep(&key) {
            // Rotate at the granularity target. Retention emits one version
            // per user key, so a rotation boundary is always also a user-key
            // boundary and the output level stays disjoint.
            if out.open_bytes() >= opts.sstable_target_bytes {
                out.cut()?;
            }
            out.add(&key, merge.value())?;
        }
        merge.advance();
    }
    let outputs = out.finish()?;
    Ok(SubOutcome { outputs, bytes_in })
}

/// Execute `task`: merge inputs, write ≤-target-size output tables through
/// `ctx`, record the stage breakdown into `stats`.
///
/// When [`Options::max_subcompactions`] > 1, the job's key space is
/// range-partitioned by [`plan_subcompactions`] and each sub-range merges
/// on its own scoped thread; `max_subcompactions = 1` (the default) runs
/// the exact single-threaded merge. Outputs come back
/// in key order either way, and the caller commits them through **one**
/// version edit + manifest seal — a failed or crashed job leaves only
/// orphan output files, never a partial compaction.
///
/// When observability is on, `obs` brackets the run in a
/// `compaction_begin` / `compaction_end` span (begin carries the source
/// level, end the input/output byte totals); a partitioned run nests one
/// `subcompaction_begin` / `subcompaction_end` sub-span per sub-range,
/// whose begin event carries the parent span id in `a`.
pub fn run_compaction(
    ctx: &TableContext<'_>,
    task: &CompactionTask,
    stats: &DbStats,
    obs: Option<&EngineObs>,
) -> Result<CompactionResult> {
    let (storage, opts) = (ctx.storage, ctx.opts);
    let total_start = Instant::now();
    let span = obs.map(|o| {
        let span = o.span();
        o.emit(EventKind::CompactionBegin, span, task.level as u64, 0);
        span
    });

    let ranges = plan_subcompactions(task, opts.max_subcompactions)?;
    let partitioned = ranges.len() > 1;

    let run_one = |idx: usize, range: SubRange| -> Result<SubOutcome> {
        let sub_span = if partitioned {
            obs.zip(span).map(|(o, parent)| {
                let s = o.span();
                o.emit(EventKind::SubcompactionBegin, s, parent, idx as u64);
                s
            })
        } else {
            None // unpartitioned: keep the default obs timeline unchanged
        };
        let outcome = merge_sub_range(ctx, task, range)?;
        if let (Some(o), Some(s)) = (obs, sub_span) {
            let written = total(&outcome.outputs, |m| m.file_bytes);
            o.emit(EventKind::SubcompactionEnd, s, outcome.bytes_in, written);
        }
        Ok(outcome)
    };

    let outcomes: Vec<Result<SubOutcome>> = if partitioned {
        // Borrow extra threads from the process-wide maintenance budget;
        // this job's own thread counts as one, so a lease of k runs the
        // ranges on k+1 scoped threads. Contiguous chunks keep partition
        // order, and a short lease just folds more ranges per thread.
        let lease = crate::scheduler::borrow_subcompaction_threads(ranges.len() - 1);
        let threads = lease.extra() + 1;
        let per_thread = ranges.len().div_ceil(threads);
        let run_one = &run_one;
        std::thread::scope(|s| {
            let handles: Vec<_> = ranges
                .chunks(per_thread)
                .enumerate()
                .map(|(chunk_no, chunk)| {
                    s.spawn(move || -> Vec<Result<SubOutcome>> {
                        chunk
                            .iter()
                            .enumerate()
                            .map(|(i, &range)| run_one(chunk_no * per_thread + i, range))
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("subcompaction thread panicked"))
                .collect()
        })
    } else {
        vec![run_one(0, ranges[0])]
    };

    // Aggregate in partition order (ranges ascend, outputs within a range
    // ascend, so the concatenation is globally sorted and disjoint). On
    // any sub-range error nothing was installed — drop the sibling
    // outputs' handles and best-effort unlink their files so an in-process
    // failure leaks nothing (a crash instead leaves orphans for the
    // open-time sweep).
    let mut ok = Vec::with_capacity(outcomes.len());
    let mut first_err = None;
    for r in outcomes {
        match r {
            Ok(o) => ok.push(o),
            Err(e) => {
                if first_err.is_none() {
                    first_err = Some(e);
                }
            }
        }
    }
    if let Some(e) = first_err {
        for o in ok {
            for t in o.outputs {
                let name = t.meta.name.clone();
                drop(t);
                let _ = storage.remove(&name);
            }
        }
        return Err(e);
    }

    let outputs: Vec<Arc<TableHandle>> = ok.into_iter().flat_map(|o| o.outputs).collect();
    let bytes_written = total(&outputs, |m| m.file_bytes);
    let train_ns = total(&outputs, |m| m.train_ns);
    let model_write_ns = total(&outputs, |m| m.model_write_ns);

    let total_ns = total_start.elapsed().as_nanos() as u64;
    let bytes_read = task.input_bytes();
    stats.compactions.fetch_add(1, Ordering::Relaxed);
    stats
        .subcompactions
        .fetch_add(ranges.len() as u64, Ordering::Relaxed);
    stats
        .compact_total_ns
        .fetch_add(total_ns, Ordering::Relaxed);
    stats
        .compact_train_ns
        .fetch_add(train_ns, Ordering::Relaxed);
    stats
        .compact_model_write_ns
        .fetch_add(model_write_ns, Ordering::Relaxed);
    stats.compact_kv_io_ns.fetch_add(
        total_ns.saturating_sub(train_ns + model_write_ns),
        Ordering::Relaxed,
    );
    stats
        .compact_bytes_read
        .fetch_add(bytes_read, Ordering::Relaxed);
    stats
        .compact_bytes_written
        .fetch_add(bytes_written, Ordering::Relaxed);
    // Per-level write-amp attribution: inputs are read from their source
    // levels, every output byte lands on `level + 1`.
    let level_in: u64 = task.inputs.iter().map(|t| t.meta.file_bytes).sum();
    let next_in: u64 = task.next_inputs.iter().map(|t| t.meta.file_bytes).sum();
    stats.record_compact_read(task.level, level_in);
    stats.record_compact_read(task.level + 1, next_in);
    stats.record_compact_write(task.level + 1, bytes_written);

    if let (Some(obs), Some(span)) = (obs, span) {
        obs.emit(EventKind::CompactionEnd, span, bytes_read, bytes_written);
    }

    Ok(CompactionResult {
        outputs,
        bytes_read,
        bytes_written,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::IndexChoice;
    use crate::types::Entry;
    use learned_index::IndexKind;
    use lsm_io::MemStorage;

    fn handle_with(storage: &dyn Storage, name: &str, entries: Vec<Entry>) -> Arc<TableHandle> {
        let file = storage.create(name).unwrap();
        let mut b = TableBuilder::new(
            file,
            name.into(),
            IndexChoice::new(IndexKind::Pgm, 4),
            32,
            10,
        );
        for e in &entries {
            b.add(e).unwrap();
        }
        let meta = b.finish().unwrap();
        let reader = Arc::new(TableReader::open(storage, name).unwrap());
        Arc::new(TableHandle { meta, reader })
    }

    /// `run_compaction` on `storage`, file numbers from `fno`.
    fn run(
        storage: &dyn Storage,
        task: &CompactionTask,
        opts: &Options,
        stats: &DbStats,
        fno: &AtomicU64,
        cache: Option<&Arc<BlockCache>>,
    ) -> Result<CompactionResult> {
        let ctx = TableContext {
            storage,
            opts,
            next_file_no: fno,
            cache,
        };
        run_compaction(&ctx, task, stats, None)
    }

    fn puts(range: std::ops::Range<u64>, seq: u64) -> Vec<Entry> {
        range
            .map(|k| Entry::put(k, seq, vec![k as u8; 4]))
            .collect()
    }

    #[test]
    fn l0_pressure_triggers_compaction() {
        let storage = MemStorage::new();
        let mut opts = Options::small_for_tests();
        opts.l0_compaction_trigger = 2;
        let mut v = Version::new(4);
        v.levels[0].push(handle_with(&storage, "a", puts(0..10, 5)));
        v.levels[0].push(handle_with(&storage, "b", puts(5..15, 3)));
        let task = pick_compaction(&v, &opts, &[0; 4]).expect("L0 compaction due");
        assert_eq!(task.level, 0);
        assert_eq!(task.inputs.len(), 2);
        assert!(task.is_bottom);
    }

    #[test]
    fn merge_keeps_newest_version() {
        let storage = MemStorage::new();
        let opts = Options::small_for_tests();
        let stats = DbStats::new();
        let newer = handle_with(&storage, "new", puts(0..10, 9));
        let older = handle_with(&storage, "old", puts(0..10, 1));
        let task = CompactionTask {
            level: 0,
            inputs: vec![newer, older],
            next_inputs: vec![],
            is_bottom: true,
        };
        let fno = AtomicU64::new(100);
        let result = run(&storage, &task, &opts, &stats, &fno, None).unwrap();
        assert_eq!(result.outputs.len(), 1);
        let out = &result.outputs[0];
        assert_eq!(out.meta.n, 10, "one survivor per key");
        assert_eq!(out.meta.max_seq, 9, "newest versions kept");
    }

    #[test]
    fn bottom_compaction_drops_tombstones() {
        let storage = MemStorage::new();
        let opts = Options::small_for_tests();
        let stats = DbStats::new();
        let entries = vec![
            Entry::put(0, 2, vec![0; 4]),
            Entry::put(1, 2, vec![1; 4]),
            Entry::tombstone(2, 8),
            Entry::put(3, 2, vec![3; 4]),
            Entry::put(4, 2, vec![4; 4]),
        ];
        let t = handle_with(&storage, "in", entries);
        let task = CompactionTask {
            level: 0,
            inputs: vec![t],
            next_inputs: vec![],
            is_bottom: true,
        };
        let fno = AtomicU64::new(200);
        let result = run(&storage, &task, &opts, &stats, &fno, None).unwrap();
        let out = &result.outputs[0];
        assert_eq!(out.meta.n, 4, "tombstone dropped at bottom");
        let got = out.reader.get(2, u64::MAX >> 8, &stats).unwrap();
        assert_eq!(got, None);
    }

    #[test]
    fn non_bottom_compaction_keeps_tombstones() {
        let storage = MemStorage::new();
        let opts = Options::small_for_tests();
        let stats = DbStats::new();
        let t = handle_with(&storage, "in", vec![Entry::tombstone(7, 3)]);
        let task = CompactionTask {
            level: 0,
            inputs: vec![t],
            next_inputs: vec![],
            is_bottom: false,
        };
        let fno = AtomicU64::new(300);
        let result = run(&storage, &task, &opts, &stats, &fno, None).unwrap();
        assert_eq!(result.outputs[0].meta.n, 1, "tombstone must survive");
    }

    /// A tombstone written above an older version survives every merge that
    /// is not the bottom and is dropped by the one that is — with `is_bottom`
    /// as the picker computes it, not set by hand: the L0→L1 merge keeps all
    /// 1 000 (L2 still holds what they mask), the L1→L2 merge that meets the
    /// masked versions keeps none, and no step in between reads a deleted
    /// key as live.
    #[test]
    fn a_tombstone_outlives_every_merge_above_the_version_it_masks() {
        let storage = MemStorage::new();
        let mut opts = Options::small_for_tests();
        opts.l0_compaction_trigger = 1;
        let stats = DbStats::new();
        let fno = AtomicU64::new(100);
        let dels = (0..1_000).map(|k| Entry::tombstone(k, 9)).collect();
        let mut v = Version::new(4);
        v.levels[0].push(handle_with(&storage, "del", dels));
        v.levels[2].push(handle_with(&storage, "old", puts(0..1_200, 1)));
        let mut cursors = [0; 4];
        let mut steps = Vec::new();
        while let Some(task) = pick_compaction(&v, &opts, &cursors) {
            let outputs = run(&storage, &task, &opts, &stats, &fno, None)
                .unwrap()
                .outputs;
            let kept = dump(&outputs)
                .into_iter()
                .filter(|e| e.2 == EntryKind::Delete);
            steps.push((task.level, task.is_bottom, kept.count()));
            advance_cursor(&v, &task, &mut cursors);
            v = v.with_compaction_applied(task.level, &task.input_names(), outputs);
            for k in (0..1_000).step_by(37) {
                let got = v.get_opts(k, u64::MAX >> 8, &stats, true).unwrap();
                assert!(got.flatten().is_none(), "key {k} after {steps:?}");
            }
            let live = v.get_opts(1_100, u64::MAX >> 8, &stats, true).unwrap();
            assert_eq!(live, Some(Some(vec![76; 4])), "after {steps:?}");
        }
        assert_eq!(steps[0], (0, false, 1_000));
        assert!(steps.len() > 1, "L1 outgrew its target: {steps:?}");
        assert!(steps[1..].iter().all(|&s| s == (1, true, 0)), "{steps:?}");
    }

    #[test]
    fn outputs_rotate_at_target_size() {
        let storage = MemStorage::new();
        let mut opts = Options::small_for_tests();
        opts.sstable_target_bytes = 2048;
        opts.value_width = 32;
        let stats = DbStats::new();
        let t = handle_with(&storage, "in", puts(0..200, 1));
        let task = CompactionTask {
            level: 0,
            inputs: vec![t],
            next_inputs: vec![],
            is_bottom: true,
        };
        let fno = AtomicU64::new(400);
        let result = run(&storage, &task, &opts, &stats, &fno, None).unwrap();
        assert!(result.outputs.len() > 1, "must split into multiple tables");
        let total: u64 = result.outputs.iter().map(|t| t.meta.n).sum();
        assert_eq!(total, 200);
        // Outputs are disjoint and ordered.
        for w in result.outputs.windows(2) {
            assert!(w[0].meta.max_key < w[1].meta.min_key);
        }
    }

    /// Read every entry of every output, in output order (outputs are
    /// globally sorted, so this is the merged sequence).
    fn dump(outputs: &[Arc<TableHandle>]) -> Vec<(u64, u64, EntryKind, Vec<u8>)> {
        let mut all = Vec::new();
        for t in outputs {
            let mut it = TableIter::with_fill(Arc::clone(&t.reader), false);
            while let Some(key) = it.key().unwrap() {
                all.push((key.user_key, key.seq, key.kind, it.value().to_vec()));
                it.advance();
            }
        }
        all
    }

    /// Two overlapping L0 runs plus an overlapping L1 table — a job with
    /// real cross-run version shadowing for the partitioned merge to get
    /// right at every seam.
    fn overlapping_task(storage: &MemStorage) -> CompactionTask {
        let a = handle_with(storage, "a", puts(0..600, 9));
        let b = handle_with(
            storage,
            "b",
            (300..900).map(|k| Entry::put(k, 5, vec![7; 4])).collect(),
        );
        let c = handle_with(storage, "c", puts(100..800, 1));
        CompactionTask {
            level: 0,
            inputs: vec![a, b],
            next_inputs: vec![c],
            is_bottom: true,
        }
    }

    #[test]
    fn plan_cuts_tile_the_key_space() {
        let storage = MemStorage::new();
        let task = overlapping_task(&storage);
        let ranges = plan_subcompactions(&task, 4).unwrap();
        assert!(
            ranges.len() > 1 && ranges.len() <= 4,
            "900 distinct keys must admit cuts: {ranges:?}"
        );
        assert_eq!(ranges.first().unwrap().lo, None);
        assert_eq!(ranges.last().unwrap().hi, None);
        for w in ranges.windows(2) {
            assert_eq!(w[0].hi, w[1].lo, "contiguous, disjoint tiling");
            assert!(w[0].hi.is_some());
        }
        assert_eq!(
            plan_subcompactions(&task, 1).unwrap(),
            vec![SubRange::unbounded()],
            "knob = 1 never partitions"
        );
    }

    #[test]
    fn partitioned_merge_matches_single_threaded() {
        let storage = MemStorage::new();
        let task = overlapping_task(&storage);
        let mut opts = Options::small_for_tests();
        opts.sstable_target_bytes = 4096;

        let fno = AtomicU64::new(100);
        let stats = DbStats::new();
        let single = run(&storage, &task, &opts, &stats, &fno, None).unwrap();
        let expected = dump(&single.outputs);

        for n in [2, 4, 8] {
            opts.max_subcompactions = n;
            let stats = DbStats::new();
            let parallel = run(&storage, &task, &opts, &stats, &fno, None).unwrap();
            assert_eq!(
                dump(&parallel.outputs),
                expected,
                "n={n}: same survivors in the same order"
            );
            for w in parallel.outputs.windows(2) {
                assert!(
                    w[0].meta.max_key < w[1].meta.min_key,
                    "n={n}: outputs sorted and disjoint across sub-ranges"
                );
            }
            let snap = stats.snapshot();
            assert_eq!(snap.compactions, 1);
            assert!(
                snap.subcompactions >= 2,
                "n={n}: the job must actually have partitioned"
            );
        }
    }

    #[test]
    fn tombstone_elision_survives_partition_seams() {
        let storage = MemStorage::new();
        // Newer run tombstones every 3rd key; older run has every key.
        let dels: Vec<Entry> = (0..900)
            .step_by(3)
            .map(|k| Entry::tombstone(k, 9))
            .collect();
        let newer = handle_with(&storage, "del", dels);
        let older = handle_with(&storage, "old", puts(0..900, 1));
        let task = CompactionTask {
            level: 0,
            inputs: vec![newer],
            next_inputs: vec![older],
            is_bottom: true,
        };
        let mut opts = Options::small_for_tests();
        opts.max_subcompactions = 4;
        let stats = DbStats::new();
        let fno = AtomicU64::new(0);
        let result = run(&storage, &task, &opts, &stats, &fno, None).unwrap();
        let total: u64 = result.outputs.iter().map(|t| t.meta.n).sum();
        assert_eq!(total, 600, "300 tombstoned keys fully elided at the bottom");
        for (key, _, kind, _) in dump(&result.outputs) {
            assert_ne!(kind, EntryKind::Delete, "no tombstone escapes");
            assert_ne!(key % 3, 0, "no deleted key resurrects at a seam");
        }
    }

    #[test]
    fn write_amp_counters_attribute_bytes_per_level() {
        let storage = MemStorage::new();
        let task = overlapping_task(&storage);
        let l0_bytes: u64 = task.inputs.iter().map(|t| t.meta.file_bytes).sum();
        let l1_bytes: u64 = task.next_inputs.iter().map(|t| t.meta.file_bytes).sum();
        let opts = Options::small_for_tests();
        let stats = DbStats::new();
        let fno = AtomicU64::new(0);
        let result = run(&storage, &task, &opts, &stats, &fno, None).unwrap();
        let snap = stats.snapshot();
        assert_eq!(snap.compact_level_bytes_read[0], l0_bytes);
        assert_eq!(snap.compact_level_bytes_read[1], l1_bytes);
        assert_eq!(snap.compact_level_bytes_written[1], result.bytes_written);
        assert_eq!(snap.compact_bytes_written, result.bytes_written);
    }

    #[test]
    fn stats_record_breakdown() {
        let storage = MemStorage::new();
        let opts = Options::small_for_tests();
        let stats = DbStats::new();
        let t = handle_with(&storage, "in", puts(0..500, 1));
        let task = CompactionTask {
            level: 0,
            inputs: vec![t],
            next_inputs: vec![],
            is_bottom: true,
        };
        let fno = AtomicU64::new(500);
        run(&storage, &task, &opts, &stats, &fno, None).unwrap();
        let snap = stats.snapshot();
        assert_eq!(snap.compactions, 1);
        assert!(snap.compact_total_ns > 0);
        assert!(snap.compact_train_ns > 0);
        assert!(snap.compact_total_ns >= snap.compact_train_ns + snap.compact_model_write_ns);
        assert!(snap.compact_bytes_read > 0);
        assert!(snap.compact_bytes_written > 0);
    }

    /// Each block once per pass: an unpartitioned compaction — uncached, or
    /// reading no-fill through a cache — reads from the device exactly the
    /// blocks its inputs' entries occupy, the one a chunk shares with the
    /// next chunk included once.
    #[test]
    fn compaction_reads_each_input_block_once() {
        for cached in [false, true] {
            let storage = lsm_io::SimStorage::new(lsm_io::CostModel::default());
            let cache = cached.then(|| Arc::new(BlockCache::new(1 << 20)));
            let mut entry_blocks = 0;
            let mut input = |name: &str, entries: Vec<Entry>| {
                let t = handle_with(&storage, name, entries);
                entry_blocks += (t.meta.n * t.reader.entry_width() as u64).div_ceil(4096);
                let reader = TableReader::open_with(&storage, name, cache.clone()).unwrap();
                Arc::new(TableHandle {
                    meta: t.meta.clone(),
                    reader: Arc::new(reader),
                })
            };
            let task = CompactionTask {
                level: 0,
                inputs: vec![
                    input("a", puts(0..2_000, 9)),
                    input("b", puts(500..2_500, 5)),
                ],
                next_inputs: vec![input("c", puts(100..3_000, 1))],
                is_bottom: true,
            };
            let opts = Options::small_for_tests();
            let read_blocks = || storage.stats().snapshot().read_blocks;
            let before = read_blocks();
            let fno = AtomicU64::new(100);
            let stats = DbStats::new();
            let result = run(&storage, &task, &opts, &stats, &fno, cache.as_ref()).unwrap();
            let during = read_blocks() - before;
            // Opening the outputs read their footers, indexes and filters.
            let before = read_blocks();
            for t in &result.outputs {
                TableReader::open(&storage, &t.meta.name).unwrap();
            }
            let opening = read_blocks() - before;
            assert_eq!(during - opening, entry_blocks, "cached={cached}");
            assert!(entry_blocks > 100, "{entry_blocks} blocks of input");
        }
    }

    /// A damaged entry mid-input fails the compaction with a typed error.
    #[test]
    fn compaction_over_a_damaged_entry_is_corruption() {
        let damages: [fn(&mut [u8]); 2] = [
            |entry| entry[24] = 9,                                       // kind tag
            |entry| entry[32..36].copy_from_slice(&33u32.to_le_bytes()), // value length
        ];
        for damage in damages {
            let storage = MemStorage::new();
            let good = handle_with(&storage, "good", puts(0..600, 1));
            let mut bytes = lsm_io::read_all(&storage, "good").unwrap();
            let width = good.reader.entry_width();
            damage(&mut bytes[217 * width..218 * width]);
            storage.create("bad").unwrap().append(&bytes).unwrap();
            let bad = Arc::new(TableHandle {
                meta: good.meta.clone(),
                reader: Arc::new(TableReader::open(&storage, "bad").unwrap()),
            });
            let task = CompactionTask {
                level: 0,
                inputs: vec![handle_with(&storage, "new", puts(100..300, 9)), bad],
                next_inputs: vec![],
                is_bottom: true,
            };
            let opts = Options::small_for_tests();
            let fno = AtomicU64::new(0);
            let ran = run(&storage, &task, &opts, &DbStats::new(), &fno, None);
            assert!(matches!(ran, Err(crate::Error::Corruption(_))), "{ran:?}");
        }
    }
}
