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
//! serialization are timed separately per table so Figure 9's breakdown
//! falls out directly.
//!
//! [`run_compaction`] always rewrites. The engine does not call it for a
//! task whose rewrite would only copy its one input — nothing under it at
//! the next level, one table's worth of entries, the next level's index
//! choice and, into the bottom level, no tombstone — and moves that table
//! down instead (`DbCore::compact_one`). So a rewrite into the bottom level
//! still drops every tombstone, and a table holding one never moves there.
//!
//! **Reading the inputs.** Each input is read by a sweep cursor
//! (`TableIter::sweep`): runs of 16 whole blocks straight from the device
//! into one buffer the cursor keeps, one call per run, each block once, the
//! block cache neither asked nor filled (a user scan's no-fill cursor, by
//! contrast, is served from resident blocks and reads a chunk per call).
//! The one [`Merge`] is generic over its sources, so here it drives the
//! `TableIter`s with no virtual call per entry; a kept entry whose input
//! has the output's value width reaches the builder as its raw slot,
//! copied as is rather than decoded and encoded again.
//!
//! **The seal pipeline** ([`LevelWriter`]): a finished table that is not
//! the job's last trains its index and builds its filter on a helper thread
//! leased from the maintenance thread budget while the merge fills the next
//! table; the merge thread appends the finished table's tail before it
//! creates the next table's file, so storage sees the same operations, in
//! the same order, as when every table sealed inline.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use crate::cache::BlockCache;
use crate::iter::{Cursor, Merge};
use crate::options::Options;
use crate::sstable::builder::{TrainedTail, WrittenTable};
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
///   mask. A table that moves down a level instead of being merged skips
///   this rule, so only a table known to hold no tombstone moves into the
///   bottom level.
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

/// Decide whether any level needs compacting: L0 at its trigger first,
/// else the first level over its target, whose input is the first table
/// past that level's round-robin cursor (`cursors`, advanced by
/// [`advance_cursor`]) plus the next-level tables it overlaps. A tree runs
/// one compaction at a time (`DbCore::compact_one`), so every table of the
/// version is free to pick.
pub fn pick_compaction(
    version: &Version,
    opts: &Options,
    cursors: &[u64],
) -> Option<CompactionTask> {
    // L0 first: file-count pressure stalls writes soonest.
    if version.levels[0].len() >= opts.l0_compaction_trigger {
        let inputs = version.levels[0].clone();
        let min = inputs.iter().map(|t| t.meta.min_key).min()?;
        let max = inputs.iter().map(|t| t.meta.max_key).max()?;
        return Some(CompactionTask {
            level: 0,
            next_inputs: version.overlapping(1, min, max),
            inputs,
            is_bottom: is_bottom_output(version, 1),
        });
    }
    // Size-triggered levels; one over its target holds a table.
    let level = (1..version.levels.len() - 1)
        .find(|&level| version.level_bytes(level) > opts.level_target_bytes(level))?;
    // Round-robin: the first table whose max key is past the cursor.
    let tables = &version.levels[level];
    let cursor = cursors.get(level).copied().unwrap_or(0);
    let input = tables
        .iter()
        .find(|t| t.meta.max_key > cursor)
        .unwrap_or(&tables[0]);
    Some(CompactionTask {
        level,
        inputs: vec![Arc::clone(input)],
        next_inputs: version.overlapping(level + 1, input.meta.min_key, input.meta.max_key),
        is_bottom: is_bottom_output(version, level + 1),
    })
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
/// tombstones have nothing left to mask. It stays so while the task runs:
/// flushes add only to L0, and no other compaction of the tree runs beside
/// it.
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
    /// in key space.
    pub outputs: Vec<Arc<TableHandle>>,
    /// Bytes read from inputs.
    pub bytes_read: u64,
    /// Bytes written to outputs.
    pub bytes_written: u64,
}

/// What writing tables needs from the engine that owns them: where the
/// files go, how they are named and built, the cache their readers join and
/// the counters their seals report to. A flush, a bulk load and every
/// compaction write through one [`LevelWriter`] over it.
pub struct TableContext<'a> {
    pub storage: &'a dyn Storage,
    pub opts: &'a Options,
    /// Supplies output names — an atomic, so background workers can name
    /// outputs without holding the tree lock for the duration of a merge.
    pub next_file_no: &'a AtomicU64,
    pub cache: Option<&'a Arc<BlockCache>>,
    pub stats: &'a DbStats,
}

/// A table holding fewer keys than this seals inline: training and
/// filtering it (≈ 80 ns a key) costs less than a helper's spawn and join
/// (≈ 37 µs).
const OFF_THREAD_MIN_KEYS: usize = 2_048;

/// A table whose data is written and whose index and filter train on a
/// helper thread while the merge fills the next table.
struct PendingSeal {
    table: WrittenTable,
    helper: JoinHandle<TrainedTail>,
}

/// The one table writer: sorted `(key, value)` pairs with one version per
/// user key in, the tables of one level out. A pair added while no table is
/// open takes the next file number and starts a builder with the level's
/// index and filter choice; [`LevelWriter::cut`] finishes it and reopens it
/// for reading. Where the cuts fall is the caller's policy;
/// [`LevelWriter::write`] runs one caller's pairs through a writer.
///
/// **The seal pipeline.** A cut table's data is written at once; its index
/// and filter train on a helper leased from the maintenance thread budget
/// while the merge fills the next table, whose file is created only at its
/// first append. Before that create the writer joins the helper and
/// appends the finished table's index, filter and footer, syncs it and
/// opens its reader — so a table's tail is written before the next table's
/// file exists, and every create, append and sync keeps the order and the
/// bytes of sealing each table inline. A table seals inline when no permit
/// is free, when it holds fewer than `OFF_THREAD_MIN_KEYS` keys, and when
/// it is the last one. Dropping the writer joins a pending helper.
pub struct LevelWriter<'a> {
    ctx: &'a TableContext<'a>,
    level: usize,
    open: Option<TableBuilder>,
    /// At most one table awaits its seal, and only while the open table
    /// has no file.
    pending: Option<PendingSeal>,
    done: Vec<Arc<TableHandle>>,
    /// Every file this writer created, removed if the write fails.
    created: Vec<String>,
}

impl<'a> LevelWriter<'a> {
    /// A writer of `level`'s tables.
    pub fn new(ctx: &'a TableContext<'a>, level: usize) -> Self {
        Self {
            ctx,
            level,
            open: None,
            pending: None,
            done: Vec::new(),
            created: Vec::new(),
        }
    }

    /// Write one level's tables: `fill` adds the pairs and places the cuts,
    /// then the last table seals and all of them are handed over in key
    /// order. A job installs all of these tables or none, so when `fill` or
    /// a seal fails every file the writer created is removed before the
    /// error returns.
    pub fn write(
        ctx: &'a TableContext<'a>,
        level: usize,
        fill: impl FnOnce(&mut Self) -> Result<()>,
    ) -> Result<Vec<Arc<TableHandle>>> {
        let mut out = Self::new(ctx, level);
        let written = fill(&mut out).and_then(|()| {
            out.finish_table(true)?;
            out.settle()?;
            Ok(std::mem::take(&mut out.done))
        });
        if written.is_err() {
            discard(ctx.storage, std::mem::take(&mut out.created));
        }
        written
    }

    /// Entry bytes of the table being built; 0 when none is.
    pub fn open_bytes(&self) -> u64 {
        self.open.as_ref().map_or(0, TableBuilder::data_bytes)
    }

    /// Append one pair; user keys must strictly increase.
    pub fn add(&mut self, key: &InternalKey, value: &[u8]) -> Result<()> {
        self.builder().add_parts(key, value)?;
        self.after_add()
    }

    /// Append one entry as the whole slot a table of this level's value
    /// width holds it in ([`TableBuilder::add_slot`]).
    pub(crate) fn add_slot(&mut self, key: &InternalKey, slot: &[u8]) -> Result<()> {
        self.builder().add_slot(key, slot)?;
        self.after_add()
    }

    /// The table being built; a new one, with the next file number and the
    /// level's index and filter choice, when none is.
    fn builder(&mut self) -> &mut TableBuilder {
        let (ctx, opts, level) = (self.ctx, self.ctx.opts, self.level);
        self.open.get_or_insert_with(|| {
            let file_no = ctx.next_file_no.fetch_add(1, Ordering::Relaxed);
            let index = opts.index_for_level(level);
            let (width, bits) = (opts.value_width, opts.bloom_bits_per_key);
            TableBuilder::deferred(format!("{file_no:06}.sst"), index, width, bits)
        })
    }

    /// Create the open table's file once a full chunk waits for it.
    fn after_add(&mut self) -> Result<()> {
        if self.open.as_ref().is_some_and(TableBuilder::needs_file) {
            self.create_file()?;
        }
        Ok(())
    }

    /// Seal the pending table, then create the open table's file.
    fn create_file(&mut self) -> Result<()> {
        self.settle()?;
        let builder = self.open.as_mut().expect("a table is open");
        let file = self.ctx.storage.create(builder.name())?;
        self.created.push(builder.name().to_string());
        builder.attach(file)
    }

    /// Finish the table being built, if any; the next pair starts another.
    pub fn cut(&mut self) -> Result<()> {
        self.finish_table(false)
    }

    /// Write the open table's data, then seal it — beside the next table's
    /// merge when it may and a helper is free, inline otherwise.
    fn finish_table(&mut self, last: bool) -> Result<()> {
        if self.open.as_ref().is_some_and(|b| !b.has_file()) {
            self.create_file()?;
        }
        let Some(builder) = self.open.take() else {
            return Ok(());
        };
        let (table, keys) = builder.write_data()?;
        let permit = (!last && keys.len() >= OFF_THREAD_MIN_KEYS)
            .then(crate::scheduler::seal_permit)
            .flatten();
        let Some(permit) = permit else {
            return self.open_reader(table.seal(keys.train())?);
        };
        // The helper holds its permit until its work is done.
        let helper = std::thread::spawn(move || {
            let _permit = permit;
            keys.train()
        });
        let ctx = self.ctx;
        ctx.stats.seals_off_thread.fetch_add(1, Ordering::Relaxed);
        self.pending = Some(PendingSeal { table, helper });
        Ok(())
    }

    /// Join the pending table's helper and seal the table.
    fn settle(&mut self) -> Result<()> {
        let Some(pending) = self.pending.take() else {
            return Ok(());
        };
        let waited = Instant::now();
        let tail = pending.helper.join().expect("seal helper panicked");
        let wait_ns = waited.elapsed().as_nanos() as u64;
        let mut meta = pending.table.seal(tail)?;
        meta.train_wait_ns = meta.train_ns.min(wait_ns);
        self.open_reader(meta)
    }

    /// Open a sealed table for reading and add it to the output.
    fn open_reader(&mut self, meta: TableMeta) -> Result<()> {
        let ctx = self.ctx;
        let reader = TableReader::open_with(ctx.storage, &meta.name, ctx.cache.cloned())?;
        let reader = Arc::new(reader);
        self.done.push(Arc::new(TableHandle { meta, reader }));
        Ok(())
    }
}

/// Remove the files of tables a job wrote but does not install
/// (best-effort: what a crash leaves, the open sweep collects).
pub(crate) fn discard(storage: &dyn Storage, names: impl IntoIterator<Item = String>) {
    for name in names {
        let _ = storage.remove(&name);
    }
}

/// The file names of `tables`, for [`discard`].
pub(crate) fn names(tables: &[Arc<TableHandle>]) -> impl Iterator<Item = String> + '_ {
    tables.iter().map(|t| t.meta.name.clone())
}

impl Drop for LevelWriter<'_> {
    /// A writer that fails or is abandoned mid-table still joins its helper.
    fn drop(&mut self) {
        if let Some(pending) = self.pending.take() {
            let _ = pending.helper.join();
        }
    }
}

/// Sum of one `u64` of every table's meta.
fn total(tables: &[Arc<TableHandle>], of: fn(&TableMeta) -> u64) -> u64 {
    tables.iter().map(|t| of(&t.meta)).sum()
}

/// Merge `task`'s inputs into the ≤-target-size tables of `task.level + 1`,
/// one version per user key, tombstones dropped at the bottom.
fn merge_inputs(ctx: &TableContext<'_>, task: &CompactionTask) -> Result<Vec<Arc<TableHandle>>> {
    let opts = ctx.opts;
    // One sweep per input: whole-block runs from the device, each block
    // read once. The cache is neither asked nor filled — what it holds of
    // these tables dies with them when the merge commits, and filling it
    // would evict the hot read set for blocks nobody reads again.
    let inputs = task.inputs.iter().chain(task.next_inputs.iter());
    let mut merge = Merge::new(
        inputs
            .map(|t| TableIter::sweep(Arc::clone(&t.reader)))
            .collect(),
    );
    merge.seek_to_first();
    LevelWriter::write(ctx, task.level + 1, |out| {
        let mut retention = KeyRetention::new(task.is_bottom);
        // The merge is read key by key; an entry's bytes are borrowed, and
        // only for an entry that is written out.
        while let Some(key) = merge.key()? {
            // Dedup: internal-key order puts the newest version of a user
            // key first; all later versions of the same key are obsolete
            // here (live snapshots read through their own pinned `Version`).
            if retention.keep(&key) {
                // Rotate at the granularity target. Retention emits one
                // version per user key, so a rotation boundary is always
                // also a user-key boundary and the output level stays
                // disjoint.
                if out.open_bytes() >= opts.sstable_target_bytes {
                    out.cut()?;
                }
                // An input of the output's width lends its slot as is.
                let top = merge.top().expect("a key has a source");
                if top.value_width() == opts.value_width {
                    out.add_slot(&key, top.slot())?;
                } else {
                    out.add(&key, top.value())?;
                }
            }
            merge.advance();
        }
        Ok(())
    })
}

/// Execute `task`: merge its inputs on the calling thread, write
/// ≤-target-size output tables through `ctx`, record the stage breakdown
/// into `ctx.stats`.
///
/// Outputs come back in key order, and the caller installs them through
/// **one** version edit and one manifest seal — a partial compaction is
/// never visible. A failed run removes its outputs before it returns
/// ([`LevelWriter::write`]); a crash leaves them as orphans for the open
/// sweep.
///
/// When observability is on, `obs` brackets the run in a
/// `compaction_begin` / `compaction_end` span (begin carries the source
/// level, end the input/output byte totals).
pub fn run_compaction(
    ctx: &TableContext<'_>,
    task: &CompactionTask,
    obs: Option<&EngineObs>,
) -> Result<CompactionResult> {
    let stats = ctx.stats;
    let total_start = Instant::now();
    let span = obs.map(|o| {
        let span = o.span();
        o.emit(EventKind::CompactionBegin, span, task.level as u64, 0);
        span
    });

    let outputs = merge_inputs(ctx, task)?;
    let bytes_written = total(&outputs, |m| m.file_bytes);
    let train_ns = total(&outputs, |m| m.train_ns);
    // Training that ran beside a later table's merge is not merge time; only
    // what the merge thread trained inline, or waited on, comes off it.
    let train_wait_ns = total(&outputs, |m| m.train_wait_ns);
    let model_write_ns = total(&outputs, |m| m.model_write_ns);

    let total_ns = total_start.elapsed().as_nanos() as u64;
    let bytes_read = task.input_bytes();
    stats.compactions.fetch_add(1, Ordering::Relaxed);
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
        total_ns.saturating_sub(train_wait_ns + model_write_ns),
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
            stats,
        };
        run_compaction(&ctx, task, None)
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
    /// real cross-run version shadowing.
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

    /// Each block once per pass: a compaction — uncached, or reading no-fill
    /// through a cache — reads from the device exactly the blocks its
    /// inputs' entries occupy, the one a chunk shares with the next chunk
    /// included once.
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

    /// A device call per sweep run: a compaction reads each input in
    /// 16-block runs, so its device calls are exactly the runs its inputs'
    /// entries fill — a sixteenth, near enough, of the chunk-sized calls a
    /// no-fill cursor made — and its blocks are exactly the blocks they
    /// occupy, uncached or through a cache.
    #[test]
    fn compaction_reads_its_inputs_a_device_call_per_run() {
        const RUN: u64 = 16 * 4096;
        for cached in [false, true] {
            let storage = lsm_io::SimStorage::new(lsm_io::CostModel::default());
            let cache = cached.then(|| Arc::new(BlockCache::new(1 << 20)));
            let (mut runs, mut blocks) = (0, 0);
            let mut input = |name: &str, entries: Vec<Entry>| {
                let t = handle_with(&storage, name, entries);
                let data = t.meta.n * t.reader.entry_width() as u64;
                (runs, blocks) = (runs + data.div_ceil(RUN), blocks + data.div_ceil(4096));
                let reader = TableReader::open_with(&storage, name, cache.clone()).unwrap();
                Arc::new(TableHandle {
                    meta: t.meta.clone(),
                    reader: Arc::new(reader),
                })
            };
            let task = CompactionTask {
                level: 0,
                inputs: vec![
                    input("a", puts(0..6_000, 9)),
                    input("b", puts(3_000..9_000, 5)),
                ],
                next_inputs: vec![input("c", puts(1_000..10_000, 1))],
                is_bottom: true,
            };
            let opts = Options::small_for_tests();
            let reads = || storage.stats().snapshot();
            let before = reads();
            let fno = AtomicU64::new(100);
            let stats = DbStats::new();
            let result = run(&storage, &task, &opts, &stats, &fno, cache.as_ref()).unwrap();
            let during = reads().since(&before);
            // Opening the outputs read their footers, indexes and filters.
            let before = reads();
            for t in &result.outputs {
                TableReader::open(&storage, &t.meta.name).unwrap();
            }
            let opening = reads().since(&before);
            let calls = during.read_calls - opening.read_calls;
            let read_blocks = during.read_blocks - opening.read_blocks;
            assert_eq!((calls, read_blocks), (runs, blocks), "cached={cached}");
            assert_eq!((runs, blocks), (24, 350), "cached={cached}");
        }
    }

    /// A kept entry is copied as its slot when its input has the output's
    /// value width, and re-encoded from key and value when it does not:
    /// either way the output holds the same entries, and a slot-copied
    /// table is byte for byte the table its entries, added one by one,
    /// build.
    #[test]
    fn slot_copies_and_re_encoded_entries_make_the_same_tables() {
        let storage = MemStorage::new();
        let task = overlapping_task(&storage);
        let stats = DbStats::new();
        let fno = AtomicU64::new(100);
        let mut opts = Options::small_for_tests();
        opts.sstable_target_bytes = 1 << 20;
        let copied = run(&storage, &task, &opts, &stats, &fno, None).unwrap();
        let [table] = copied.outputs.as_slice() else {
            panic!("one output: {}", copied.outputs.len());
        };
        let file = storage.create("rebuilt").unwrap();
        let index = opts.index_for_level(1);
        let mut b = TableBuilder::new(file, "rebuilt".into(), index, 32, opts.bloom_bits_per_key);
        for (key, seq, kind, value) in dump(&copied.outputs) {
            b.add(&Entry {
                key: InternalKey {
                    user_key: key,
                    seq,
                    kind,
                },
                value,
            })
            .unwrap();
        }
        b.finish().unwrap();
        let bytes = |name: &str| lsm_io::read_all(&storage, name).unwrap();
        assert_eq!(bytes(&table.meta.name), bytes("rebuilt"));

        opts.value_width = 40;
        let wider = run(&storage, &task, &opts, &stats, &fno, None).unwrap();
        assert_eq!(wider.outputs[0].reader.entry_width(), 36 + 40);
        assert_eq!(dump(&wider.outputs), dump(&copied.outputs));
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
