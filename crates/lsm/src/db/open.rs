//! Opening a database: its tables from the newest sealed manifest, then
//! its log replayed above the manifest's `flushed` ([`crate::log`]), the
//! manifest seal, the orphan sweep, and the bulk load (ARCHITECTURE.md §2).

use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::sync::{Condvar, Mutex as StdMutex};

use parking_lot::RwLock;

use super::write::{PublishQueue, WriteQueue};
use super::{Db, DbCore, Embedding, Inner, L0_STOP_TRIGGER};
use crate::cache::BlockCache;
use crate::compaction::{discard, names, LevelWriter};
use crate::log::Log;
use crate::memtable::MemTable;
use crate::options::{Maintenance, Options};
use crate::scheduler::{BgError, Scheduler};
use crate::sstable::TableReader;
use crate::stats::DbStats;
use crate::types::{Entry, SeqNo};
use crate::version::{TableHandle, Version, MAX_LEVELS};
use crate::{sealed, Error, Result};
use lsm_io::{CostModel, MemStorage, SimStorage, Storage};
use lsm_obs::EngineObs;

/// Epoch-numbered manifest prefix: every rewrite seals a fresh
/// `MANIFEST-<epoch>` and only then retires its predecessor (see
/// [`crate::sealed`]).
const MANIFEST_PREFIX: &str = "MANIFEST-";

impl Db {
    /// Open (or create) a database on `storage`.
    ///
    /// `l0_compaction_trigger` must be at least 1 and, under background
    /// maintenance, at most [`L0_STOP_TRIGGER`]; any other value is refused
    /// (`InvalidInput`). At 0 an empty L0 would count as due and no level
    /// below it would ever be compacted; above the stop trigger a stopped
    /// writer would wait for a compaction that is never due.
    pub fn open(storage: Arc<dyn Storage>, opts: Options) -> Result<Db> {
        Self::open_internal(storage, opts, Embedding::default())
    }

    pub(crate) fn open_internal(
        storage: Arc<dyn Storage>,
        opts: Options,
        embedding: Embedding,
    ) -> Result<Db> {
        let trigger = opts.l0_compaction_trigger;
        if trigger == 0 || (opts.maintenance.is_background() && trigger > L0_STOP_TRIGGER) {
            return Err(Error::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "l0_compaction_trigger {trigger} is refused: at 0 no level below L0 is \
                     ever compacted, and under background maintenance one above the L0 stop \
                     trigger {L0_STOP_TRIGGER} stops writers for a compaction that is never due"
                ),
            )));
        }
        let Embedding {
            pool,
            coordination,
            obs,
            cache: shared_cache,
        } = embedding;
        // A shard logs nothing: the owner's one log holds its writes.
        let logged = coordination.is_none();
        // A standalone open with observability on builds its own handle;
        // the sharding layer passes per-shard handles sharing one bounded
        // event buffer.
        let obs = obs.or_else(|| opts.observability.then(|| Arc::new(EngineObs::solo(0))));
        // The sharding layer passes one cache shared by every shard (its
        // byte budget is global); a standalone open builds its own from
        // `Options::block_cache_bytes`.
        let cache = shared_cache.or_else(|| BlockCache::from_options(&opts));
        let mut version = Version::new(MAX_LEVELS);
        let mut flushed = 0;
        let mut cursors = vec![0; MAX_LEVELS];
        let mut next_file_no = 1u64;
        let mut manifest_epoch = 0u64;
        if let Some((epoch, manifest_text)) =
            sealed::newest_valid(storage.as_ref(), MANIFEST_PREFIX)?
        {
            manifest_epoch = epoch;
            (version, next_file_no, flushed, cursors) =
                DbCore::recover(&manifest_text, storage.as_ref(), &opts, cache.as_ref())?;
        } else {
            // No manifest validates. A fresh open seals one before its
            // first write, so a crash can strand at most an empty log; a
            // table or a log with records means the manifest was lost, and
            // opening as fresh would sweep the data away.
            for name in storage.list()? {
                let log = name.ends_with(".wal");
                if name.ends_with(".sst") || (log && storage.size_of(&name)? > 0) {
                    return Err(Error::Corruption(format!(
                        "{name} holds data, but no {MANIFEST_PREFIX}<n> validates"
                    )));
                }
            }
        }
        let named = version.levels.iter().flatten();
        let named = named.map(|t| t.meta.name.clone()).collect();
        let inner = Inner {
            mem: MemTable::new(),
            imms: VecDeque::new(),
            version: Arc::new(version),
            seq: flushed,
            mem_first: None,
            flushed,
            cursors,
            log: None,
            flush_active: false,
            compacting: false,
            named,
        };
        let external = pool.is_some();
        let (signal, shutdown) = pool.unwrap_or_default();
        let core = Arc::new(DbCore {
            opts,
            storage,
            view: RwLock::new(Arc::new(DbCore::view_of(&inner))),
            inner: RwLock::new(inner),
            visible: AtomicU64::new(flushed),
            write_queue: StdMutex::new(WriteQueue::default()),
            write_queue_cv: Condvar::new(),
            writers_in_flight: AtomicUsize::new(0),
            publish: StdMutex::new(PublishQueue::default()),
            publish_cv: Condvar::new(),
            stats: Arc::new(DbStats::new()),
            cache,
            snapshots: Arc::default(),
            next_file_no: Arc::new(AtomicU64::new(next_file_no)),
            manifest_epoch: AtomicU64::new(manifest_epoch),
            signal,
            shutdown,
            flush_paused: AtomicBool::new(false),
            compaction_paused: AtomicBool::new(false),
            bg_error: BgError::default(),
            coordination,
            obs,
        });
        // Replay the log above what the tables hold, keeping the files it
        // read as the log's sealed files (a shard's owner replays its own
        // log into it).
        if logged {
            let file_no = Arc::clone(&core.next_file_no);
            let (log, _) = Log::recover(Arc::clone(&core.storage), file_no, |record| {
                let ops = (record.first_seq..).zip(&record.ops);
                ops.fold(false, |applied, (seq, op)| core.replay(op, seq) | applied)
            })?;
            core.inner.write().log = Some(log);
        }
        core.write_manifest(&mut core.inner.write())?;
        // Sweep manifests stranded by earlier crashes (an unsealed newer
        // epoch, predecessors whose retirement never ran) *and* orphan
        // tables a flush or compaction wrote before a crash beat its seal:
        // the manifest just sealed is the single source of truth for which
        // tables are live. Best-effort — a crash mid-sweep just leaves the
        // next open to finish it.
        let current = sealed::name(MANIFEST_PREFIX, core.manifest_epoch.load(Ordering::Relaxed));
        {
            let inner = core.inner.read();
            let live: HashSet<&String> = inner.named.iter().collect();
            for name in core.storage.list()? {
                let stale = name != current && name.starts_with(MANIFEST_PREFIX);
                let orphan = name.ends_with(".sst") && !live.contains(&name);
                if stale || orphan {
                    let _ = core.storage.remove(&name);
                }
            }
        }
        let scheduler = match core.opts.maintenance {
            Maintenance::Synchronous => None,
            // On an external pool the sharding layer owns the worker
            // threads; this instance only contributes its step functions.
            Maintenance::Background if external => None,
            Maintenance::Background => {
                let flush_core = Arc::clone(&core);
                let compact_core = Arc::clone(&core);
                Some(Scheduler::start(
                    Arc::clone(&core.signal),
                    Arc::clone(&core.shutdown),
                    move |draining| flush_core.flush_step(draining),
                    move |draining| compact_core.compact_step(draining),
                ))
            }
        };
        Ok(Db { core, scheduler })
    }

    /// Open on a fresh in-memory storage (tests, examples).
    pub fn open_memory(opts: Options) -> Result<Db> {
        Self::open(Arc::new(MemStorage::new()), opts)
    }

    /// Open on a fresh simulated-NVMe storage (benchmarks).
    pub fn open_sim(opts: Options, model: CostModel) -> Result<Db> {
        Self::open(Arc::new(SimStorage::new(model)), opts)
    }

    /// Build and install a fully-loaded database in bulk: entries stream
    /// straight into leveled SSTables without write amplification. Intended
    /// for experiment setup (load phase), not a public write path.
    ///
    /// The load replaces the version, so it is refused (`InvalidInput`),
    /// before anything is written, unless the database is empty: no table,
    /// and no entry in the live or a queued buffer.
    pub fn bulk_load<I>(&self, entries: I) -> Result<()>
    where
        I: IntoIterator<Item = (u64, Vec<u8>)>,
    {
        let core = &self.core;
        let mut inner = core.inner.write();
        let buffered = !inner.mem.is_empty() || inner.imms.iter().any(|imm| !imm.mem.is_empty());
        if buffered || inner.version.table_count() > 0 {
            return Err(Error::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "bulk_load needs an empty database: it would replace the tables and \
                 buffers it holds",
            )));
        }
        let mut pending: Vec<Entry> = Vec::new();
        for (k, v) in entries {
            inner.seq += 1;
            let seq = inner.seq;
            pending.push(Entry::put(k, seq, v));
        }
        pending.sort_by_key(|a| a.key);
        pending.dedup_by_key(|e| e.key.user_key);

        // Write tables at the target granularity directly into the deepest
        // level that can hold the data.
        let per_table = core.opts.entries_per_table();
        let total = pending.len() as u64;
        let mut level = 1usize;
        while level + 1 < MAX_LEVELS {
            let cap_entries = core.opts.level_target_bytes(level)
                / crate::sstable::format::entry_width(core.opts.value_width) as u64;
            if total <= cap_entries {
                break;
            }
            level += 1;
        }

        let ctx = core.tables();
        // Cut before each chunk, not after it: the last table is the
        // writer's, which seals it inline.
        let tables = LevelWriter::write(&ctx, level, |out| {
            for chunk in pending.chunks(per_table) {
                out.cut()?;
                for e in chunk {
                    out.add(&e.key, &e.value)?;
                }
            }
            Ok(())
        })?;
        let mut version = Version::new(MAX_LEVELS);
        version.levels[level] = tables;
        version
            .train_level_indexes(&core.opts)
            .inspect_err(|_| discard(core.storage.as_ref(), names(&version.levels[level])))?;
        core.install(&mut inner, |tree| tree.version = Arc::new(version));
        // Bulk-loaded entries bypass the writer queue; publish their range
        // directly so reads (and the sharding fence) see them.
        core.visible.store(inner.seq, Ordering::Release);
        core.write_manifest(&mut inner)
    }
}

impl DbCore {
    /// The version, next file number, `flushed` and compaction cursors a
    /// sealed manifest records. A `table` line's last field, the table's
    /// tombstone count, and the `cursor <level> <key>` lines are absent
    /// from a manifest written before they were recorded: the count is then
    /// unknown and a cursor 0, as they were at every open.
    fn recover(
        text: &str,
        storage: &dyn Storage,
        opts: &Options,
        cache: Option<&Arc<BlockCache>>,
    ) -> Result<(Version, u64, SeqNo, Vec<u64>)> {
        let mut version = Version::new(MAX_LEVELS);
        let mut next_file_no = 1u64;
        let mut flushed = None;
        let mut cursors = vec![0; MAX_LEVELS];
        for (lineno, line) in text.lines().enumerate() {
            let mut parts = line.split_whitespace();
            let tag = parts.next();
            let corrupt = || Error::Corruption(format!("manifest line {lineno}"));
            let mut number = || {
                parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(corrupt)
            };
            match tag {
                Some("next") => next_file_no = number()?,
                // Opening would lose what the named logs hold: this build
                // finds its logs by listing and replays above `flushed`.
                Some("wal") => {
                    return Err(Error::Corruption(format!(
                        "manifest names log {}: a manifest that names its logs \
                         is an earlier layout, which this build does not read",
                        parts.next().unwrap_or_default()
                    )))
                }
                // The tables hold every write up to here, and the log
                // replays what lies above.
                Some("flushed") => flushed = Some(number()?),
                Some("cursor") => {
                    let level = usize::try_from(number()?).map_err(|_| corrupt())?;
                    *cursors.get_mut(level).ok_or_else(corrupt)? = number()?;
                }
                Some("table") => {
                    let level = usize::try_from(number()?).map_err(|_| corrupt())?;
                    let name = parts.next().ok_or_else(corrupt)?;
                    let count = parts.next().map(|n| n.parse().map_err(|_| corrupt()));
                    // Skipping the line would leave the table unnamed, and
                    // the open's sweep would delete it.
                    if level >= MAX_LEVELS {
                        return Err(Error::Corruption(format!(
                            "manifest: table {name} at level {level}, past the last level {}",
                            MAX_LEVELS - 1
                        )));
                    }
                    let reader = Arc::new(TableReader::open_with(storage, name, cache.cloned())?);
                    let meta = crate::sstable::TableMeta {
                        name: name.to_string(),
                        n: reader.len() as u64,
                        min_key: reader.min_key(),
                        max_key: reader.max_key(),
                        max_seq: reader.max_seq(),
                        file_bytes: storage.size_of(name)?,
                        index_bytes: reader.index_bytes(),
                        bloom_bytes: reader.bloom_bytes(),
                        index_kind: reader.index_kind(),
                        train_ns: 0,
                        train_wait_ns: 0,
                        model_write_ns: 0,
                        tombstones: count.transpose()?,
                    };
                    version.levels[level].push(Arc::new(TableHandle { meta, reader }));
                }
                _ => {}
            }
        }
        // Every read below L0 assumes one candidate table per level: a
        // manifest whose level overlaps (damaged, or written by a build
        // that stacked runs) is refused here rather than served stale.
        for (level, tables) in version.levels.iter_mut().enumerate().skip(1) {
            tables.sort_by_key(|t| t.meta.min_key);
            if let Some(w) = tables
                .windows(2)
                .find(|w| w[0].meta.max_key >= w[1].meta.min_key)
            {
                return Err(Error::Corruption(format!(
                    "manifest: level {level} tables {} and {} overlap",
                    w[0].meta.name, w[1].meta.name
                )));
            }
        }
        // Without `flushed` the log's records cannot be told from the
        // tables' (a lone `Db` of the layout that named its logs wrote none).
        let flushed = flushed.ok_or_else(|| {
            Error::Corruption(
                "manifest has no flushed line: an earlier layout, which this build does not read"
                    .to_string(),
            )
        })?;
        version.train_level_indexes(opts)?;
        Ok((version, next_file_no, flushed, cursors))
    }

    /// Seal a manifest naming `inner`'s tables and how far they reach, then
    /// remove every table an earlier manifest named and this one does not —
    /// the one place a live table is retired (LevelDB's
    /// `RemoveObsoleteFiles` after `LogAndApply`) — and retire the log
    /// files whose records the sealed tables hold. A failed seal removes
    /// nothing: either manifest may be the one a crash finds, so the next
    /// successful seal removes what this one owed.
    pub(super) fn write_manifest(&self, inner: &mut Inner) -> Result<()> {
        // Every write at or below `flushed` is in the tables named below;
        // the log replays what lies above. The `next` line's second number,
        // the last sequence assigned, is for a reader of the manifest:
        // recovery takes its sequence from `flushed` and the log. Each
        // table's tombstone count and the compaction cursors go too, so a
        // reopened tree moves and picks as the running one would.
        let flushed = inner.oldest_buffered().map_or(inner.seq, |first| first - 1);
        let mut text = format!(
            "next {} {}\nflushed {flushed}\n",
            self.next_file_no.load(Ordering::Relaxed),
            inner.seq
        );
        let mut sealing = Vec::new();
        for (level, tables) in inner.version.levels.iter().enumerate() {
            for t in tables {
                let count = t.meta.tombstones.map_or(String::new(), |n| format!(" {n}"));
                text.push_str(&format!("table {level} {}{count}\n", t.meta.name));
                sealing.push(t.meta.name.clone());
            }
        }
        // A level whose cursor is 0 needs no line: absent reads as 0.
        for (level, key) in inner.cursors.iter().enumerate().filter(|(_, &key)| key > 0) {
            text.push_str(&format!("cursor {level} {key}\n"));
        }
        let known: HashSet<&String> = inner.named.iter().collect();
        let fresh: Vec<String> = sealing
            .iter()
            .filter(|n| !known.contains(n))
            .cloned()
            .collect();
        inner.named.extend(fresh);
        // Seal into a fresh epoch file, then retire the predecessor: the
        // store always holds at least one intact manifest, whichever
        // storage operation a crash lands on. (An unsealed `MANIFEST-<e>`
        // from a crash mid-write fails CRC validation and recovery falls
        // back to `<e-1>`.)
        let epoch = self.manifest_epoch.fetch_add(1, Ordering::Relaxed) + 1;
        sealed::write_sealed(self.storage.as_ref(), MANIFEST_PREFIX, epoch, text)?;
        inner.flushed = flushed;
        // Open readers pinned by a live Snapshot's Version keep removed
        // tables readable until released.
        let live: HashSet<&String> = sealing.iter().collect();
        for name in inner.named.iter().filter(|n| !live.contains(n)) {
            let _ = self.storage.remove(name);
        }
        inner.named = sealing;
        // The seal is done: a file the log fails to retire waits for the
        // next seal, as a table that fails to be removed does.
        let floor = inner.unflushed_from();
        if let Some(log) = inner.log.as_mut() {
            let _ = log.retire(floor);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compaction::TableContext;

    /// A manifest naming two level-1 tables whose key ranges overlap — what
    /// a build that stacked runs per level wrote, or a damaged manifest — is
    /// `Corruption` at `open`, naming the level and both files. At the
    /// parent of this check the same bytes opened without error and
    /// `get(120)` below answered `old`: the one-candidate-per-level lookup
    /// stops at the first table whose range covers the key. (ISSUE 21 shows
    /// the same on a directory written under the removed tiering policy — 7
    /// overlapping flush rounds over 2 000 keys, reopened with default
    /// options: 1 333 of 2 000 gets stale, a full scan unlike the oracle.)
    #[test]
    fn overlapping_tables_below_l0_are_refused_not_served() {
        let opts = Options::small_for_tests();
        let sealed_with = |second: std::ops::Range<u64>| {
            let storage = Arc::new(MemStorage::new());
            let next_file_no = AtomicU64::new(1);
            let ctx = TableContext {
                storage: storage.as_ref(),
                opts: &opts,
                next_file_no: &next_file_no,
                cache: None,
                stats: &DbStats::new(),
            };
            let mut names = Vec::new();
            for (seq, (keys, value)) in [(0..150, b"old"), (second, b"new")].into_iter().enumerate()
            {
                let tables = LevelWriter::write(&ctx, 1, |out| {
                    for key in keys {
                        let entry = Entry::put(key, seq as SeqNo + 1, value.to_vec());
                        out.add(&entry.key, &entry.value)?;
                    }
                    Ok(())
                });
                names.push(tables.unwrap().remove(0).meta.name.clone());
            }
            let text = format!(
                "next 3 2\nflushed 2\ntable 1 {}\ntable 1 {}\n",
                names[1], names[0]
            );
            sealed::write_sealed(storage.as_ref(), MANIFEST_PREFIX, 1, text).unwrap();
            (storage, names)
        };

        // Adjacent, disjoint ranges (listed out of order) open and read.
        let (storage, _) = sealed_with(150..200);
        let db = Db::open(storage, opts.clone()).unwrap();
        assert_eq!(db.get(120).unwrap(), Some(b"old".to_vec()));
        assert_eq!(db.get(150).unwrap(), Some(b"new".to_vec()));
        drop(db);

        let (storage, names) = sealed_with(100..200);
        let files_before = storage.list().unwrap().len();
        let refused = Db::open(storage.clone(), opts.clone());
        assert!(
            matches!(&refused, Err(Error::Corruption(msg)) if msg.contains("level 1")
                && msg.contains(&names[0]) && msg.contains(&names[1])),
            "{:?}",
            refused.err()
        );
        assert_eq!(storage.list().unwrap().len(), files_before);
    }

    /// A manifest naming a table at a level this build does not have — what
    /// a build that let `max_levels` exceed 8 wrote — is `Corruption` at
    /// `open`, naming the level and the file, and the refused open sweeps
    /// nothing. At the parent of this check recovery skipped the line, the
    /// open succeeded on an empty database, and its sweep removed the table.
    #[test]
    fn table_past_the_last_level_is_refused_not_swept() {
        let opts = Options::small_for_tests();
        let storage = Arc::new(MemStorage::new());
        let ctx = TableContext {
            storage: storage.as_ref(),
            opts: &opts,
            next_file_no: &AtomicU64::new(1),
            cache: None,
            stats: &DbStats::new(),
        };
        let tables = LevelWriter::write(&ctx, 1, |out| {
            for key in 0..150 {
                let entry = Entry::put(key, 1, b"kept".to_vec());
                out.add(&entry.key, &entry.value)?;
            }
            Ok(())
        });
        let name = tables.unwrap().remove(0).meta.name.clone();
        let text = format!("next 3 1\nflushed 1\ntable {MAX_LEVELS} {name}\n");
        sealed::write_sealed(storage.as_ref(), MANIFEST_PREFIX, 1, text).unwrap();
        let mut files_before = storage.list().unwrap();
        files_before.sort_unstable();

        let refused = Db::open(storage.clone(), opts);
        assert!(
            matches!(&refused, Err(Error::Corruption(msg))
                if msg.contains(&format!("level {MAX_LEVELS}")) && msg.contains(&name)),
            "{:?}",
            refused.err()
        );
        let mut left = storage.list().unwrap();
        left.sort_unstable();
        assert_eq!(left, files_before, "a refused open sweeps nothing");
    }

    /// A store that holds data no sealed manifest names is refused, and the
    /// refused open sweeps nothing: an unsealed pre-epoch `MANIFEST`, or no
    /// manifest at all beside a table and a log with records (the manifest
    /// was lost, not never written: a fresh open seals one before its first
    /// write). At the parent of the second input the open succeeded on an
    /// empty database and its sweep removed both files.
    #[test]
    fn unsealed_manifest_is_refused_not_opened_as_fresh() {
        let table: &[u8] = b"a table only a lost manifest could name";
        // Each input lists its files in name order, as the sorted listing.
        for (files, reason) in [
            (
                vec![("000003.sst", table), ("MANIFEST", b"next 4 0\n")],
                "MANIFEST",
            ),
            (
                vec![("000003.sst", table), ("000004.wal", b"a record")],
                "holds data",
            ),
        ] {
            let storage = Arc::new(MemStorage::new());
            for (name, bytes) in &files {
                storage.create(name).unwrap().append(bytes).unwrap();
            }
            let refused = Db::open(storage.clone(), Options::small_for_tests());
            assert!(
                matches!(&refused, Err(Error::Corruption(msg)) if msg.contains(reason)),
                "{:?}",
                refused.err()
            );
            let mut left = storage.list().unwrap();
            left.sort_unstable();
            let names: Vec<&str> = files.iter().map(|(name, _)| *name).collect();
            assert_eq!(left, names, "a refused open sweeps nothing");
        }

        // An empty log is what a crash before a fresh open's first seal
        // leaves: that store opens as fresh, and the log's recovery removes
        // the file once its fresh one, numbered past it, exists.
        let storage = Arc::new(MemStorage::new());
        drop(storage.create("000009.wal").unwrap());
        Db::open(storage.clone(), Options::small_for_tests()).unwrap();
        assert!(!storage.exists("000009.wal"));
        assert!(storage.exists("000010.wal"));
    }

    /// A manifest that names its logs — the layout before logs were found
    /// by listing — is `Corruption` naming the layout and the log, as is one
    /// with no `flushed` line, and the refused open removes nothing: opening
    /// would lose what the log holds.
    #[test]
    fn a_manifest_naming_its_log_is_refused_not_swept() {
        for (text, names) in [
            ("next 3 1\nwal 000002.wal\n", "000002.wal"),
            ("next 3 1\n", "no flushed line"),
        ] {
            let storage = Arc::new(MemStorage::new());
            let mut log = crate::wal::WalWriter::create(storage.as_ref(), "000002.wal").unwrap();
            let mut batch = crate::batch::WriteBatch::new();
            batch.put(7, b"logged");
            log.append_batch(1, batch.ops()).unwrap();
            sealed::write_sealed(storage.as_ref(), MANIFEST_PREFIX, 1, text.to_string()).unwrap();
            let mut files_before = storage.list().unwrap();
            files_before.sort_unstable();

            let refused = Db::open(storage.clone(), Options::small_for_tests());
            assert!(
                matches!(&refused, Err(Error::Corruption(msg))
                    if msg.contains(names) && msg.contains("earlier layout")),
                "{:?}",
                refused.err()
            );
            let mut left = storage.list().unwrap();
            left.sort_unstable();
            assert_eq!(left, files_before, "a refused open removes nothing");
        }
    }
}
