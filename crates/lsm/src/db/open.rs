//! Opening a database: recovery from the newest sealed manifest and the
//! live WALs, the manifest seal, the orphan sweep, and the bulk load
//! (ARCHITECTURE.md §2).

use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::sync::{Condvar, Mutex as StdMutex};

use parking_lot::RwLock;

use super::write::{PublishQueue, WriteQueue};
use super::{Db, DbCore, Embedding, Inner};
use crate::cache::BlockCache;
use crate::compaction::LevelWriter;
use crate::memtable::MemTable;
use crate::options::{Maintenance, Options};
use crate::scheduler::{BgError, Scheduler};
use crate::sstable::TableReader;
use crate::stats::DbStats;
use crate::types::{Entry, SeqNo};
use crate::version::{TableHandle, Version};
use crate::wal::{self, WalWriter};
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
    /// A standalone open applies every replayed WAL record, including
    /// cross-shard prepare fragments (it has no marker log to resolve them
    /// against) — shard directories belong behind
    /// [`crate::sharding::ShardedDb::open`], whose coordinator resolves
    /// prepares to committed/aborted before the fence resumes.
    pub fn open(storage: Arc<dyn Storage>, opts: Options) -> Result<Db> {
        Self::open_internal(storage, opts, Embedding::default())
    }

    pub(crate) fn open_internal(
        storage: Arc<dyn Storage>,
        opts: Options,
        embedding: Embedding<'_>,
    ) -> Result<Db> {
        let Embedding {
            pool,
            resolver,
            coordination,
            obs,
            cache: shared_cache,
        } = embedding;
        // A standalone open with observability on builds its own handle;
        // the sharding layer passes per-shard handles sharing one ring.
        let obs = obs.or_else(|| opts.observability.then(|| Arc::new(EngineObs::solo(0))));
        // The sharding layer passes one cache shared by every shard (its
        // byte budget is global); a standalone open builds its own from
        // `Options::block_cache_bytes`.
        let cache = shared_cache.or_else(|| BlockCache::from_options(&opts));
        let mut inner = Inner {
            mem: MemTable::new(),
            imms: VecDeque::new(),
            version: Arc::new(Version::new(opts.max_levels)),
            seq: 0,
            cursors: vec![0; opts.max_levels],
            wal: None,
            flush_active: false,
            busy: HashSet::new(),
        };
        let mut next_file_no = 1u64;
        let mut manifest_epoch = 0u64;
        let mut replayed: Vec<wal::ReplayedRecord> = Vec::new();
        let mut old_wals: Vec<String> = Vec::new();
        if let Some((epoch, manifest_text)) =
            sealed::newest_valid(storage.as_ref(), MANIFEST_PREFIX)?
        {
            manifest_epoch = epoch;
            let (version, recovered_next, seq, wal_names) =
                DbCore::recover(&manifest_text, storage.as_ref(), &opts, cache.as_ref())?;
            inner.version = Arc::new(version);
            next_file_no = recovered_next;
            inner.seq = seq;
            // Replay unflushed batches from the previous generation's logs
            // — the active one plus one per immutable memtable that was
            // still queued at the crash, oldest first. Cross-shard prepare
            // fragments are resolved through the caller's resolver:
            // aborted fragments are suppressed here and never re-logged,
            // which is exactly how an unsealed cross-shard batch vanishes
            // from this shard. Their sequence numbers are not counted
            // either — after every shard suppresses its fragment the range
            // is unused everywhere and the fence may re-allocate it.
            for name in &wal_names {
                for record in wal::replay_records(storage.as_ref(), name)? {
                    let committed = match (&record.cross, resolver) {
                        (Some(tag), Some(resolve)) => resolve(tag)?,
                        _ => true,
                    };
                    if !committed {
                        continue;
                    }
                    let last_seq = record.first_seq + record.ops.len() as SeqNo - 1;
                    inner.seq = inner.seq.max(last_seq);
                    inner.mem.apply_batch(&record.ops, record.first_seq);
                    replayed.push(record);
                }
            }
            old_wals = wal_names;
        }
        if opts.wal {
            let name = format!("{next_file_no:06}.wal");
            next_file_no += 1;
            let mut w = WalWriter::create(storage.as_ref(), &name)?;
            // Re-log the surviving records into the fresh log, one batch
            // record each, so a second crash before the next flush still
            // loses nothing. Resolved cross-shard fragments are re-logged
            // as *plain* records: their commit markers may be pruned once
            // every shard has re-opened, so the fragments must no longer
            // depend on them.
            for record in &replayed {
                w.append_batch(record.first_seq, &record.ops)?;
            }
            if !replayed.is_empty() {
                w.sync()?;
            }
            inner.wal = Some(w);
        }
        let external = pool.is_some();
        let (signal, shutdown) = pool.unwrap_or_default();
        let start_seq = inner.seq;
        let core = Arc::new(DbCore {
            opts,
            storage,
            view: RwLock::new(Arc::new(DbCore::view_of(&inner))),
            inner: RwLock::new(inner),
            visible: AtomicU64::new(start_seq),
            write_queue: StdMutex::new(WriteQueue::default()),
            write_queue_cv: Condvar::new(),
            writers_in_flight: AtomicUsize::new(0),
            publish: StdMutex::new(PublishQueue::default()),
            publish_cv: Condvar::new(),
            stats: Arc::new(DbStats::new()),
            cache,
            snapshots: Arc::default(),
            next_file_no: AtomicU64::new(next_file_no),
            manifest_epoch: AtomicU64::new(manifest_epoch),
            manifest_dirty: AtomicBool::new(false),
            signal,
            shutdown,
            flush_paused: AtomicBool::new(false),
            compaction_paused: AtomicBool::new(false),
            bg_error: BgError::default(),
            coordination,
            obs,
        });
        {
            // Persist the fresh log's name so a reopen knows where to look.
            let inner = core.inner.read();
            core.write_manifest(&inner)?;
        }
        // The previous generation's logs are fully superseded (their
        // surviving contents were re-logged above and the manifest no
        // longer names them) — retire them so only live logs remain.
        if core.opts.wal {
            for old in old_wals {
                let _ = core.storage.remove(&old);
            }
        }
        // Sweep manifests stranded by earlier crashes (an unsealed newer
        // epoch, predecessors whose retirement never ran) *and* orphan
        // tables — outputs of a flush or
        // (sub)compaction that crashed before its manifest seal. A parallel
        // compaction can strand several such outputs at once; none is
        // named by any sealed manifest, so the recovered version is the
        // single source of truth for which `.sst` files are live.
        // Best-effort — a crash mid-sweep just leaves the next open to
        // finish it.
        let current = sealed::name(MANIFEST_PREFIX, core.manifest_epoch.load(Ordering::Relaxed));
        let live: HashSet<String> = {
            let inner = core.inner.read();
            inner
                .version
                .levels
                .iter()
                .flatten()
                .map(|t| t.meta.name.clone())
                .collect()
        };
        for name in core.storage.list()? {
            let stale = name != current && name.starts_with(MANIFEST_PREFIX);
            let orphan = name.ends_with(".sst") && !live.contains(&name);
            if stale || orphan {
                let _ = core.storage.remove(&name);
            }
        }
        let scheduler = match core.opts.maintenance {
            Maintenance::Synchronous => None,
            // On an external pool the sharding layer owns the worker
            // threads; this instance only contributes its step functions.
            Maintenance::Background { .. } if external => None,
            Maintenance::Background {
                flush_threads,
                compaction_threads,
            } => {
                let flush_core = Arc::clone(&core);
                let compact_core = Arc::clone(&core);
                Some(Scheduler::start(
                    Arc::clone(&core.signal),
                    Arc::clone(&core.shutdown),
                    flush_threads,
                    compaction_threads,
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
    pub fn bulk_load<I>(&self, entries: I) -> Result<()>
    where
        I: IntoIterator<Item = (u64, Vec<u8>)>,
    {
        let core = &self.core;
        let mut inner = core.inner.write();
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
        while level + 1 < core.opts.max_levels {
            let cap_entries = core.opts.level_target_bytes(level)
                / crate::sstable::format::entry_width(core.opts.value_width) as u64;
            if total <= cap_entries {
                break;
            }
            level += 1;
        }

        let ctx = core.tables();
        let mut out = LevelWriter::new(&ctx, level);
        for chunk in pending.chunks(per_table) {
            for e in chunk {
                out.add(&e.key, &e.value)?;
            }
            out.cut()?;
        }
        let tables = out.finish()?;
        let mut version = Version::new(core.opts.max_levels);
        version.levels[level] = tables;
        version.train_level_indexes(&core.opts)?;
        core.install(&mut inner, |tree| tree.version = Arc::new(version));
        // Bulk-loaded entries bypass the writer queue; publish their range
        // directly so reads (and the sharding fence) see them.
        core.visible.store(inner.seq, Ordering::Release);
        core.write_manifest(&inner)
    }
}

impl DbCore {
    fn recover(
        text: &str,
        storage: &dyn Storage,
        opts: &Options,
        cache: Option<&Arc<BlockCache>>,
    ) -> Result<(Version, u64, SeqNo, Vec<String>)> {
        let mut version = Version::new(opts.max_levels);
        let mut next_file_no = 1u64;
        let mut seq = 0u64;
        let mut wal_names = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let mut parts = line.split_whitespace();
            match parts.next() {
                Some("next") => {
                    next_file_no = parts
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| Error::Corruption(format!("manifest line {lineno}")))?;
                    seq = parts
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| Error::Corruption(format!("manifest line {lineno}")))?;
                }
                Some("wal") => {
                    // Oldest first: queued immutable-memtable logs, then
                    // the active log.
                    wal_names.extend(parts.next().map(|s| s.to_string()));
                }
                Some("table") => {
                    let level: usize = parts
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| Error::Corruption(format!("manifest line {lineno}")))?;
                    let name = parts
                        .next()
                        .ok_or_else(|| Error::Corruption(format!("manifest line {lineno}")))?;
                    let reader = Arc::new(
                        TableReader::open_with(storage, name, cache.cloned())?
                            .with_search_strategy(opts.search),
                    );
                    let meta = crate::sstable::TableMeta {
                        name: name.to_string(),
                        n: reader.len() as u64,
                        min_key: reader.min_key(),
                        max_key: reader.max_key(),
                        max_seq: 0,
                        file_bytes: storage.size_of(name)?,
                        index_bytes: reader.index_bytes(),
                        index_payload_bytes: 0,
                        bloom_bytes: reader.bloom_bytes(),
                        index_kind: reader.index_kind(),
                        train_ns: 0,
                        model_write_ns: 0,
                    };
                    if level < version.levels.len() {
                        version.levels[level].push(Arc::new(TableHandle { meta, reader }));
                    }
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
        version.train_level_indexes(opts)?;
        Ok((version, next_file_no, seq, wal_names))
    }

    pub(super) fn write_manifest(&self, inner: &Inner) -> Result<()> {
        let mut text = format!(
            "next {} {}\n",
            self.next_file_no.load(Ordering::Relaxed),
            inner.seq
        );
        // Every live log, oldest first: one per queued immutable memtable,
        // then the active log. A crash must find all of them, or rotated
        // but unflushed acknowledged writes would be lost.
        for imm in &inner.imms {
            if let Some(name) = &imm.wal {
                text.push_str(&format!("wal {name}\n"));
            }
        }
        if let Some(w) = &inner.wal {
            text.push_str(&format!("wal {}\n", w.name()));
        }
        for (level, tables) in inner.version.levels.iter().enumerate() {
            for t in tables {
                text.push_str(&format!("table {level} {}\n", t.meta.name));
            }
        }
        // Seal into a fresh epoch file, then retire the predecessor: the
        // store always holds at least one intact manifest, whichever
        // storage operation a crash lands on. (An unsealed `MANIFEST-<e>`
        // from a crash mid-write fails CRC validation and recovery falls
        // back to `<e-1>`.)
        let epoch = self.manifest_epoch.fetch_add(1, Ordering::Relaxed) + 1;
        self.manifest_dirty.store(true, Ordering::Release);
        sealed::write_sealed(self.storage.as_ref(), MANIFEST_PREFIX, epoch, text)?;
        // Sealed: the on-disk manifest now names the live WAL set.
        self.manifest_dirty.store(false, Ordering::Release);
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
            };
            let mut names = Vec::new();
            for (seq, (keys, value)) in [(0..150, b"old"), (second, b"new")].into_iter().enumerate()
            {
                let mut out = LevelWriter::new(&ctx, 1);
                for key in keys {
                    let entry = Entry::put(key, seq as SeqNo + 1, value.to_vec());
                    out.add(&entry.key, &entry.value).unwrap();
                }
                names.push(out.finish().unwrap().remove(0).meta.name.clone());
            }
            let text = format!("next 3 2\ntable 1 {}\ntable 1 {}\n", names[1], names[0]);
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

    #[test]
    fn unsealed_manifest_is_refused_not_opened_as_fresh() {
        let storage = Arc::new(MemStorage::new());
        let put = |name: &str, bytes: &[u8]| storage.create(name).unwrap().append(bytes).unwrap();
        put("MANIFEST", b"next 4 0\n");
        put(
            "000003.sst",
            b"a table only the unsealed manifest could name",
        );
        let refused = Db::open(storage.clone(), Options::small_for_tests());
        assert!(matches!(refused, Err(Error::Corruption(msg)) if msg.contains("MANIFEST")));
        assert!(
            storage.exists("000003.sst") && storage.exists("MANIFEST"),
            "a refused open sweeps nothing"
        );
    }
}
