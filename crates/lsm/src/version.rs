//! Level metadata: which tables live at which level.
//!
//! L0 holds whole flushed buffers (tables may overlap; searched newest
//! first). L1+ are sorted runs partitioned into non-overlapping tables,
//! located by binary search over key ranges. Versions are copy-on-write:
//! compactions build a new [`Version`] and swap it in, so readers never see
//! a half-applied edit.
//!
//! At [`IndexGranularity::Level`] a sorted level also carries one
//! [`LevelIndex`] — a model over all of the level's keys, consulted by
//! [`Version::get_opts`] in place of the binary search and the table's own
//! index. It belongs to the table list it was trained over: the edit that
//! changes a level drops the level's model, and
//! `Version::train_level_indexes` fills what is missing before the version
//! is installed. A level without one is read per table, which is always
//! correct.

use std::sync::Arc;
use std::time::Instant;

use learned_index::{SearchBound, SegmentIndex};

use crate::options::{IndexChoice, IndexGranularity, Options};
use crate::sstable::{TableMeta, TableReader};
use crate::stats::{add_stage_ns, DbStats, StageTimer};
use crate::types::SeqNo;
use crate::Result;

/// An open table plus its build metadata.
#[derive(Debug)]
pub struct TableHandle {
    pub meta: TableMeta,
    pub reader: Arc<TableReader>,
}

/// One index over every key of a sorted level (paper Section 5.2, Figure
/// 8's "L" point; Bourbon's level model): it predicts a position in the
/// concatenation of the level's tables, which `cum` maps back to a table
/// and a position range inside it. Far fewer, larger models than one per
/// SSTable. (The tables' own indexes stay loaded — scans and a level whose
/// model is missing use them — and stay what the cache budget is charged.)
pub struct LevelIndex {
    index: Box<dyn SegmentIndex>,
    /// `cum[i]` = entries in tables `0..i`; `cum.len()` = tables + 1.
    cum: Vec<usize>,
}

impl LevelIndex {
    /// Train `choice`'s index over `tables` (sorted, non-overlapping),
    /// reading every key of the level once — the cost this granularity
    /// trades for its memory.
    fn train(tables: &[Arc<TableHandle>], choice: &IndexChoice) -> Result<LevelIndex> {
        let mut keys = Vec::with_capacity(tables.iter().map(|t| t.reader.len()).sum());
        let mut cum = Vec::with_capacity(tables.len() + 1);
        cum.push(0);
        for t in tables {
            keys.extend(t.reader.read_all_keys()?);
            cum.push(keys.len());
        }
        let index = choice.kind.build(&keys, &choice.config);
        Ok(LevelIndex { index, cum })
    }

    /// In-memory footprint: the model plus the cumulative counts.
    pub fn size_bytes(&self) -> usize {
        self.index.size_bytes() + self.cum.len() * 8
    }
}

impl std::fmt::Debug for LevelIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LevelIndex")
            .field("kind", &self.index.kind())
            .field("tables", &(self.cum.len() - 1))
            .field("keys", &self.cum.last())
            .finish()
    }
}

/// Immutable snapshot of the level structure.
#[derive(Debug, Clone)]
pub struct Version {
    /// `levels[0]` holds whole flushed buffers, newest first, and they may
    /// overlap. **`levels[1..]` are sorted by `min_key` and disjoint** in
    /// every `Version` the engine builds: a compaction's outputs replace
    /// exactly the key range they were merged from, and recovery refuses a
    /// manifest that says otherwise. One candidate table per level
    /// ([`Version::locate`]), one concatenating cursor per level
    /// ([`crate::iter::LevelIter`]) and one model per level rest on it.
    pub levels: Vec<Vec<Arc<TableHandle>>>,
    /// `level_index[l]`, when present, was trained over exactly `levels[l]`.
    level_index: Vec<Option<Arc<LevelIndex>>>,
}

impl Version {
    /// Empty version with `max_levels` levels.
    pub fn new(max_levels: usize) -> Self {
        let max_levels = max_levels.max(2);
        Self {
            levels: vec![Vec::new(); max_levels],
            level_index: vec![None; max_levels],
        }
    }

    /// Point lookup through the levels (paper Figure 1): L0 newest→oldest,
    /// then one candidate table per deeper level — found by the level's
    /// model where it has one, by key range otherwise — under an explicit
    /// block-cache fill policy (`ReadOptions::fill_cache`).
    pub fn get_opts(
        &self,
        key: u64,
        snapshot: SeqNo,
        stats: &DbStats,
        fill_cache: bool,
    ) -> Result<Option<Option<Vec<u8>>>> {
        let probe = |level: usize, t: &TableHandle, within: Option<SearchBound>| -> Result<_> {
            let started = StageTimer::start();
            let hit = t
                .reader
                .get_within(key, within, snapshot, stats, fill_cache)?;
            if hit.is_some() {
                stats.record_level_read(level, started.ns());
            }
            Ok(hit)
        };
        // L0: tables may overlap; newest first.
        for t in &self.levels[0] {
            if let Some(hit) = probe(0, t, None)? {
                return Ok(Some(hit));
            }
        }
        let sorted = self.levels.iter().zip(&self.level_index);
        for (level, (tables, model)) in sorted.enumerate().skip(1) {
            if let Some(model) = model {
                // One prediction for the whole level; the predicted range
                // is split over the (at most two) tables it touches.
                let t0 = StageTimer::start();
                let bound = model.index.predict(key);
                add_stage_ns(&stats.predict_ns, t0.ns());
                if bound.is_empty() {
                    continue;
                }
                let first = model.cum.partition_point(|&c| c <= bound.lo) - 1;
                for (t, cum) in tables.iter().zip(model.cum.windows(2)).skip(first) {
                    if cum[0] >= bound.hi {
                        break;
                    }
                    let within = SearchBound {
                        lo: bound.lo.max(cum[0]) - cum[0],
                        hi: bound.hi.min(cum[1]) - cum[0],
                    };
                    if let Some(hit) = probe(level, t, Some(within))? {
                        return Ok(Some(hit));
                    }
                }
            } else {
                // L1+: binary search for the single candidate table.
                let t0 = StageTimer::start();
                let candidate = Self::locate(tables, key);
                add_stage_ns(&stats.table_locate_ns, t0.ns());
                if let Some(t) = candidate {
                    if let Some(hit) = probe(level, t, None)? {
                        return Ok(Some(hit));
                    }
                }
            }
        }
        Ok(None)
    }

    /// The table at a sorted level whose key range may contain `key`.
    pub fn locate(tables: &[Arc<TableHandle>], key: u64) -> Option<&Arc<TableHandle>> {
        if tables.is_empty() {
            return None;
        }
        let i = tables.partition_point(|t| t.meta.max_key < key);
        let t = tables.get(i)?;
        (t.meta.min_key <= key).then_some(t)
    }

    /// Tables at `level` overlapping `[min_key, max_key]`.
    pub fn overlapping(&self, level: usize, min_key: u64, max_key: u64) -> Vec<Arc<TableHandle>> {
        self.levels
            .get(level)
            .map(|tables| {
                tables
                    .iter()
                    .filter(|t| t.meta.min_key <= max_key && t.meta.max_key >= min_key)
                    .cloned()
                    .collect()
            })
            .unwrap_or_default()
    }

    /// New version with `table` pushed onto the front of L0.
    pub fn with_l0_table(&self, table: Arc<TableHandle>) -> Version {
        let mut v = self.clone();
        v.levels[0].insert(0, table);
        v
    }

    /// New version where `removed` (by file name) disappear from `level` and
    /// `level + 1`, and `added` join `level + 1`, which is re-sorted by min
    /// key.
    pub fn with_compaction_applied(
        &self,
        level: usize,
        removed: &[String],
        added: Vec<Arc<TableHandle>>,
    ) -> Version {
        let mut v = self.clone();
        // Both levels' table lists change: their models go with them.
        v.level_index[level] = None;
        v.level_index[level + 1] = None;
        let is_removed = |t: &Arc<TableHandle>| removed.iter().any(|r| r == &t.meta.name);
        v.levels[level].retain(|t| !is_removed(t));
        v.levels[level + 1].retain(|t| !is_removed(t));
        v.levels[level + 1].extend(added);
        v.levels[level + 1].sort_by_key(|t| t.meta.min_key);
        v
    }

    /// Total bytes of tables at `level`.
    pub fn level_bytes(&self, level: usize) -> u64 {
        self.levels
            .get(level)
            .map(|ts| ts.iter().map(|t| t.meta.file_bytes).sum())
            .unwrap_or(0)
    }

    /// Entries at `level`.
    pub fn level_entries(&self, level: usize) -> u64 {
        self.levels
            .get(level)
            .map(|ts| ts.iter().map(|t| t.meta.n).sum())
            .unwrap_or(0)
    }

    /// Train the model of every non-empty sorted level that lacks one, when
    /// `opts` asks for [`IndexGranularity::Level`] — each over all of the
    /// level's keys, with the level's error bound. Run on a version about to
    /// be installed; returns the nanoseconds spent.
    pub(crate) fn train_level_indexes(&mut self, opts: &Options) -> Result<u64> {
        if opts.index.granularity != IndexGranularity::Level {
            return Ok(0);
        }
        let started = Instant::now();
        for (level, tables) in self.levels.iter().enumerate().skip(1) {
            if !tables.is_empty() && self.level_index[level].is_none() {
                let model = LevelIndex::train(tables, &opts.index_for_level(level))?;
                self.level_index[level] = Some(Arc::new(model));
            }
        }
        Ok(started.elapsed().as_nanos() as u64)
    }

    /// The model lookups at `level` go through, if the level has one.
    pub fn level_index(&self, level: usize) -> Option<&LevelIndex> {
        self.level_index.get(level)?.as_deref()
    }

    /// In-memory index bytes of what lookups consult — the memory axis of
    /// the figures: a level's model where it has one, its tables' indexes
    /// where it does not.
    pub fn index_memory_bytes(&self) -> usize {
        self.index_memory_by_level().iter().sum()
    }

    /// [`Version::index_memory_bytes`], per level.
    pub fn index_memory_by_level(&self) -> Vec<usize> {
        self.levels
            .iter()
            .zip(&self.level_index)
            .map(|(tables, model)| match model {
                Some(model) => model.size_bytes(),
                None => tables.iter().map(|t| t.reader.index_bytes()).sum(),
            })
            .collect()
    }

    /// Total bloom filter bytes.
    pub fn bloom_memory_bytes(&self) -> usize {
        self.levels
            .iter()
            .flatten()
            .map(|t| t.reader.bloom_bytes())
            .sum()
    }

    /// Number of tables across all levels.
    pub fn table_count(&self) -> usize {
        self.levels.iter().map(Vec::len).sum()
    }

    /// Deepest non-empty level.
    pub fn deepest_level(&self) -> usize {
        self.levels
            .iter()
            .enumerate()
            .rev()
            .find(|(_, ts)| !ts.is_empty())
            .map(|(i, _)| i)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::IndexChoice;
    use crate::sstable::TableBuilder;
    use crate::types::Entry;
    use learned_index::IndexKind;
    use lsm_io::{MemStorage, Storage};

    const LATEST: SeqNo = u64::MAX >> 8;

    /// A table of `keys`, each with value `v<key>`.
    fn make_handle(
        storage: &MemStorage,
        name: &str,
        keys: impl IntoIterator<Item = u64>,
    ) -> Arc<TableHandle> {
        let file = storage.create(name).unwrap();
        let mut b = TableBuilder::new(
            file,
            name.into(),
            IndexChoice::new(IndexKind::Plr, 4),
            16,
            10,
        );
        for (i, k) in keys.into_iter().enumerate() {
            let value = format!("v{k}").into_bytes();
            b.add(&Entry::put(k, i as u64 + 1, value)).unwrap();
        }
        let meta = b.finish().unwrap();
        let reader = Arc::new(TableReader::open(storage, name).unwrap());
        Arc::new(TableHandle { meta, reader })
    }

    /// Options asking for one `kind` model per sorted level, error bound `eps`.
    fn level_grained(kind: IndexKind, eps: usize) -> Options {
        let mut opts = Options::small_for_tests();
        opts.index = IndexChoice {
            granularity: IndexGranularity::Level,
            ..IndexChoice::new(kind, eps)
        };
        opts
    }

    /// Every key of `keys` reads `v<key>` through `v`, each counted once at
    /// `level`; `absent` keys read nothing.
    fn assert_reads(v: &Version, level: usize, keys: &[u64], absent: &[u64], what: &str) {
        let stats = DbStats::new();
        for &k in keys {
            let got = v.get_opts(k, LATEST, &stats, true).unwrap();
            assert_eq!(got, Some(Some(format!("v{k}").into_bytes())), "{what} {k}");
        }
        for &k in absent {
            assert_eq!(v.get_opts(k, LATEST, &stats, true).unwrap(), None, "{what}");
        }
        assert_eq!(stats.snapshot().level_reads[level], keys.len() as u64);
    }

    #[test]
    fn locate_finds_covering_table() {
        let storage = MemStorage::new();
        let tables = vec![
            make_handle(&storage, "a", 0..100),
            make_handle(&storage, "b", 200..300),
            make_handle(&storage, "c", 400..500),
        ];
        assert_eq!(Version::locate(&tables, 50).unwrap().meta.name, "a");
        assert_eq!(Version::locate(&tables, 250).unwrap().meta.name, "b");
        assert_eq!(Version::locate(&tables, 499).unwrap().meta.name, "c");
        assert!(
            Version::locate(&tables, 150).is_none(),
            "gap between tables"
        );
        assert!(Version::locate(&tables, 600).is_none(), "past the end");
    }

    #[test]
    fn get_prefers_l0_over_deeper_levels() {
        let storage = MemStorage::new();
        let mut v = Version::new(4);
        // Same key range at L0 (newer) and L1 (older values).
        v.levels[1].push(make_handle(&storage, "old", 0..50));
        let l0 = {
            let file = storage.create("new").unwrap();
            let mut b = TableBuilder::new(
                file,
                "new".into(),
                IndexChoice::new(IndexKind::Plr, 4),
                16,
                10,
            );
            b.add(&Entry::put(10, 1000, b"newest".to_vec())).unwrap();
            let meta = b.finish().unwrap();
            Arc::new(TableHandle {
                meta,
                reader: Arc::new(TableReader::open(&storage, "new").unwrap()),
            })
        };
        v.levels[0].push(l0);
        let stats = DbStats::new();
        let got = v.get_opts(10, u64::MAX >> 8, &stats, true).unwrap();
        assert_eq!(got, Some(Some(b"newest".to_vec())));
        assert_eq!(stats.snapshot().level_reads[0], 1);
    }

    #[test]
    fn overlapping_selects_by_range() {
        let storage = MemStorage::new();
        let mut v = Version::new(4);
        v.levels[1] = vec![
            make_handle(&storage, "a", 0..100),
            make_handle(&storage, "b", 200..300),
            make_handle(&storage, "c", 400..500),
        ];
        let hits = v.overlapping(1, 90, 250);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].meta.name, "a");
        assert_eq!(hits[1].meta.name, "b");
        assert!(v.overlapping(1, 150, 160).is_empty());
    }

    #[test]
    fn compaction_edit_replaces_tables() {
        let storage = MemStorage::new();
        let mut v = Version::new(4);
        v.levels[1] = vec![make_handle(&storage, "in1", 0..100)];
        v.levels[2] = vec![make_handle(&storage, "in2", 0..150)];
        let out = make_handle(&storage, "out", 0..150);
        let v2 = v.with_compaction_applied(1, &["in1".into(), "in2".into()], vec![out]);
        assert!(v2.levels[1].is_empty());
        assert_eq!(v2.levels[2].len(), 1);
        assert_eq!(v2.levels[2][0].meta.name, "out");
        // Original untouched (copy-on-write).
        assert_eq!(v.levels[1].len(), 1);
        assert_eq!(v2.deepest_level(), 2);
    }

    #[test]
    fn memory_accounting_sums_tables() {
        let storage = MemStorage::new();
        let mut v = Version::new(3);
        v.levels[1] = vec![
            make_handle(&storage, "a", 0..1000),
            make_handle(&storage, "b", 2000..3000),
        ];
        assert!(v.index_memory_bytes() > 0);
        assert!(v.bloom_memory_bytes() >= 2 * 1000 * 10 / 8);
        assert_eq!(v.table_count(), 2);
        assert_eq!(v.level_entries(1), 2000);
        let by_level = v.index_memory_by_level();
        assert_eq!(by_level[0], 0);
        assert_eq!(by_level[1], v.index_memory_bytes());
    }

    /// Three tables of 1 000 keys each at L1.
    fn three_table_level(storage: &MemStorage) -> (Version, Vec<u64>) {
        let mut v = Version::new(3);
        v.levels[1] = ["a", "b", "c"]
            .iter()
            .zip([0..1000u64, 1000..2000, 2000..3000])
            .map(|(name, range)| make_handle(storage, name, range.map(|i| i * 3)))
            .collect();
        (v, (0..3000u64).map(|i| i * 3).collect())
    }

    #[test]
    fn level_index_finds_keys_across_table_boundaries() {
        let storage = MemStorage::new();
        for kind in [IndexKind::Pgm, IndexKind::Rmi, IndexKind::FencePointers] {
            let (mut v, all) = three_table_level(&storage);
            v.train_level_indexes(&level_grained(kind, 32)).unwrap();
            let model = v.level_index(1).expect("L1 has its model");
            assert_eq!(model.cum, [0, 1000, 2000, 3000], "{kind}");
            assert_eq!(model.index.kind(), kind);
            let probes: Vec<u64> = all.iter().copied().step_by(53).collect();
            let edges = [0, 2997, 3000, 5997, 6000, 8997];
            assert_reads(&v, 1, &probes, &[1, 2998, 9000], &format!("{kind}"));
            assert_reads(&v, 1, &edges, &[], &format!("{kind} table edges"));
        }
    }

    #[test]
    fn level_index_uses_less_memory_than_per_table() {
        let storage = MemStorage::new();
        let (mut v, _) = three_table_level(&storage);
        let per_table = v.index_memory_bytes();
        assert_eq!(
            per_table,
            v.levels[1].iter().map(|t| t.reader.index_bytes()).sum()
        );
        // Per-table options train nothing.
        v.train_level_indexes(&Options::small_for_tests()).unwrap();
        assert!(v.level_index(1).is_none());
        v.train_level_indexes(&level_grained(IndexKind::Plr, 4))
            .unwrap();
        let model = v.level_index(1).unwrap();
        assert_eq!(v.index_memory_bytes(), model.size_bytes());
        assert_eq!(v.index_memory_by_level(), [0, model.size_bytes(), 0]);
        assert!(
            model.size_bytes() < per_table,
            "level model {} must beat per-table {per_table}",
            model.size_bytes()
        );
    }

    #[test]
    fn empty_and_unsorted_levels_get_no_model() {
        let storage = MemStorage::new();
        let mut v = Version::new(4);
        v.levels[0].push(make_handle(&storage, "l0", 0..10));
        v.levels[2].push(make_handle(&storage, "l2", 0..100));
        v.train_level_indexes(&level_grained(IndexKind::Pgm, 8))
            .unwrap();
        let has_model: Vec<bool> = (0..4).map(|l| v.level_index(l).is_some()).collect();
        assert_eq!(has_model, [false, false, true, false]);
        assert_reads(&v, 2, &[50], &[500], "past an empty L1");
    }

    #[test]
    fn bound_straddling_two_tables_is_searched_in_both() {
        let storage = MemStorage::new();
        // Tiny tables so a 2ε window spans a boundary.
        let mut v = Version::new(3);
        v.levels[1] = vec![
            make_handle(&storage, "lo", 0..20),
            make_handle(&storage, "hi", 20..40),
        ];
        v.train_level_indexes(&level_grained(IndexKind::FencePointers, 16))
            .unwrap();
        let model = v.level_index(1).unwrap();
        let straddles = |k: u64| {
            let bound = model.index.predict(k);
            bound.lo < 20 && bound.hi > 20
        };
        assert!((0..40).any(straddles), "no bound straddles the tables");
        let keys: Vec<u64> = (0..40).collect();
        assert_reads(&v, 1, &keys, &[40, 1000], "straddling");
    }

    /// A model belongs to the table list it was trained over: an edit that
    /// moves keys between levels must drop both levels' models. Kept, L1's
    /// would map positions onto tables that are gone and lose every key.
    #[test]
    fn a_compaction_edit_drops_the_models_of_the_levels_it_changes() {
        let storage = MemStorage::new();
        let opts = level_grained(IndexKind::Pgm, 4);
        let mut v = Version::new(4);
        v.levels[1] = vec![
            make_handle(&storage, "in1", (0..100).map(|i| i * 2)),
            make_handle(&storage, "stay1", (100..200).map(|i| i * 2)),
        ];
        v.levels[2] = vec![
            make_handle(&storage, "in2", (0..100).map(|i| i * 2 + 1)),
            make_handle(&storage, "stay2", (100..200).map(|i| i * 2 + 1)),
        ];
        v.levels[3] = vec![make_handle(&storage, "deep", 1000..1100)];
        v.train_level_indexes(&opts).unwrap();
        let keys: Vec<u64> = (0..400).chain(1000..1100).collect();
        let (l1, l2): (Vec<u64>, Vec<u64>) = (0..400u64).partition(|k| k % 2 == 0);
        assert_reads(&v, 1, &l1, &[], "before");
        assert_reads(&v, 2, &l2, &[], "before");

        // `in1` merges into L2: keys 0..200 now all live in `out`.
        let out = make_handle(&storage, "out", 0..200);
        let mut v2 = v.with_compaction_applied(1, &["in1".into(), "in2".into()], vec![out]);
        assert!(v2.level_index(1).is_none() && v2.level_index(2).is_none());
        let untouched = v2.level_index(3).expect("L3 keeps its model");
        assert!(std::ptr::eq(untouched, v.level_index(3).unwrap()));
        let stats = DbStats::new();
        for &k in &keys {
            let got = v2.get_opts(k, LATEST, &stats, true).unwrap();
            assert_eq!(got, Some(Some(format!("v{k}").into_bytes())), "edited {k}");
        }
        v2.train_level_indexes(&opts).unwrap();
        assert_eq!(v2.level_index(1).unwrap().cum, [0, 100]);
        assert_eq!(v2.level_index(2).unwrap().cum, [0, 200, 300]);
        let (l1, l2): (Vec<u64>, Vec<u64>) = (0..400u64).partition(|k| *k >= 200 && k % 2 == 0);
        assert_reads(&v2, 1, &l1, &[], "retrained");
        assert_reads(&v2, 2, &l2, &[], "retrained");
        // The version the edit started from still reads through its own.
        assert_reads(&v, 3, &keys[400..], &[], "original");
    }
}
