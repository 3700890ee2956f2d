//! The sealed routing topology: which shards exist and in what key order.
//!
//! * Every shard has a **stable id** — the number in its `shard-<id>/`
//!   directory. A fresh store numbers its shards `0..n` in routing order;
//!   a store an earlier build split online names non-contiguous ids.
//! * The topology (epoch, routing order of stable ids, boundary set, id
//!   watermark) is persisted as a CRC-sealed `SHARDING-<epoch>` file,
//!   like the per-shard epoch'd manifests. A fresh store seals
//!   `SHARDING-000001`; nothing changes it afterwards. Earlier builds
//!   split shards online, each split sealing the next epoch and only then
//!   retiring its predecessor, so a store they wrote may hold any epoch —
//!   and, after a crash mid-split, a stale epoch beside it or shard
//!   directories the newest one does not name (a split's children that
//!   never cut over, or the parent of one that did).
//! * A reopen adopts the newest sealed file that passes its CRC and sweeps
//!   the rest (`Topology::sweep_stale`); snapshots and the log's replay
//!   route through it.
//! * The unsealed `SHARDING` file of the oldest layouts has no reader:
//!   found with no sealed successor, it is a typed error.
//!
//! The boundary set in the sealed file is everything routing needs — the
//! router ([`ShardRouter`]) is a binary search over it — so nothing else
//! is persisted beside it.

use lsm_io::Storage;

use super::ShardRouter;
use crate::{sealed, Error, Result};

/// Epoch-numbered topology prefix (CRC-sealed).
pub(crate) const TOPOLOGY_PREFIX: &str = "SHARDING-";
/// The router-model file stores written before PR 19 keep beside their
/// topology. Nothing reads it; the sweep removes it.
const LEGACY_ROUTER_MODEL_FILE: &str = "SHARDING.model";

pub(crate) fn topology_name(epoch: u64) -> String {
    sealed::name(TOPOLOGY_PREFIX, epoch)
}

/// One persisted routing topology: the shard set at one epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    /// Epoch number: 1 for a store this build created; higher for one an
    /// earlier build split online.
    pub epoch: u64,
    /// Stable shard ids in routing order (`ids[pos]` owns range slot
    /// `pos`). Directories are `shard-<id>/`.
    pub ids: Vec<u16>,
    /// Strictly ascending cut points, `ids.len() - 1` of them: the shard
    /// at position `pos` owns `[boundaries[pos-1], boundaries[pos])`.
    pub boundaries: Vec<u64>,
    /// Above every stable id the store has used: the id watermark of the
    /// earlier builds that split, kept so the sealed text stays the same.
    pub next_id: u16,
}

impl Topology {
    /// A fresh epoch-1 topology cut at `boundaries`: one shard more than
    /// there are cuts, with stable ids in routing order from 0.
    pub(crate) fn fresh(boundaries: Vec<u64>) -> Self {
        let shards = boundaries.len() as u16 + 1;
        Topology {
            epoch: 1,
            ids: (0..shards).collect(),
            boundaries,
            next_id: shards,
        }
    }

    /// Number of shards at this epoch.
    pub fn shards(&self) -> usize {
        self.ids.len()
    }

    /// The router this topology routes by.
    pub(crate) fn router(&self) -> ShardRouter {
        ShardRouter::with_boundaries(self.boundaries.clone())
    }

    /// Directory prefix of the shard with stable id `id`.
    pub fn shard_dir(id: u16) -> String {
        format!("shard-{id}/")
    }

    // ------------------------------------------------------- persistence

    /// Seal this topology as `SHARDING-<epoch>` (fresh file, CRC footer,
    /// synced).
    pub(crate) fn save(&self, storage: &dyn Storage) -> Result<()> {
        // `policy range` is the only policy there is; the line stays so the
        // bytes of a sealed topology do not move.
        let mut text = format!(
            "epoch {}\npolicy range\nnext_id {}\n",
            self.epoch, self.next_id
        );
        for id in &self.ids {
            text.push_str(&format!("shard {id}\n"));
        }
        for b in &self.boundaries {
            text.push_str(&format!("boundary {b}\n"));
        }
        sealed::write_sealed(storage, TOPOLOGY_PREFIX, self.epoch, text)
    }

    /// Load the newest sealed topology: the highest `SHARDING-<epoch>`
    /// whose CRC footer validates. `Ok(None)` means a fresh database. A
    /// fresh create seals its topology before any shard directory or log
    /// exists, so shard files or a log with no topology mean it was lost:
    /// `Corruption`, where opening as fresh would sweep them.
    pub(crate) fn load(storage: &dyn Storage) -> Result<Option<Topology>> {
        let Some((epoch, text)) = sealed::newest_valid(storage, TOPOLOGY_PREFIX)? else {
            let mut names = storage.list()?.into_iter();
            return match names.find(|n| n.starts_with("shard-") || n.ends_with(".wal")) {
                Some(name) => Err(Error::Corruption(format!(
                    "{name} exists, but no {TOPOLOGY_PREFIX}<n> validates"
                ))),
                None => Ok(None),
            };
        };
        Self::parse(&text, epoch).map(Some)
    }

    fn parse(text: &str, epoch: u64) -> Result<Topology> {
        let mut topo = Topology {
            epoch,
            ids: Vec::new(),
            boundaries: Vec::new(),
            next_id: 0,
        };
        for (lineno, line) in text.lines().enumerate() {
            let corrupt = || Error::Corruption(format!("topology file line {lineno}"));
            let mut parts = line.split_whitespace();
            let field = parts.next();
            let value = parts.next();
            match field {
                Some("epoch") => {
                    let e: u64 = value.and_then(|s| s.parse().ok()).ok_or_else(corrupt)?;
                    if e != epoch {
                        return Err(Error::Corruption(format!(
                            "topology file {} claims epoch {e}",
                            topology_name(epoch)
                        )));
                    }
                }
                Some("policy") => match value {
                    Some("range") => {}
                    Some("hash") => {
                        return Err(Error::Corruption(format!(
                            "{}: hash topologies are not read by this build",
                            topology_name(epoch)
                        )))
                    }
                    _ => return Err(corrupt()),
                },
                Some("next_id") => {
                    topo.next_id = value.and_then(|s| s.parse().ok()).ok_or_else(corrupt)?;
                }
                Some("shard") => {
                    topo.ids
                        .push(value.and_then(|s| s.parse().ok()).ok_or_else(corrupt)?);
                }
                Some("boundary") => {
                    topo.boundaries
                        .push(value.and_then(|s| s.parse().ok()).ok_or_else(corrupt)?);
                }
                _ => {}
            }
        }
        topo.validate()?;
        Ok(topo)
    }

    fn validate(&self) -> Result<()> {
        if self.ids.is_empty() {
            return Err(Error::Corruption("topology with no shards".into()));
        }
        let mut seen = std::collections::HashSet::new();
        if !self.ids.iter().all(|id| seen.insert(*id)) {
            return Err(Error::Corruption("topology with duplicate shard id".into()));
        }
        if self.ids.iter().any(|&id| id >= self.next_id) {
            return Err(Error::Corruption(
                "topology id allocator behind a live shard id".into(),
            ));
        }
        if self.boundaries.len() + 1 != self.ids.len()
            || !self.boundaries.windows(2).all(|w| w[0] < w[1])
        {
            return Err(Error::Corruption("topology: bad boundaries".into()));
        }
        Ok(())
    }

    /// Remove stale topology epochs (anything but this one), a legacy
    /// router-model file, and orphaned shard directories (stable ids this
    /// topology does not name) — what a crash in the middle of an earlier
    /// build's split left: an aborted split's children, or a completed
    /// split's parent. Best-effort; a crash mid-sweep leaves the next open
    /// to finish it. Returns the orphaned ids swept.
    pub(crate) fn sweep_stale(&self, storage: &dyn Storage) -> Result<Vec<u16>> {
        let current = topology_name(self.epoch);
        let live: std::collections::HashSet<u16> = self.ids.iter().copied().collect();
        let mut orphans = std::collections::HashSet::new();
        for name in storage.list()? {
            let stale_epoch = name.starts_with(TOPOLOGY_PREFIX) && name != current;
            if stale_epoch || name == LEGACY_ROUTER_MODEL_FILE {
                let _ = storage.remove(&name);
                continue;
            }
            if let Some(rest) = name.strip_prefix("shard-") {
                if let Some((id, _)) = rest.split_once('/') {
                    if let Ok(id) = id.parse::<u16>() {
                        if !live.contains(&id) {
                            orphans.insert(id);
                            let _ = storage.remove(&name);
                        }
                    }
                }
            }
        }
        let mut orphans: Vec<u16> = orphans.into_iter().collect();
        orphans.sort_unstable();
        Ok(orphans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::{Options, ShardedOptions};
    use crate::sharding::ShardedDb;
    use lsm_io::MemStorage;
    use std::sync::Arc;

    fn range_topology() -> Topology {
        Topology::fresh(vec![100, 200, 300])
    }

    /// `range_topology()` after an earlier build split its shard 0 at 50:
    /// children 4 and 5 replace it at epoch 2.
    fn split_topology() -> Topology {
        Topology {
            epoch: 2,
            ids: vec![4, 5, 1, 2, 3],
            boundaries: vec![50, 100, 200, 300],
            next_id: 6,
        }
    }

    #[test]
    fn save_load_roundtrip() {
        let storage = MemStorage::new();
        let t = range_topology();
        t.save(&storage).unwrap();
        assert_eq!(Topology::load(&storage).unwrap(), Some(t));
    }

    #[test]
    fn newest_sealed_epoch_wins_and_torn_seal_falls_back() {
        let storage = MemStorage::new();
        range_topology().save(&storage).unwrap();
        let t2 = split_topology();
        t2.save(&storage).unwrap();
        assert_eq!(Topology::load(&storage).unwrap(), Some(t2.clone()));
        // A torn epoch-3 file (no valid CRC) must fall back to epoch 2.
        let mut f = storage.create(&topology_name(3)).unwrap();
        f.append(b"epoch 3\npolicy range\ngarbage").unwrap();
        drop(f);
        assert_eq!(Topology::load(&storage).unwrap(), Some(t2));
    }

    #[test]
    fn unsealed_sharding_file_is_refused_not_read_as_fresh() {
        let storage = MemStorage::new();
        let mut f = storage.create("SHARDING").unwrap();
        f.append(b"shards 3\npolicy range\nsample_len 99\nboundary 10\nboundary 20\n")
            .unwrap();
        drop(f);
        let refused = Topology::load(&storage);
        assert!(
            matches!(&refused, Err(Error::Corruption(msg)) if msg.contains("SHARDING")),
            "{refused:?}"
        );
        // A sealed successor is adopted; the leftover is ignored.
        range_topology().save(&storage).unwrap();
        assert_eq!(Topology::load(&storage).unwrap(), Some(range_topology()));
    }

    /// Shard files with no topology at all: the topology was lost, and the
    /// open refuses and sweeps nothing. At the parent of this check the
    /// open created a fresh topology whose sweep removed every shard
    /// directory it did not name.
    #[test]
    fn shard_files_without_a_topology_are_refused_not_read_as_fresh() {
        let storage = Arc::new(MemStorage::new());
        assert_eq!(Topology::load(storage.as_ref()).unwrap(), None, "fresh");
        let orphan = "shard-3/000004.sst";
        drop(storage.create(orphan).unwrap());
        let opts = ShardedOptions::learned(2, Vec::new(), Options::small_for_tests());
        let refused = ShardedDb::open(storage.clone(), opts);
        assert!(
            matches!(&refused, Err(Error::Corruption(msg)) if msg.contains(orphan)),
            "{:?}",
            refused.err()
        );
        assert_eq!(
            storage.list().unwrap(),
            [orphan],
            "a refused open sweeps nothing"
        );
    }

    #[test]
    fn bad_boundaries_are_corruption() {
        let storage = MemStorage::new();
        let mut t = range_topology();
        t.boundaries = vec![200, 100, 300];
        t.save(&storage).unwrap();
        assert!(Topology::load(&storage).is_err(), "unordered boundaries");
    }

    /// A sealed topology whose policy line says `hash` (a store created
    /// with the hash policy this build no longer has) routes by nothing
    /// this build can reproduce: a typed error that says so, not a guess.
    #[test]
    fn a_sealed_hash_topology_is_refused_by_name() {
        let storage = MemStorage::new();
        let text = "epoch 1\npolicy hash\nnext_id 2\nshard 0\nshard 1\n";
        sealed::write_sealed(&storage, TOPOLOGY_PREFIX, 1, text.into()).unwrap();
        let refused = Topology::load(&storage);
        assert!(
            matches!(&refused, Err(Error::Corruption(msg))
                if msg.contains("hash topologies are not read by this build")),
            "{refused:?}"
        );
    }

    #[test]
    fn sweep_removes_orphan_dirs_and_stale_epochs() {
        let storage = MemStorage::new();
        range_topology().save(&storage).unwrap();
        let t2 = split_topology();
        t2.save(&storage).unwrap();
        // Orphans: the split parent (id 0) plus a stray aborted child.
        for name in ["shard-0/MANIFEST-000001", "shard-9/000001.wal"] {
            let mut f = storage.create(name).unwrap();
            f.append(b"x").unwrap();
        }
        let mut f = storage.create("shard-4/keep").unwrap();
        f.append(b"live").unwrap();
        drop(f);
        let orphans = t2.sweep_stale(&storage).unwrap();
        assert_eq!(orphans, vec![0, 9]);
        assert!(!storage.exists("shard-0/MANIFEST-000001"));
        assert!(!storage.exists("shard-9/000001.wal"));
        assert!(storage.exists("shard-4/keep"), "live shard untouched");
        assert!(storage.exists(&topology_name(2)));
    }

    /// The sealed topology text as written before PR 19, `sample_len`
    /// line included.
    const PARENT_TEXT: &str = "epoch 1\npolicy range\nnext_id 4\nsample_len 99\n\
                               shard 0\nshard 1\nshard 2\nshard 3\n\
                               boundary 100\nboundary 200\nboundary 300\n";

    #[test]
    fn a_parent_written_sample_len_line_is_skipped() {
        let storage = MemStorage::new();
        sealed::write_sealed(&storage, TOPOLOGY_PREFIX, 1, PARENT_TEXT.into()).unwrap();
        assert_eq!(Topology::load(&storage).unwrap(), Some(range_topology()));
        // Re-sealed by this build, the text no longer carries the line.
        range_topology().save(&storage).unwrap();
        let resealed = lsm_io::read_all(&storage, &topology_name(1)).unwrap();
        assert!(!String::from_utf8_lossy(&resealed).contains("sample_len"));
    }

    /// A store the parent commit wrote keeps a `SHARDING.model` beside its
    /// topology. An open never reads it — the boundaries route every key
    /// exactly as the model-then-correct lookup did — and sweeps it.
    #[test]
    fn open_over_a_parent_written_store_routes_the_same_and_sweeps_the_model() {
        use crate::sharding::ShardedDb;
        use crate::{Options, ShardedOptions};
        use std::sync::Arc;
        let storage: Arc<dyn Storage> = Arc::new(MemStorage::new());
        sealed::write_sealed(storage.as_ref(), TOPOLOGY_PREFIX, 1, PARENT_TEXT.into()).unwrap();
        let mut f = storage.create(LEGACY_ROUTER_MODEL_FILE).unwrap();
        f.append(b"\x00\x01whatever the parent encoded").unwrap();
        drop(f);
        let opts = ShardedOptions::learned(2, vec![], Options::small_for_tests());
        let db = ShardedDb::open(Arc::clone(&storage), opts).unwrap();
        let routing = db.routing();
        assert_eq!(routing.router().boundaries(), &[100, 200, 300]);
        for (key, shard) in [(0, 0), (99, 0), (100, 1), (199, 1), (200, 2), (300, 3)] {
            assert_eq!(routing.router().shard_of(key), shard, "key {key}");
        }
        assert_eq!(routing.router().shard_of(u64::MAX), 3);
        assert!(!storage.exists(LEGACY_ROUTER_MODEL_FILE));
        assert!(storage.exists(&topology_name(1)));
    }

    /// The bytes the build before fixed topologies sealed for a fresh
    /// 4-shard store cut at 100 / 200 / 300.
    const FRESH_TEXT: &str = "epoch 1\npolicy range\nnext_id 4\n\
                              shard 0\nshard 1\nshard 2\nshard 3\n\
                              boundary 100\nboundary 200\nboundary 300\ncrc ec6ba908\n";

    /// A store an earlier build split online: its topology sits at epoch 3
    /// and names the non-contiguous ids 0, 5, 6 and 3, where shard 4 (which
    /// owned 100..300 at epoch 2) was split at 200, and a crash before the
    /// cutover's cleanup left the stale epoch 2 and shard 4's directory,
    /// holding a table. The open routes every key, boundaries ±1
    /// included, to the shard that held it, reads every key back — from
    /// the tables and from the log —, and sweeps the orphan and the stale
    /// epoch. A fresh open seals the bytes the build before this one did.
    #[test]
    fn a_store_an_earlier_build_split_opens_and_sheds_its_debris() {
        use crate::sharding::RecoveryReport;
        use crate::{Options, ShardedOptions};
        let opts = ShardedOptions::learned(4, (0..400).collect(), Options::small_for_tests());
        let value = |k: u64| match k % 7 {
            0 => b"logged".to_vec(),
            _ => k.to_le_bytes().to_vec(),
        };
        // The data: four shards' tables, and a log holding every 7th key.
        let written: Arc<dyn Storage> = Arc::new(MemStorage::new());
        let db = ShardedDb::open(Arc::clone(&written), opts.clone()).unwrap();
        let fresh = lsm_io::read_all(written.as_ref(), &topology_name(1)).unwrap();
        assert_eq!(String::from_utf8(fresh).unwrap(), FRESH_TEXT);
        for k in 0..400 {
            db.put(k, &k.to_le_bytes()).unwrap();
        }
        db.flush().unwrap();
        for k in (0..400).step_by(7) {
            db.put(k, &value(k)).unwrap();
        }
        drop(db);

        // The same files in the directories the split store names.
        let ids = [0u16, 5, 6, 3];
        let split: Arc<dyn Storage> = Arc::new(MemStorage::new());
        let copy = |from: &str, to: &str| {
            let bytes = lsm_io::read_all(written.as_ref(), from).unwrap();
            split.create(to).unwrap().append(&bytes).unwrap();
        };
        for name in written.list().unwrap() {
            match name.strip_prefix("shard-").and_then(|r| r.split_once('/')) {
                Some((id, file)) => {
                    let id = ids[id.parse::<usize>().unwrap()];
                    copy(&name, &format!("{}{file}", Topology::shard_dir(id)));
                }
                None if name.starts_with(TOPOLOGY_PREFIX) => {}
                None => copy(&name, &name),
            }
        }
        let names = written.list().unwrap();
        let table = names
            .iter()
            .find(|n| n.starts_with("shard-1/") && n.ends_with(".sst"));
        let table = table.expect("shard 1 flushed a table");
        copy(table, &table.replace("shard-1/", "shard-4/"));
        let epoch3 = "epoch 3\npolicy range\nnext_id 7\nshard 0\nshard 5\nshard 6\nshard 3\n\
                      boundary 100\nboundary 200\nboundary 300\n";
        let epoch2 = "epoch 2\npolicy range\nnext_id 5\nshard 0\nshard 4\nshard 3\n\
                      boundary 100\nboundary 300\n";
        sealed::write_sealed(split.as_ref(), TOPOLOGY_PREFIX, 3, epoch3.into()).unwrap();
        sealed::write_sealed(split.as_ref(), TOPOLOGY_PREFIX, 2, epoch2.into()).unwrap();

        let db = ShardedDb::open(Arc::clone(&split), opts).unwrap();
        let swept = RecoveryReport {
            topology_epoch: 3,
            orphan_shards_swept: 1,
        };
        assert_eq!(db.recovery_report(), swept);
        assert_eq!(db.routing().shard_ids(), ids);
        for (pos, cut) in [100u64, 200, 300].into_iter().enumerate() {
            for (key, owner) in [(cut - 1, pos), (cut, pos + 1), (cut + 1, pos + 1)] {
                assert_eq!(db.routing().router().shard_of(key), owner, "key {key}");
                assert_eq!(db.shard(owner).get(key).unwrap(), Some(value(key)));
            }
        }
        for k in 0..400 {
            assert_eq!(db.get(k).unwrap(), Some(value(k)), "key {k}");
        }
        let left = split.list().unwrap();
        assert!(!left.iter().any(|n| n.starts_with("shard-4/")), "{left:?}");
        assert!(!split.exists(&topology_name(2)));
        assert!(split.exists(&topology_name(3)));
    }
}
