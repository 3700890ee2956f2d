//! The epoch'd routing topology: which shards exist, in what key order,
//! and how that set changes crash-atomically at runtime.
//!
//! PR 3 froze the shard set at creation (`SHARDING` was written once and a
//! reopen with a different count was refused). Live splitting makes the
//! topology a *versioned* artifact instead:
//!
//! * Every shard has a **stable id** — the number in its `shard-<id>/`
//!   directory — that never changes across topology epochs. Cross-shard
//!   prepare records and their participant sets name stable ids, so a
//!   prepare written at epoch `e` still resolves correctly after any
//!   number of splits shifted routing positions around.
//! * The topology itself (epoch, routing order of stable ids, boundary
//!   set, id allocator) is persisted as a CRC-sealed `SHARDING-<epoch>`
//!   file, exactly like the per-shard epoch'd manifests: a change writes
//!   a **fresh** sealed file and only then retires its predecessor, so a
//!   crash at any storage-operation boundary leaves at least one intact
//!   topology and recovery adopts the newest one that validates. Sealing
//!   the new epoch **is** a split's cutover point: before it, the last
//!   sealed topology still names the parent (split children are orphans
//!   and are discarded); after it, the children own the range (and the
//!   parent directory is the orphan).
//! * The unsealed `SHARDING` file of PR 3 layouts has no reader: found
//!   with no sealed successor, it is a typed error.
//!
//! ## Epoch lifecycle, compactly
//!
//! 1. **Born** — a fresh store seals `SHARDING-000001`.
//! 2. **Advanced** — every published change (a split's cutover) seals
//!    `SHARDING-<epoch+1>` and only then retires the predecessor; the
//!    seal *is* the change's single storage-visible commit point.
//! 3. **Recovered** — reopen adopts the newest sealed file that passes
//!    its CRC; shard directories it does not name are orphans (an
//!    unsealed split's children, or a cut-over split's parent) and are
//!    swept.
//! 4. **Pinned** — snapshots resolve reads through the epoch they were
//!    created under, so a later cutover cannot reroute what they see;
//!    cross-shard commit markers are stamped with their routing epoch
//!    and validated against the last sealed one on recovery.
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
    /// Epoch number; bumped by exactly one per published change.
    pub epoch: u64,
    /// Stable shard ids in routing order (`ids[pos]` owns range slot
    /// `pos`). Directories are `shard-<id>/`.
    pub ids: Vec<u16>,
    /// Strictly ascending cut points, `ids.len() - 1` of them: the shard
    /// at position `pos` owns `[boundaries[pos-1], boundaries[pos])`.
    pub boundaries: Vec<u64>,
    /// Next stable id to allocate for a split child.
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

    /// The topology after splitting the shard at routing position `pos`
    /// at `cut`: the caller's two child ids replace the parent, the cut
    /// becomes a boundary, and the epoch advances by one. The ids are
    /// the **caller's** (the sharding layer's in-process allocator may
    /// have burned ids on aborted splits, so `next_id` here can lag the
    /// directories actually created — recording allocator-issued ids is
    /// what keeps the sealed topology pointing at the real child
    /// directories).
    pub(crate) fn with_split(&self, pos: usize, cut: u64, left: u16, right: u16) -> Topology {
        debug_assert!(left >= self.next_id && right > left);
        let mut ids = self.ids.clone();
        ids.splice(pos..=pos, [left, right]);
        let mut boundaries = self.boundaries.clone();
        boundaries.insert(pos, cut);
        Topology {
            epoch: self.epoch + 1,
            ids,
            boundaries,
            next_id: right + 1,
        }
    }

    // ------------------------------------------------------- persistence

    /// Seal this topology as `SHARDING-<epoch>` (fresh file, CRC footer,
    /// synced), then retire the predecessor epoch — the single
    /// storage-visible cutover of a topology change.
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
    /// whose CRC footer validates. `Ok(None)` means a fresh database.
    pub(crate) fn load(storage: &dyn Storage) -> Result<Option<Topology>> {
        sealed::newest_valid(storage, TOPOLOGY_PREFIX)?
            .map(|(epoch, text)| Self::parse(&text, epoch))
            .transpose()
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
    /// topology does not name) — the debris of crashes mid-publish: an
    /// aborted split's children, or a completed split's parent.
    /// Best-effort; a crash mid-sweep leaves the next open to finish it.
    /// Returns the orphaned ids swept.
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
    use lsm_io::MemStorage;

    fn range_topology() -> Topology {
        Topology::fresh(vec![100, 200, 300])
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
        let t1 = range_topology();
        t1.save(&storage).unwrap();
        let t2 = t1.with_split(0, 50, t1.next_id, t1.next_id + 1);
        t2.save(&storage).unwrap();
        assert_eq!(Topology::load(&storage).unwrap(), Some(t2.clone()));
        // A torn epoch-3 file (no valid CRC) must fall back to epoch 2.
        let mut f = storage.create(&topology_name(3)).unwrap();
        f.append(b"epoch 3\npolicy range\ngarbage").unwrap();
        drop(f);
        assert_eq!(Topology::load(&storage).unwrap(), Some(t2));
    }

    #[test]
    fn split_splices_ids_and_boundaries() {
        let t = range_topology();
        let s = t.with_split(1, 150, 4, 5);
        assert_eq!(s.epoch, t.epoch + 1);
        assert_eq!(s.ids, vec![0, 4, 5, 2, 3]);
        assert_eq!(s.boundaries, vec![100, 150, 200, 300]);
        assert_eq!(s.next_id, 6);
        s.validate().unwrap();
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
        let t1 = range_topology();
        t1.save(&storage).unwrap();
        let t2 = t1.with_split(0, 50, t1.next_id, t1.next_id + 1);
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
}
