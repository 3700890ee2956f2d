//! Learned index structures over sorted key arrays (paper Sections 3–4).
//!
//! The paper classifies learned indexes into *data-clustered* (keys stay in
//! sorted, contiguous storage — compatible with LSM-trees) and
//! *data-unclustered* (ALEX, LIPP — incompatible without redesigning the
//! SSTable). This crate implements the six data-clustered indexes the paper
//! evaluates, plus the classical fence-pointer baseline:
//!
//! | Index | Segmentation | Inner index over segments |
//! |---|---|---|
//! | [`plr::PlrIndex`] | greedy shrinking cone | sorted array + binary search |
//! | [`fitting::FitingTreeIndex`] | greedy shrinking cone | B+-tree |
//! | [`pgm::PgmIndex`] | optimal streaming (O'Rourke) | recursive PGM levels |
//! | [`radixspline::RadixSplineIndex`] | greedy spline corridor | radix table |
//! | [`plex::PlexIndex`] | greedy spline corridor | compact hist-tree (self-tuned) |
//! | [`rmi::RmiIndex`] | implicit (per-leaf partitions) | top linear model |
//! | [`fence::FencePointerIndex`] | fixed-width blocks | sorted array + binary search |
//!
//! Every index is built over a sorted `&[u64]` and answers
//! [`SegmentIndex::predict`] with a [`SearchBound`] — the *position boundary*
//! of the paper: a half-open range of positions guaranteed to contain the key
//! if it is present. The bound length is the paper's central tuning knob
//! (`2ε`), because it determines how many I/O blocks a lookup must fetch.

pub mod bptree;
pub mod codec;
pub mod cone;
pub mod cost;
pub mod diagnostics;
pub mod fence;
pub mod fitting;
pub mod histtree;
pub mod linear;
pub mod pgm;
pub mod plex;
pub mod plr;
pub mod radixspline;
pub mod rmi;
pub mod spline;

use std::fmt;

pub use cost::TheoreticalCost;
pub use diagnostics::IndexDiagnostics;

/// Half-open position range `[lo, hi)` guaranteed to contain the looked-up
/// key's position (or its insertion point) within the indexed array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchBound {
    pub lo: usize,
    pub hi: usize,
}

impl SearchBound {
    /// Construct a bound clamped to `[0, n)` around a predicted position.
    /// The prediction itself is clamped first, so even a corrupt model
    /// parameter (deserialized from a damaged file) can never produce a
    /// bound outside the array.
    #[inline]
    pub fn around(pred: usize, eps: usize, n: usize) -> Self {
        if n == 0 {
            return SearchBound { lo: 0, hi: 0 };
        }
        let pred = pred.min(n - 1);
        let lo = pred.saturating_sub(eps);
        let hi = (pred + eps + 1).min(n);
        SearchBound { lo, hi: hi.max(lo) }
    }

    /// Number of candidate positions.
    #[inline]
    pub fn len(&self) -> usize {
        self.hi - self.lo
    }

    /// Whether the bound is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.hi == self.lo
    }

    /// Whether `pos` falls inside the bound.
    #[inline]
    pub fn contains(&self, pos: usize) -> bool {
        (self.lo..self.hi).contains(&pos)
    }
}

/// The index families evaluated by the paper (Figure 6 legend), in its order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexKind {
    /// Classical fence pointers (baseline, "FP").
    FencePointers,
    /// FITing-Tree ("FT").
    FitingTree,
    /// Piece-wise Linear Regression as used by Bourbon ("PLR").
    Plr,
    /// PLEX: spline + compact hist-tree.
    Plex,
    /// RadixSpline ("RS").
    RadixSpline,
    /// Two-level Recursive Model Index ("RMI").
    Rmi,
    /// PGM-index ("PGM").
    Pgm,
}

impl IndexKind {
    /// All kinds, in the paper's presentation order.
    pub const ALL: [IndexKind; 7] = [
        IndexKind::FencePointers,
        IndexKind::FitingTree,
        IndexKind::Plr,
        IndexKind::Plex,
        IndexKind::RadixSpline,
        IndexKind::Rmi,
        IndexKind::Pgm,
    ];

    /// The six learned kinds (everything but fence pointers).
    pub const LEARNED: [IndexKind; 6] = [
        IndexKind::FitingTree,
        IndexKind::Plr,
        IndexKind::Plex,
        IndexKind::RadixSpline,
        IndexKind::Rmi,
        IndexKind::Pgm,
    ];

    /// Abbreviation used in the paper's figures.
    pub fn abbrev(&self) -> &'static str {
        match self {
            IndexKind::FencePointers => "FP",
            IndexKind::FitingTree => "FT",
            IndexKind::Plr => "PLR",
            IndexKind::Plex => "PLEX",
            IndexKind::RadixSpline => "RS",
            IndexKind::Rmi => "RMI",
            IndexKind::Pgm => "PGM",
        }
    }

    /// Parse from the paper abbreviation (case-insensitive).
    pub fn from_abbrev(s: &str) -> Option<IndexKind> {
        let up = s.to_ascii_uppercase();
        IndexKind::ALL.iter().copied().find(|k| k.abbrev() == up)
    }

    /// Stable one-byte tag used by the on-disk encoding.
    pub fn tag(&self) -> u8 {
        match self {
            IndexKind::FencePointers => 0,
            IndexKind::FitingTree => 1,
            IndexKind::Plr => 2,
            IndexKind::Plex => 3,
            IndexKind::RadixSpline => 4,
            IndexKind::Rmi => 5,
            IndexKind::Pgm => 6,
        }
    }

    /// Inverse of [`IndexKind::tag`].
    pub fn from_tag(tag: u8) -> Option<IndexKind> {
        IndexKind::ALL.iter().copied().find(|k| k.tag() == tag)
    }

    /// Build an index of this kind over `keys` (sorted, distinct) with the
    /// given configuration. Each kind's own construction tunable is the
    /// constant beside it ([`pgm::PGM_EPSILON_RECURSIVE`],
    /// [`radixspline::RADIX_BITS`], [`fitting::BPTREE_FANOUT`]).
    pub fn build(&self, keys: &[u64], config: &IndexConfig) -> Box<dyn SegmentIndex> {
        let eps = config.epsilon.max(1);
        match self {
            IndexKind::FencePointers => Box::new(fence::FencePointerIndex::build(keys, eps)),
            IndexKind::FitingTree => Box::new(fitting::FitingTreeIndex::build(
                keys,
                eps,
                fitting::BPTREE_FANOUT,
            )),
            IndexKind::Plr => Box::new(plr::PlrIndex::build(keys, eps)),
            IndexKind::Plex => Box::new(plex::PlexIndex::build(keys, eps)),
            IndexKind::RadixSpline => Box::new(radixspline::RadixSplineIndex::build(
                keys,
                eps,
                radixspline::RADIX_BITS,
            )),
            IndexKind::Rmi => Box::new(rmi::RmiIndex::build_for_epsilon(keys, eps)),
            IndexKind::Pgm => Box::new(pgm::PgmIndex::build(keys, eps, pgm::PGM_EPSILON_RECURSIVE)),
        }
    }

    /// Decode an index previously serialized with
    /// [`SegmentIndex::encode_into`]. The payload must start with the kind
    /// tag byte.
    pub fn decode(bytes: &[u8]) -> Result<Box<dyn SegmentIndex>, codec::DecodeError> {
        let mut r = codec::Reader::new(bytes);
        let tag = r.u8("kind tag")?;
        let kind = IndexKind::from_tag(tag).ok_or(codec::DecodeError::BadTag(tag))?;
        let idx: Box<dyn SegmentIndex> = match kind {
            IndexKind::FencePointers => Box::new(fence::FencePointerIndex::decode_body(&mut r)?),
            IndexKind::FitingTree => Box::new(fitting::FitingTreeIndex::decode_body(&mut r)?),
            IndexKind::Plr => Box::new(plr::PlrIndex::decode_body(&mut r)?),
            IndexKind::Plex => Box::new(plex::PlexIndex::decode_body(&mut r)?),
            IndexKind::RadixSpline => Box::new(radixspline::RadixSplineIndex::decode_body(&mut r)?),
            IndexKind::Rmi => Box::new(rmi::RmiIndex::decode_body(&mut r)?),
            IndexKind::Pgm => Box::new(pgm::PgmIndex::decode_body(&mut r)?),
        };
        r.finish()?;
        Ok(idx)
    }
}

impl fmt::Display for IndexKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.abbrev())
    }
}

/// The index half of the configuration space of Section 4: the position
/// boundary, as its error bound ε. (The index type is the [`IndexKind`] that
/// builds with it; granularity is an engine setting.) Each kind's own
/// construction tunable is a constant, not a setting: no experiment of the
/// paper varies one.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexConfig {
    /// Error bound ε. The paper's *position boundary* is `2ε` (the final
    /// search range the LSM-tree reads from disk).
    pub epsilon: usize,
}

impl Default for IndexConfig {
    fn default() -> Self {
        Self { epsilon: 32 }
    }
}

impl IndexConfig {
    /// Config with a specific position boundary (`2ε`).
    pub fn with_position_boundary(boundary: usize) -> Self {
        Self {
            epsilon: (boundary / 2).max(1),
        }
    }

    /// The resulting position boundary (`2ε`).
    pub fn position_boundary(&self) -> usize {
        self.epsilon * 2
    }
}

/// A learned (or classical) index over one sorted key array.
///
/// Contract: for any `key`, the returned bound contains the *partition point*
/// of `key` in the indexed array — i.e. `keys[p-1] < key <= keys[p]` implies
/// `lo <= p' < hi` for some `p'` with `keys[p'] == key` when present, and the
/// bound always contains either the insertion point or its predecessor. The
/// property tests in `tests/bounds.rs` enforce containment for present keys
/// and usable bounds for absent keys.
pub trait SegmentIndex: Send + Sync {
    /// Which family this index belongs to.
    fn kind(&self) -> IndexKind;

    /// Predict the position range for `key`.
    fn predict(&self, key: u64) -> SearchBound;

    /// Approximate resident memory of the index metadata, in bytes. This is
    /// the "Memory (B)" axis of Figures 6, 8, 11 and 12.
    fn size_bytes(&self) -> usize;

    /// Number of leaf segments / models / pointers.
    fn segment_count(&self) -> usize;

    /// Number of keys the index was built over.
    fn key_count(&self) -> usize;

    /// Serialize, starting with the kind tag byte (see [`IndexKind::decode`]).
    fn encode_into(&self, out: &mut Vec<u8>);

    /// Serialized form as a fresh vector.
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.size_bytes() + 16);
        self.encode_into(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn search_bound_around_clamps() {
        let b = SearchBound::around(5, 10, 100);
        assert_eq!(b, SearchBound { lo: 0, hi: 16 });
        let b = SearchBound::around(95, 10, 100);
        assert_eq!(b, SearchBound { lo: 85, hi: 100 });
        let b = SearchBound::around(50, 2, 100);
        assert_eq!(b.len(), 5);
        assert!(b.contains(50));
        assert!(!b.contains(53));
    }

    #[test]
    fn kind_tags_roundtrip() {
        for k in IndexKind::ALL {
            assert_eq!(IndexKind::from_tag(k.tag()), Some(k));
            assert_eq!(IndexKind::from_abbrev(k.abbrev()), Some(k));
        }
        assert_eq!(IndexKind::from_tag(99), None);
        assert_eq!(IndexKind::from_abbrev("nope"), None);
    }

    #[test]
    fn config_boundary_roundtrip() {
        let c = IndexConfig::with_position_boundary(64);
        assert_eq!(c.epsilon, 32);
        assert_eq!(c.position_boundary(), 64);
        // Boundary below 2 clamps to ε=1.
        let c = IndexConfig::with_position_boundary(1);
        assert_eq!(c.epsilon, 1);
    }
}
