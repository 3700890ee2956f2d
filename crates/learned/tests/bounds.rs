//! Property tests for the core learned-index contract: for every index
//! family, every key distribution and every ε, the predicted position
//! boundary must contain the true position of present keys (and a usable
//! insertion point for absent ones).

use learned_index::{IndexConfig, IndexKind, SegmentIndex};
use lsm_workloads::Dataset;
use proptest::collection::btree_set;
use proptest::prelude::*;

fn sorted_keys() -> impl Strategy<Value = Vec<u64>> {
    btree_set(0u64..1 << 48, 1..600).prop_map(|s| s.into_iter().collect())
}

fn all_kinds() -> impl Strategy<Value = IndexKind> {
    prop::sample::select(IndexKind::ALL.to_vec())
}

fn build(kind: IndexKind, keys: &[u64], eps: usize) -> Box<dyn SegmentIndex> {
    let config = IndexConfig { epsilon: eps };
    kind.build(keys, &config)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn present_keys_always_within_bound(
        keys in sorted_keys(),
        kind in all_kinds(),
        eps in 1usize..64,
    ) {
        let idx = build(kind, &keys, eps);
        for (pos, &k) in keys.iter().enumerate() {
            let b = idx.predict(k);
            prop_assert!(
                b.contains(pos),
                "{kind} eps={eps} key={k} pos={pos} bound={b:?}"
            );
        }
    }

    #[test]
    fn absent_keys_bound_covers_insertion_point(
        keys in sorted_keys(),
        kind in all_kinds(),
        eps in 1usize..64,
        probes in prop::collection::vec(0u64..1 << 48, 1..50),
    ) {
        let idx = build(kind, &keys, eps);
        for probe in probes {
            if keys.binary_search(&probe).is_ok() {
                continue;
            }
            let ip = keys.partition_point(|&k| k < probe);
            let b = idx.predict(probe);
            prop_assert!(
                b.lo <= ip && ip <= b.hi,
                "{kind} eps={eps} probe={probe} ip={ip} bound={b:?}"
            );
        }
    }

    #[test]
    fn bound_length_respects_boundary(
        keys in sorted_keys(),
        eps in 1usize..64,
    ) {
        // RMI is excluded: its error is recorded, not configured.
        for kind in [
            IndexKind::FencePointers,
            IndexKind::Plr,
            IndexKind::FitingTree,
            IndexKind::Pgm,
            IndexKind::RadixSpline,
            IndexKind::Plex,
        ] {
            let idx = build(kind, &keys, eps);
            for &k in keys.iter().step_by(7) {
                let b = idx.predict(k);
                // 2ε core + rounding slack (≤ 2 per side across families).
                prop_assert!(
                    b.len() <= 2 * eps + 5,
                    "{kind} eps={eps} bound too wide: {b:?}"
                );
            }
        }
    }

    #[test]
    fn encode_decode_preserves_predictions(
        keys in sorted_keys(),
        kind in all_kinds(),
        eps in 1usize..32,
    ) {
        let idx = build(kind, &keys, eps);
        let back = IndexKind::decode(&idx.encode()).unwrap();
        prop_assert_eq!(back.kind(), kind);
        prop_assert_eq!(back.segment_count(), idx.segment_count());
        prop_assert_eq!(back.key_count(), idx.key_count());
        for &k in keys.iter().step_by(3) {
            prop_assert_eq!(back.predict(k), idx.predict(k), "{} key={}", kind, k);
        }
    }

    #[test]
    fn segmentations_respect_epsilon(
        keys in sorted_keys(),
        eps in 1usize..64,
    ) {
        let greedy = learned_index::cone::segment_keys(&keys, eps);
        prop_assert!(learned_index::cone::max_error(&greedy, &keys) <= eps);

        let spline = learned_index::spline::build_spline(&keys, eps);
        prop_assert!(learned_index::spline::max_error(&spline, &keys) <= eps);

        let opt = learned_index::pgm::optimal_pla(&keys, eps);
        prop_assert!(
            opt.len() <= greedy.len(),
            "optimal ({}) must not exceed greedy ({})",
            opt.len(),
            greedy.len()
        );
    }
}

/// Deterministic sweep over the paper's seven datasets at a reduced scale:
/// every index kind must honour containment on every distribution.
#[test]
fn all_kinds_on_all_datasets() {
    for dataset in Dataset::ALL {
        let keys = dataset.generate(20_000, 0xbeef);
        for kind in IndexKind::ALL {
            for eps in [4usize, 32] {
                let idx = build(kind, &keys, eps);
                for (pos, &k) in keys.iter().enumerate().step_by(97) {
                    let b = idx.predict(k);
                    assert!(
                        b.contains(pos),
                        "{kind} on {dataset} eps={eps}: pos={pos} bound={b:?}"
                    );
                }
            }
        }
    }
}

/// The paper's Figure 6 memory ordering at a fixed boundary: fence pointers
/// must cost the most memory and PGM/RMI must be cheaper than FITing-Tree on
/// learnable data.
#[test]
fn memory_ordering_matches_paper() {
    let keys = Dataset::Wiki.generate(100_000, 7);
    let eps = 16;
    let size = |kind: IndexKind| build(kind, &keys, eps).size_bytes();
    let fp = size(IndexKind::FencePointers);
    let ft = size(IndexKind::FitingTree);
    let pgm = size(IndexKind::Pgm);
    let plr = size(IndexKind::Plr);
    assert!(fp > plr, "fence pointers ({fp}) should exceed PLR ({plr})");
    assert!(fp > pgm, "fence pointers ({fp}) should exceed PGM ({pgm})");
    assert!(ft > pgm, "FITing-Tree ({ft}) should exceed PGM ({pgm})");
}
