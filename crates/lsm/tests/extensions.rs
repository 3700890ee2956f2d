//! Integration tests for the engine extension beyond the paper's baseline
//! testbed: per-level position boundaries (Observation 5).

use learned_index::IndexKind;
use lsm_tree::{Db, IndexChoice, Options};

fn base_opts() -> Options {
    let mut o = Options::small_for_tests();
    o.index = IndexChoice::with_boundary(IndexKind::Pgm, 64);
    o
}

#[test]
fn per_level_epsilon_changes_built_indexes() {
    // Tight boundary at the bottom level, loose above.
    let mut o = base_opts();
    o.per_level_epsilon = Some(vec![128, 128, 16, 4]);
    let db = Db::open_memory(o).unwrap();
    for k in 0..6_000u64 {
        db.put(k, &[1u8; 24]).unwrap();
    }
    db.flush().unwrap();
    let version = db.version();
    let deepest = version.deepest_level();
    assert!(deepest >= 2, "need a multi-level tree, got L{deepest}");

    // Verify reads still work everywhere.
    for k in (0..6_000u64).step_by(101) {
        assert_eq!(db.get(k).unwrap(), Some(vec![1u8; 24]));
    }

    // A uniform-tight configuration must spend more index memory than the
    // mixed one (upper levels got away with coarse boundaries).
    let mut tight = base_opts();
    tight.index = IndexChoice::new(IndexKind::Pgm, 4);
    let db_tight = Db::open_memory(tight).unwrap();
    for k in 0..6_000u64 {
        db_tight.put(k, &[1u8; 24]).unwrap();
    }
    db_tight.flush().unwrap();
    assert!(
        db.index_memory_bytes() <= db_tight.index_memory_bytes(),
        "mixed {} must not exceed uniformly-tight {}",
        db.index_memory_bytes(),
        db_tight.index_memory_bytes()
    );
}

#[test]
fn per_level_epsilon_clamps_to_last_entry() {
    let mut o = base_opts();
    o.per_level_epsilon = Some(vec![8]); // every level uses ε=8
    assert_eq!(o.index_for_level(0).config.epsilon, 8);
    assert_eq!(o.index_for_level(5).config.epsilon, 8);
    o.per_level_epsilon = Some(vec![]);
    assert_eq!(
        o.index_for_level(3).config.epsilon,
        o.index.config.epsilon,
        "empty override falls back to the global choice"
    );
}
