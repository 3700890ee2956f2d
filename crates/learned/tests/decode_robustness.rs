//! Decoder robustness: `IndexKind::decode` consumes bytes read straight off
//! disk, so it must reject arbitrary corruption with an error — never panic,
//! never loop, never allocate absurdly.

use learned_index::{IndexConfig, IndexKind};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary garbage must produce `Err`, not a panic.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = IndexKind::decode(&bytes);
    }

    /// Truncating a valid payload at any point must fail cleanly.
    #[test]
    fn truncated_payloads_fail_cleanly(
        cut_fraction in 0.0f64..1.0,
        kind in prop::sample::select(IndexKind::ALL.to_vec()),
    ) {
        let keys: Vec<u64> = (0..500u64).map(|i| i * 7 + 3).collect();
        let idx = kind.build(&keys, &IndexConfig { epsilon: 8 });
        let full = idx.encode();
        let cut = ((full.len() as f64 * cut_fraction) as usize).min(full.len() - 1);
        prop_assert!(
            IndexKind::decode(&full[..cut]).is_err(),
            "{kind}: truncation at {cut}/{} must fail",
            full.len()
        );
    }

    /// Flipping one byte either fails or still yields a *usable* index
    /// (predictions in range) — silent nonsense is allowed only within the
    /// model parameters, never as a panic or out-of-bounds answer.
    #[test]
    fn single_byte_corruption_is_contained(
        pos_frac in 0.0f64..1.0,
        xor in 1u8..=255,
        kind in prop::sample::select(IndexKind::ALL.to_vec()),
    ) {
        let keys: Vec<u64> = (0..300u64).map(|i| i * 11).collect();
        let idx = kind.build(&keys, &IndexConfig { epsilon: 8 });
        let mut bytes = idx.encode();
        let pos = ((bytes.len() as f64 * pos_frac) as usize).min(bytes.len() - 1);
        bytes[pos] ^= xor;
        if let Ok(decoded) = IndexKind::decode(&bytes) {
            for probe in [0u64, 150 * 11, u64::MAX] {
                let b = decoded.predict(probe);
                prop_assert!(b.lo <= b.hi, "{kind}: inverted bound {b:?}");
                // Bounds may be wrong under corruption but must stay within
                // the advertised key count (reads past the data section are
                // the caller's corruption risk, not ours).
                prop_assert!(
                    b.hi <= decoded.key_count().max(keys.len()) + 1,
                    "{kind}: bound {b:?} beyond key count {}",
                    decoded.key_count()
                );
            }
        }
    }

    /// Appending trailing garbage to a valid payload must be rejected.
    #[test]
    fn trailing_garbage_rejected(
        extra in prop::collection::vec(any::<u8>(), 1..64),
        kind in prop::sample::select(IndexKind::ALL.to_vec()),
    ) {
        let keys: Vec<u64> = (0..200u64).map(|i| i * 3).collect();
        let idx = kind.build(&keys, &IndexConfig::default());
        let mut bytes = idx.encode();
        bytes.extend_from_slice(&extra);
        prop_assert!(IndexKind::decode(&bytes).is_err(), "{kind}");
    }
}

/// A stored radix width above what any build writes is refused, not used
/// to size a table: one changed byte once made a 300-key payload decode
/// to a 2^24-slot table (64 MiB pinned in the cache budget).
#[test]
fn radix_width_beyond_any_build_is_refused() {
    let keys: Vec<u64> = (0..300u64).map(|i| i * 11).collect();
    let idx = IndexKind::RadixSpline.build(&keys, &IndexConfig { epsilon: 8 });
    let mut bytes = idx.encode();
    // tag u8, n u32, eps u32, then the radix width u32 at offset 9.
    assert_eq!(bytes[9..13], 1u32.to_le_bytes());
    for bits in [0u32, 17, 24, u32::MAX] {
        bytes[9..13].copy_from_slice(&bits.to_le_bytes());
        assert!(IndexKind::decode(&bytes).is_err(), "rs.bits = {bits}");
    }
    bytes[9..13].copy_from_slice(&16u32.to_le_bytes());
    let widest = IndexKind::decode(&bytes).expect("16 bits is a width a build writes");
    assert!(
        widest.size_bytes() < 1 << 20,
        "{} bytes",
        widest.size_bytes()
    );
}
