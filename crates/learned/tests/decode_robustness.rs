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
