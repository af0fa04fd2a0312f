//! Deterministic seed derivation.
//!
//! All randomness in the workspace flows from a single campaign seed. Each
//! entity (site, third party, visit, …) derives its own seed by mixing the
//! parent seed with a stable label; the derived seed feeds a
//! `rand::rngs::SmallRng`. Re-running anything with the same seed and
//! configuration is bit-identical, which the integration tests rely on.

/// One round of the splitmix64 output function. Good avalanche behaviour
/// and cheap; this is the standard generator used to expand a single `u64`
/// seed into independent streams.
#[inline]
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a hash of a byte string, used to turn stable labels (domain names,
/// purposes) into seed material.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV1A_OFFSET, bytes)
}

/// The FNV-1a hash of the empty string, where [`fnv1a_extend`] starts.
pub const FNV1A_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Continue an FNV-1a hash with more bytes: hashing a string piece by
/// piece equals [`fnv1a`] of the whole, without building it.
#[inline]
pub fn fnv1a_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Derive a child seed from a parent seed and a stable string label.
///
/// `derive(s, "a")` and `derive(s, "b")` are statistically independent, and
/// the mapping is stable across runs and platforms.
///
/// ```
/// use topics_net::seed::derive;
///
/// assert_eq!(derive(42, "dns"), derive(42, "dns"));
/// assert_ne!(derive(42, "dns"), derive(42, "http"));
/// ```
#[inline]
pub fn derive(parent: u64, label: &str) -> u64 {
    splitmix64(parent ^ fnv1a(label.as_bytes()))
}

/// Derive a child seed from a parent seed and an index.
#[inline]
pub fn derive_idx(parent: u64, index: u64) -> u64 {
    splitmix64(parent ^ splitmix64(index ^ 0xA076_1D64_78BD_642F))
}

/// Map a seed to a uniform `f64` in `[0, 1)`.
///
/// Uses the top 53 bits so every representable double in the range is
/// reachable with equal probability.
#[inline]
pub fn unit_f64(seed: u64) -> f64 {
    (splitmix64(seed) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Deterministic Bernoulli draw: returns `true` with probability `p` for
/// this `(seed, label)` pair.
#[inline]
pub fn bernoulli(seed: u64, label: &str, p: f64) -> bool {
    unit_f64(derive(seed, label)) < p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_stable() {
        // Reference values from the canonical splitmix64 implementation.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(1), 0x910A_2DEC_8902_5CC1);
    }

    #[test]
    fn fnv1a_matches_known_vectors() {
        assert_eq!(fnv1a(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xAF63_DC4C_8601_EC8C);
    }

    #[test]
    fn derive_differs_by_label() {
        let s = 42;
        assert_ne!(derive(s, "x"), derive(s, "y"));
        assert_eq!(derive(s, "x"), derive(s, "x"));
    }

    #[test]
    fn derive_idx_differs_by_index() {
        let s = 42;
        assert_ne!(derive_idx(s, 0), derive_idx(s, 1));
    }

    #[test]
    fn unit_f64_in_range() {
        for i in 0..10_000u64 {
            let x = unit_f64(i);
            assert!((0.0..1.0).contains(&x), "out of range: {x}");
        }
    }

    #[test]
    fn bernoulli_rate_is_close() {
        let p = 0.3;
        let hits = (0..20_000u64)
            .filter(|i| bernoulli(derive_idx(7, *i), "b", p))
            .count();
        let rate = hits as f64 / 20_000.0;
        assert!((rate - p).abs() < 0.02, "rate {rate} too far from {p}");
    }

    #[test]
    fn bernoulli_extremes() {
        assert!(!bernoulli(1, "z", 0.0));
        assert!(bernoulli(1, "z", 1.0));
    }
}
