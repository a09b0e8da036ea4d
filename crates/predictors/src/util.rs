//! Shared predictor plumbing: hashing and saturating counters.

use serde::{Deserialize, Serialize};

/// SplitMix64 finalizer: a cheap, well-distributed 64→64 bit mixer used
/// before folding values into small table indices.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// XOR-folds `x` down to `bits` bits — the hardware-friendly hash the
/// paper specifies for the way predictor ("12-bit XOR hash of the page
/// address", §III-A.6).
///
/// # Panics
///
/// Panics if `bits` is 0 or greater than 64.
///
/// # Example
///
/// ```
/// # use unison_predictors::fold_hash;
/// assert!(fold_hash(0xdead_beef, 12) < (1 << 12));
/// assert_eq!(fold_hash(0, 12), 0);
/// ```
#[inline]
pub fn fold_hash(x: u64, bits: u32) -> u64 {
    assert!(bits > 0 && bits <= 64, "fold width must be in 1..=64");
    if bits == 64 {
        return x;
    }
    let mask = (1u64 << bits) - 1;
    let mut v = x;
    let mut acc = 0u64;
    while v != 0 {
        acc ^= v & mask;
        v >>= bits;
    }
    acc
}

/// A saturating counter with a configurable bit width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SatCounter {
    value: u8,
    max: u8,
}

impl SatCounter {
    /// Creates a counter of `bits` width starting at `initial`.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 8, or if `initial` exceeds
    /// the maximum value.
    pub fn new(bits: u32, initial: u8) -> Self {
        assert!(bits > 0 && bits <= 8, "counter width must be 1..=8 bits");
        let max = ((1u16 << bits) - 1) as u8;
        assert!(initial <= max, "initial value {initial} exceeds max {max}");
        SatCounter {
            value: initial,
            max,
        }
    }

    /// Current value.
    pub fn get(&self) -> u8 {
        self.value
    }

    /// Maximum representable value.
    pub fn max(&self) -> u8 {
        self.max
    }

    /// Increments, saturating at the maximum.
    pub fn inc(&mut self) {
        if self.value < self.max {
            self.value += 1;
        }
    }

    /// Decrements, saturating at zero.
    pub fn dec(&mut self) {
        self.value = self.value.saturating_sub(1);
    }

    /// True when the counter's top bit is set (the usual "taken"
    /// threshold).
    pub fn is_high(&self) -> bool {
        self.value > self.max / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_hash_respects_width() {
        for bits in 1..=16 {
            for x in [0u64, 1, 0xffff_ffff_ffff_ffff, 0x1234_5678_9abc_def0] {
                assert!(fold_hash(x, bits) < (1u64 << bits));
            }
        }
    }

    #[test]
    fn fold_hash_full_width_is_identity() {
        assert_eq!(fold_hash(0xabcd, 64), 0xabcd);
    }

    #[test]
    fn mix64_spreads_consecutive_inputs() {
        let a = mix64(1);
        let b = mix64(2);
        assert_ne!(a ^ b, 0);
        assert!(
            (a ^ b).count_ones() > 8,
            "consecutive mixes should differ widely"
        );
    }

    #[test]
    fn sat_counter_saturates_both_ends() {
        let mut c = SatCounter::new(3, 0);
        for _ in 0..20 {
            c.inc();
        }
        assert_eq!(c.get(), 7);
        for _ in 0..20 {
            c.dec();
        }
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn sat_counter_threshold() {
        let mut c = SatCounter::new(2, 0);
        assert!(!c.is_high());
        c.inc();
        assert!(!c.is_high()); // 1 of max 3
        c.inc();
        assert!(c.is_high()); // 2 of max 3
    }

    #[test]
    #[should_panic(expected = "width")]
    fn zero_width_counter_panics() {
        let _ = SatCounter::new(0, 0);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_initial_panics() {
        let _ = SatCounter::new(2, 4);
    }
}
