//! Residue arithmetic for non-power-of-two address mapping (§III-A.7).
//!
//! Embedding tags in DRAM makes Unison Cache pages 15 or 31 blocks — not
//! powers of two — so finding a block's page and offset needs division and
//! modulo by 15/31. A general divider would be slow and large, but both
//! constants have the form `2^n − 1`, for which the classic residue
//! identity applies: since `2^n ≡ 1 (mod 2^n − 1)`, a binary number split
//! into `n`-bit digits is congruent to the *sum of its digits*. A few
//! adders therefore compute the modulo (the paper estimates two cycles and
//! a few hundred gates, as in Alloy Cache). This module implements exactly
//! that digit-summing network, [`mod_2n_minus_1`], as the model of the
//! hardware unit, and property-tests it against `%`. The simulator needs
//! only the unit's exact result, so a cache splits each access with a
//! [`Divisor`] it precomputes once, as [`split_page_offset`] does per
//! call.

use crate::divisor::Divisor;

/// Modulo by `2^n − 1` via the digit-summing network a hardware
/// implementation would use.
///
/// # Panics
///
/// Panics if `n` is 0 or greater than 32.
///
/// # Example
///
/// ```
/// use unison_core::residue::mod_2n_minus_1;
///
/// // 100 mod 15, computed with adders only.
/// assert_eq!(mod_2n_minus_1(100, 4), 100 % 15);
/// assert_eq!(mod_2n_minus_1(100, 5), 100 % 31);
/// ```
pub fn mod_2n_minus_1(x: u64, n: u32) -> u64 {
    assert!((1..=32).contains(&n), "digit width must be 1..=32");
    let m = (1u64 << n) - 1;
    if m == 1 {
        return 0;
    }
    // Sum the n-bit digits; repeat until one digit remains. Each round is
    // one adder level in hardware.
    let mut v = x;
    while v > m {
        let mut sum = 0u64;
        let mut rest = v;
        while rest != 0 {
            sum += rest & m;
            rest >>= n;
        }
        v = sum;
    }
    // The digit sum can land exactly on m, which is ≡ 0.
    if v == m {
        0
    } else {
        v
    }
}

/// Divides a block number into (page number, block offset) for pages of
/// `2^n − 1` blocks, with a multiply-shift reciprocal for the quotient
/// and one multiply-subtract for the offset.
///
/// The result is the one the §III-A.7 residue unit computes:
/// [`mod_2n_minus_1`] gives the same offset (property-tested in
/// `crates/core/tests/properties.rs`). A cache splits every access, so it
/// keeps the [`Divisor`] it builds once instead of calling this.
///
/// # Panics
///
/// Panics if `n` is 0 or greater than 32.
///
/// # Example
///
/// ```
/// use unison_core::residue::split_page_offset;
///
/// let (page, offset) = split_page_offset(47, 4); // 47 = 3*15 + 2
/// assert_eq!((page, offset), (3, 2));
/// ```
pub fn split_page_offset(block_number: u64, n: u32) -> (u64, u32) {
    assert!((1..=32).contains(&n), "digit width must be 1..=32");
    let (page, offset) = Divisor::new((1u64 << n) - 1).divmod(block_number);
    (page, offset as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_modulo_for_small_values() {
        for n in [2u32, 4, 5, 8] {
            let m = (1u64 << n) - 1;
            for x in 0..10_000u64 {
                assert_eq!(mod_2n_minus_1(x, n), x % m, "x={x} n={n}");
            }
        }
    }

    #[test]
    fn matches_modulo_for_large_values() {
        for n in [4u32, 5] {
            let m = (1u64 << n) - 1;
            for x in [u64::MAX, u64::MAX - 1, 1 << 63, 0x1234_5678_9abc_def0] {
                assert_eq!(mod_2n_minus_1(x, n), x % m, "x={x} n={n}");
            }
        }
    }

    #[test]
    fn split_reconstructs_block_number() {
        for bn in (0..200_000u64).step_by(7) {
            let (p, o) = split_page_offset(bn, 4);
            assert_eq!(p * 15 + u64::from(o), bn);
            assert!(o < 15);
        }
    }

    #[test]
    fn n_one_degenerates_to_zero() {
        assert_eq!(mod_2n_minus_1(12345, 1), 0);
    }

    #[test]
    #[should_panic(expected = "digit width")]
    fn zero_width_panics() {
        let _ = mod_2n_minus_1(1, 0);
    }
}
