//! Exact division by a divisor fixed when a cache is built.
//!
//! Every cache locates a block by dividing by sizes that never change
//! after construction: Unison's page size (15 or 31 blocks), the set
//! count of each page cache, the sets per DRAM row, and Alloy's TAD count
//! and 112 TADs per row. A 64-bit hardware divide costs tens of cycles on
//! every access; [`Divisor`] pays one 128-bit division up front and then
//! divides with a multiply-high and a shift (Granlund & Montgomery,
//! "Division by invariant integers using multiplication", PLDI 1994, in
//! the round-down form libdivide uses). The quotient and remainder equal
//! `/` and `%` for every `u64` numerator; `crates/core/tests/properties.rs`
//! races them.

/// A precomputed reciprocal of a fixed `u64` divisor.
///
/// # Example
///
/// ```
/// use unison_core::Divisor;
///
/// let fifteen = Divisor::new(15);
/// assert_eq!(fifteen.divmod(47), (3, 2));
/// assert_eq!(fifteen.quotient(u64::MAX), u64::MAX / 15);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Divisor {
    d: u64,
    /// The reciprocal: `ceil(2^(64 + shift) / d)`, or with `add` the
    /// low 64 bits of `ceil(2^(65 + shift) / d)`; 0 for a power of two
    /// (the quotient is then a plain shift).
    magic: u64,
    /// `floor(log2 d)`.
    shift: u32,
    /// The reciprocal needs 65 bits: its top bit is folded back in by
    /// the add-and-halve step of [`Self::quotient`].
    add: bool,
}

impl Divisor {
    /// Precomputes the reciprocal of `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d` is 0.
    pub fn new(d: u64) -> Self {
        assert!(d > 0, "divisor must be nonzero");
        let shift = 63 - d.leading_zeros();
        if d.is_power_of_two() {
            return Divisor {
                d,
                magic: 0,
                shift,
                add: false,
            };
        }
        // floor(2^(64 + shift) / d): fits in 64 bits because d > 2^shift.
        let wide = (1u128 << (64 + shift)) / u128::from(d);
        let rem = ((1u128 << (64 + shift)) % u128::from(d)) as u64;
        let (m, add) = if d - rem < 1u64 << shift {
            // Rounding 2^(64 + shift) up to a multiple of d adds less
            // than 2^shift, so the 64-bit ceiling is exact for every
            // 64-bit numerator.
            (wide as u64, false)
        } else {
            // One more bit of precision: 2·floor + carry of 2·rem ≥ d,
            // whose 2^64 term the add-and-halve step supplies.
            let twice_rem = u128::from(rem) * 2;
            let m = (wide as u64)
                .wrapping_mul(2)
                .wrapping_add(u64::from(twice_rem >= u128::from(d)));
            (m, true)
        };
        Divisor {
            d,
            magic: m.wrapping_add(1),
            shift,
            add,
        }
    }

    /// The divisor.
    #[inline]
    pub fn get(self) -> u64 {
        self.d
    }

    /// `n / d`.
    #[inline]
    pub fn quotient(self, n: u64) -> u64 {
        if self.magic == 0 {
            return n >> self.shift;
        }
        let q = ((u128::from(self.magic) * u128::from(n)) >> 64) as u64;
        if self.add {
            (((n - q) >> 1) + q) >> self.shift
        } else {
            q >> self.shift
        }
    }

    /// `(n / d, n % d)`.
    #[inline]
    pub fn divmod(self, n: u64) -> (u64, u64) {
        let q = self.quotient(n);
        (q, n - q * self.d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(d: u64, n: u64) {
        let div = Divisor::new(d);
        assert_eq!(div.divmod(n), (n / d, n % d), "{n} / {d}");
    }

    #[test]
    fn matches_hardware_division_at_the_edges() {
        let ds = [
            1,
            2,
            3,
            7,
            15,
            31,
            112,
            1000,
            (1 << 32) - 1,
            1 << 63,
            (1 << 63) + 1,
            u64::MAX - 1,
            u64::MAX,
        ];
        for d in ds {
            for n in [0, 1, d - 1, d, d.wrapping_add(1), u64::MAX - 1, u64::MAX] {
                check(d, n);
            }
        }
    }

    #[test]
    fn small_numerators_exhaustively() {
        for d in 1..=130u64 {
            for n in 0..5_000u64 {
                check(d, n);
            }
        }
    }

    #[test]
    fn paper_divisors_take_the_expected_form() {
        // 960 B pages fit a 64-bit reciprocal; 1984 B pages and Alloy's
        // 112 TADs per row need the 65-bit one, so both branches run in
        // the paper's configurations.
        assert!(!Divisor::new(15).add);
        assert!(Divisor::new(31).add);
        assert!(Divisor::new(112).add);
        assert!(Divisor::new(7).add);
        assert_eq!(Divisor::new(2).magic, 0);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_divisor_panics() {
        let _ = Divisor::new(0);
    }
}
