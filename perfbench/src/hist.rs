//! Log-linear histogram of span durations in nanoseconds.
//!
//! A traced cell times every `access` call (millions per cell), so the
//! ledger cannot keep each span. Values below `2^(SUB_BITS+1)` get a
//! bucket each; above that every power of two is split into
//! `2^SUB_BITS` equal buckets, so a reported percentile is within
//! `2^-(SUB_BITS+1)` (1.6%) of the true value. The sum is kept exactly,
//! so the mean has no bucketing error.

/// Sub-buckets per power of two, log2.
const SUB_BITS: u32 = 5;
/// Values below this are their own bucket.
const EXACT: u64 = 1 << (SUB_BITS + 1);
/// Buckets needed to cover every `u64`.
const BUCKETS: usize = (65 - SUB_BITS as usize) << SUB_BITS;

/// Counts of values per log-linear bucket, plus their exact sum.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

fn index(v: u64) -> usize {
    if v < EXACT {
        return v as usize;
    }
    let shift = 63 - v.leading_zeros() - SUB_BITS;
    (((u64::from(shift)) << SUB_BITS) + (v >> shift)) as usize
}

/// Inclusive value range `[lo, hi]` of bucket `i`.
fn bounds(i: usize) -> (u64, u64) {
    let i = i as u64;
    if i < EXACT {
        return (i, i);
    }
    let shift = (i >> SUB_BITS) - 1;
    let lo = (i - (shift << SUB_BITS)) << shift;
    (lo, lo + ((1u64 << shift) - 1))
}

impl Histogram {
    /// Records one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[index(v)] += 1;
        self.count += 1;
        self.sum += u128::from(v);
    }

    /// Adds every value recorded in `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Values recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of the values recorded.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Exact mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`0 < q <= 1`): the midpoint of the bucket that
    /// holds the value of rank `ceil(q * count)`. 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (lo, hi) = bounds(i);
                return lo as f64 + (hi - lo) as f64 / 2.0;
            }
        }
        unreachable!("rank {rank} is at most the {} values counted", self.count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_value_lands_in_a_bucket_that_contains_it() {
        let mut probes: Vec<u64> = (0..5_000).collect();
        for shift in 0..64 {
            let p = 1u64 << shift;
            probes.extend([p - 1, p, p + 1, p | (p >> 1)]);
        }
        probes.push(u64::MAX);
        for v in probes {
            let i = index(v);
            assert!(i < BUCKETS, "{v} -> bucket {i}");
            let (lo, hi) = bounds(i);
            assert!(lo <= v && v <= hi, "{v} outside bucket {i} = [{lo}, {hi}]");
        }
    }

    #[test]
    fn buckets_tile_the_value_range_without_gaps() {
        for i in 1..BUCKETS {
            assert_eq!(bounds(i).0, bounds(i - 1).1 + 1, "gap before bucket {i}");
        }
        assert_eq!(bounds(BUCKETS - 1).1, u64::MAX);
    }

    #[test]
    fn small_values_have_exact_percentiles() {
        let mut h = Histogram::default();
        for v in 1..=50u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), 25.0);
        assert_eq!(h.quantile(1.0), 50.0);
        assert_eq!(h.quantile(0.01), 1.0);
        assert_eq!(h.mean(), 25.5);
    }

    #[test]
    fn large_percentiles_are_within_the_bucket_resolution() {
        let mut h = Histogram::default();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for (q, want) in [(0.5, 50_000.0), (0.99, 99_000.0), (0.999, 99_900.0)] {
            let got = h.quantile(q);
            let err = (got - want).abs() / want;
            assert!(err < 1.0 / 64.0, "q{q}: got {got}, want {want}");
        }
        assert_eq!(h.sum(), 100_000 * 100_001 / 2);
    }

    #[test]
    fn merge_adds_counts_and_sums() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        a.record(10);
        b.record(1_000);
        b.record(1_000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 2_010);
        assert_eq!(a.quantile(0.34), a.quantile(1.0));
        assert_eq!(a.quantile(0.33), 10.0);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = Histogram::default();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0.0);
    }
}
