//! Unison Cache's way predictor (§III-A.6).

use crate::util::fold_hash;

/// A page's way-predictor entry: the XOR-folded page hash, computed once
/// per access by [`WayPredictor::slot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaySlot(usize);

/// A 2-bit-entry way predictor indexed by an XOR hash of the page
/// address.
///
/// The paper uses a 12-bit hash (4096 entries, 1 KB of storage at 2 bits
/// per entry) for caches up to 4 GB and a 16-bit hash (64K entries,
/// 16 KB) above that. Address-based way prediction reaches ~95% accuracy
/// here — far better than the ~85% it achieves for L1 caches — because it
/// operates on *pages*: abundant spatial locality means most accesses go
/// to a recently touched page whose way is still correct.
///
/// # Example
///
/// A cache hashes each page once per access with [`WayPredictor::slot`]
/// and passes the [`WaySlot`] to every call that access makes.
///
/// ```
/// use unison_predictors::WayPredictor;
///
/// let mut wp = WayPredictor::new(12, 4);
/// let slot = wp.slot(42);
/// assert_eq!(wp.predict(slot), 0); // cold entries predict way 0
/// wp.update(slot, 3);
/// assert_eq!(wp.predict(slot), 3);
/// ```
#[derive(Debug, Clone)]
pub struct WayPredictor {
    entries: Vec<u8>,
    index_bits: u32,
    ways: u32,
    lookups: u64,
    correct: u64,
}

impl WayPredictor {
    /// Creates a predictor with `2^index_bits` entries for a cache of
    /// `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `ways` doesn't fit in a 2-bit entry (max 4) or
    /// `index_bits` is outside `1..=24`.
    pub fn new(index_bits: u32, ways: u32) -> Self {
        assert!((1..=24).contains(&index_bits), "index bits must be 1..=24");
        assert!(
            (1..=4).contains(&ways),
            "2-bit entries support up to 4 ways"
        );
        WayPredictor {
            entries: vec![0; 1 << index_bits],
            index_bits,
            ways,
            lookups: 0,
            correct: 0,
        }
    }

    /// The paper's sizing rule: 12 index bits up to 4 GB, 16 above.
    pub fn for_cache_size(cache_bytes: u64, ways: u32) -> Self {
        const FOUR_GB: u64 = 4 << 30;
        let bits = if cache_bytes > FOUR_GB { 16 } else { 12 };
        WayPredictor::new(bits, ways)
    }

    /// Storage budget in bytes (2 bits per entry).
    pub fn storage_bytes(&self) -> usize {
        self.entries.len() / 4
    }

    /// The entry `page_addr` hashes to (the paper's XOR fold).
    #[inline]
    pub fn slot(&self, page_addr: u64) -> WaySlot {
        WaySlot(fold_hash(page_addr, self.index_bits) as usize)
    }

    /// Predicts the way of the page whose entry is `slot`. Entries only
    /// ever hold ways below `ways` (see [`Self::update`]).
    #[inline]
    pub fn predict(&mut self, slot: WaySlot) -> u32 {
        self.lookups += 1;
        u32::from(self.entries[slot.0])
    }

    /// Records the actual way after the tag check resolves; also feeds
    /// the accuracy statistics.
    ///
    /// # Panics
    ///
    /// Panics if `actual_way >= ways`.
    #[inline]
    pub fn update(&mut self, slot: WaySlot, actual_way: u32) {
        assert!(actual_way < self.ways, "way out of range");
        let entry = &mut self.entries[slot.0];
        self.correct += u64::from(u32::from(*entry) == actual_way);
        *entry = actual_way as u8;
    }

    /// Resolves a probe: records the way the tag check actually found
    /// (clamped into the predictor's range, as cache associativities
    /// wider than the 2-bit entries degrade to the low ways) and returns
    /// whether `predicted` was correct. This is the way-predictor side of
    /// the SoA probe loop: `MetaStore::probe_set` produces `actual`, and
    /// the cache feeds its accuracy stats from the returned flag.
    #[inline]
    pub fn observe_probe(&mut self, slot: WaySlot, predicted: u32, actual: u32) -> bool {
        self.update(slot, actual.min(self.ways - 1));
        actual == predicted
    }

    /// `(lookups, correct)` counts. `correct` increments on `update`
    /// calls whose previous prediction matched, so call `update` once per
    /// predicted access for meaningful accuracy.
    pub fn accuracy_stats(&self) -> (u64, u64) {
        (self.lookups, self.correct)
    }

    /// Resets the accuracy statistics (e.g. at the warmup boundary) while
    /// keeping the learned state.
    pub fn reset_stats(&mut self) {
        self.lookups = 0;
        self.correct = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_page_to_way_mapping() {
        let mut wp = WayPredictor::new(12, 4);
        let s = wp.slot(100);
        wp.update(s, 2);
        assert_eq!(wp.predict(s), 2);
        wp.update(s, 1);
        assert_eq!(wp.predict(s), 1);
    }

    #[test]
    fn repeated_page_stream_is_always_correct_after_first() {
        let mut wp = WayPredictor::new(12, 4);
        let s = wp.slot(7);
        wp.update(s, 3);
        wp.reset_stats();
        for _ in 0..100 {
            let p = wp.predict(s);
            wp.update(s, 3);
            assert_eq!(p, 3);
        }
        let (l, c) = wp.accuracy_stats();
        assert_eq!(l, 100);
        assert_eq!(c, 100);
    }

    #[test]
    fn aliasing_pages_fight_over_an_entry() {
        // tiny table: heavy aliasing
        let mut wp = WayPredictor::new(4, 4);
        // Two pages that fold to the same index: 0x0001 and 0x0010 fold
        // to different entries, so find an aliasing pair by construction:
        // with 4 index bits, page and page + 16 XOR-fold differently, but
        // page ^ (x << 4) patterns collide when the fold XOR cancels.
        let a = 0b0000_0001u64;
        let b = 0b0001_0001u64 ^ 0b0001_0000; // == a; construct differently
        assert_eq!(b, a);
        // Simpler: exhaustively find a distinct aliasing pair.
        let target = fold_hash(a, 4);
        let alias = (1..1000u64)
            .find(|&p| p != a && fold_hash(p, 4) == target)
            .expect("alias exists");
        assert_eq!(wp.slot(a), wp.slot(alias));
        wp.update(wp.slot(a), 1);
        wp.update(wp.slot(alias), 2);
        assert_eq!(wp.predict(wp.slot(a)), 2, "alias clobbered the entry");
    }

    #[test]
    fn paper_sizing_rule() {
        let small = WayPredictor::for_cache_size(1 << 30, 4);
        assert_eq!(small.storage_bytes(), 1024);
        let large = WayPredictor::for_cache_size(8 << 30, 4);
        assert_eq!(large.storage_bytes(), 16 * 1024);
    }

    #[test]
    fn direct_mapped_cache_always_predicts_zero() {
        let mut wp = WayPredictor::new(12, 1);
        wp.update(wp.slot(5), 0);
        assert_eq!(wp.predict(wp.slot(5)), 0);
        assert_eq!(wp.predict(wp.slot(6)), 0);
    }

    #[test]
    #[should_panic(expected = "way out of range")]
    fn update_with_bad_way_panics() {
        let mut wp = WayPredictor::new(12, 4);
        wp.update(wp.slot(0), 4);
    }
}
