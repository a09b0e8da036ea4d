//! Alloy Cache's MAP-I-style hit/miss predictor.

use crate::util::{fold_hash, mix64, SatCounter};

/// The outcome of a miss-predictor query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MissPrediction {
    /// Access the DRAM cache first; go to memory only on an actual miss.
    Hit,
    /// Send the request to off-chip memory immediately (in parallel with
    /// the cache probe).
    Miss,
}

/// A `(core, PC)` pair's counter: the core's table offset plus the mixed
/// and folded PC hash, computed once per access by
/// [`MissPredictor::slot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MissSlot(usize);

/// Instruction-based Memory Access Predictor (MAP-I, Qureshi & Loh
/// MICRO'12), as used by Alloy Cache.
///
/// Per-core tables of 3-bit saturating counters indexed by a hash of the
/// instruction address: 256 counters × 3 bits = 96 B per core, 1.5 KB for
/// the paper's 16-core pod (Table II). Counters move toward "miss" on
/// observed misses and toward "hit" on observed hits; the MSB decides.
///
/// # Example
///
/// A cache hashes each `(core, PC)` once per access with
/// [`MissPredictor::slot`] and passes the [`MissSlot`] to both calls.
///
/// ```
/// use unison_predictors::{MissPredictor, MissPrediction};
///
/// let mut mp = MissPredictor::paper_default();
/// let slot = mp.slot(0, 0x400);
/// // Cold counters predict hit (optimistic: probe the cache).
/// assert_eq!(mp.predict(slot), MissPrediction::Hit);
/// for _ in 0..4 { mp.update(slot, /*was_hit=*/false); }
/// assert_eq!(mp.predict(slot), MissPrediction::Miss);
/// ```
#[derive(Debug, Clone)]
pub struct MissPredictor {
    /// All cores' tables back to back: core `c`'s counters are
    /// `counters[c << index_bits..(c + 1) << index_bits]`.
    counters: Vec<SatCounter>,
    cores: u32,
    index_bits: u32,
    lookups: u64,
    correct: u64,
    false_misses: u64,
    false_hits: u64,
}

impl MissPredictor {
    /// Creates per-core tables of `2^index_bits` 3-bit counters.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero or `index_bits` is outside `1..=16`.
    pub fn new(cores: u32, index_bits: u32) -> Self {
        assert!(cores > 0, "need at least one core");
        assert!((1..=16).contains(&index_bits), "index bits must be 1..=16");
        MissPredictor {
            counters: vec![SatCounter::new(3, 0); (cores as usize) << index_bits],
            cores,
            index_bits,
            lookups: 0,
            correct: 0,
            false_misses: 0,
            false_hits: 0,
        }
    }

    /// The paper's geometry: 16 cores × 256 counters (96 B per core).
    pub fn paper_default() -> Self {
        MissPredictor::new(16, 8)
    }

    /// Storage budget in bytes (3 bits per counter).
    pub fn storage_bytes(&self) -> usize {
        self.counters.len() * 3 / 8
    }

    /// The counter `(core, pc)` maps to.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[inline]
    pub fn slot(&self, core: u32, pc: u64) -> MissSlot {
        assert!(core < self.cores, "core {core} out of range");
        let index = fold_hash(mix64(pc), self.index_bits) as usize;
        MissSlot(((core as usize) << self.index_bits) | index)
    }

    /// Predicts whether the access whose counter is `slot` will miss the
    /// DRAM cache.
    #[inline]
    pub fn predict(&mut self, slot: MissSlot) -> MissPrediction {
        self.lookups += 1;
        if self.counters[slot.0].is_high() {
            MissPrediction::Miss
        } else {
            MissPrediction::Hit
        }
    }

    /// Trains with the actual outcome and updates accuracy statistics
    /// for the *previous* prediction of this `(core, pc)`.
    #[inline]
    pub fn update(&mut self, slot: MissSlot, was_hit: bool) {
        let c = &mut self.counters[slot.0];
        match (c.is_high(), was_hit) {
            (true, true) => self.false_misses += 1,
            (false, false) => self.false_hits += 1,
            _ => self.correct += 1,
        }
        if was_hit {
            c.dec();
        } else {
            c.inc();
        }
    }

    /// `(updates_correct, false_misses, false_hits)` counts.
    ///
    /// A *false miss* (hit predicted as miss) wastes off-chip bandwidth;
    /// a *false hit* (miss predicted as hit) adds the cache lookup to the
    /// miss latency — the two failure modes §II-A describes.
    pub fn outcome_stats(&self) -> (u64, u64, u64) {
        (self.correct, self.false_misses, self.false_hits)
    }

    /// Resets accuracy statistics, keeping the learned counters.
    pub fn reset_stats(&mut self) {
        self.lookups = 0;
        self.correct = 0;
        self.false_misses = 0;
        self.false_hits = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_missing_instruction() {
        let mut mp = MissPredictor::new(1, 8);
        let s = mp.slot(0, 0x1234);
        for _ in 0..8 {
            mp.update(s, false);
        }
        assert_eq!(mp.predict(s), MissPrediction::Miss);
        // Hits pull it back.
        for _ in 0..8 {
            mp.update(s, true);
        }
        assert_eq!(mp.predict(s), MissPrediction::Hit);
    }

    #[test]
    fn cores_learn_independently() {
        let mut mp = MissPredictor::new(2, 8);
        for _ in 0..8 {
            mp.update(mp.slot(0, 0x42), false);
        }
        assert_eq!(mp.predict(mp.slot(0, 0x42)), MissPrediction::Miss);
        assert_eq!(mp.predict(mp.slot(1, 0x42)), MissPrediction::Hit);
    }

    #[test]
    fn paper_default_storage_matches_table_ii() {
        let mp = MissPredictor::paper_default();
        assert_eq!(mp.storage_bytes(), 1536); // 1.5 KB total
    }

    #[test]
    fn outcome_stats_classify_errors() {
        let mut mp = MissPredictor::new(1, 8);
        let s = mp.slot(0, 7);
        // Counter at 0 => predicts hit. An actual miss is a false hit.
        mp.update(s, false);
        let (_, fm, fh) = mp.outcome_stats();
        assert_eq!((fm, fh), (0, 1));
        // Drive to predict-miss, then observe a hit => false miss.
        for _ in 0..8 {
            mp.update(s, false);
        }
        mp.update(s, true);
        let (_, fm, _) = mp.outcome_stats();
        assert_eq!(fm, 1);
    }

    #[test]
    #[should_panic(expected = "core 2 out of range")]
    fn out_of_range_core_panics() {
        let mp = MissPredictor::new(2, 8);
        let _ = mp.slot(2, 0x400);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_panics() {
        let _ = MissPredictor::new(0, 8);
    }
}
