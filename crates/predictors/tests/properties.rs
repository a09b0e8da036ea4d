//! Property-based tests for the predictor structures.

use proptest::prelude::*;
use unison_predictors::{
    fold_hash, mix64, Footprint, FootprintTable, MissPrediction, MissPredictor, WayPredictor,
};

proptest! {
    /// Footprint set algebra obeys the identities the under/over-
    /// prediction accounting relies on:
    /// `actual = (actual ∩ predicted) ∪ (actual − predicted)` and the
    /// two parts are disjoint.
    #[test]
    fn footprint_partition_identity(a in any::<u64>(), p in any::<u64>(), blocks in 1u32..=64) {
        let actual = Footprint::from_mask(a, blocks);
        let predicted = Footprint::from_mask(p, blocks);
        let covered = actual.intersect(&predicted);
        let under = actual.minus(&predicted);
        prop_assert_eq!(covered.union(&under).mask(), actual.mask());
        prop_assert_eq!(covered.intersect(&under).mask(), 0);
        // Overfetch is disjoint from actual.
        let over = predicted.minus(&actual);
        prop_assert_eq!(over.intersect(&actual).mask(), 0);
        // Sizes add up.
        prop_assert_eq!(covered.len() + under.len(), actual.len());
        prop_assert_eq!(covered.len() + over.len(), predicted.len());
    }

    /// `Footprint::iter` walks the set bits and yields exactly what the
    /// filter over every block of the page yields, in the same order, on
    /// dense and sparse masks and every page size.
    #[test]
    fn footprint_iter_matches_the_block_filter(
        a in any::<u64>(),
        b in any::<u64>(),
        sparse in any::<bool>(),
        blocks in 1u32..=64,
    ) {
        let raw = if sparse { a & b & (b >> 7) } else { a };
        let f = Footprint::from_mask(raw, blocks);
        let filtered: Vec<u32> = (0..blocks)
            .filter(|&blk| f.mask() & (1u64 << blk) != 0)
            .collect();
        prop_assert_eq!(f.iter().collect::<Vec<_>>(), filtered.clone());
        prop_assert_eq!(f.iter().count(), f.len() as usize);
        let full = Footprint::full(blocks);
        prop_assert_eq!(full.iter().collect::<Vec<_>>(), (0..blocks).collect::<Vec<_>>());
        prop_assert_eq!(Footprint::empty(blocks).iter().next(), None);
    }

    /// The footprint table matches a reference model of its per-block
    /// 2-bit counters: present blocks increment (new entries start at 2),
    /// absent blocks decrement, prediction is counter >= 2.
    #[test]
    fn footprint_table_matches_counter_reference(
        keys in proptest::collection::vec((0u64..8, 0u32..4, any::<u64>()), 1..80)
    ) {
        let mut t = FootprintTable::new(1024, 4, 15);
        let mut model: std::collections::HashMap<(u64, u32), [u8; 15]> =
            std::collections::HashMap::new();
        let mut seen: std::collections::HashSet<(u64, u32)> = std::collections::HashSet::new();
        for (pc, off, mask) in keys {
            let fp = Footprint::from_mask(mask, 15);
            t.train(pc, off, fp);
            let first_training = seen.insert((pc, off));
            let counters = model.entry((pc, off)).or_insert([0; 15]);
            for (b, counter) in counters.iter_mut().enumerate() {
                let present = fp.contains(b as u32);
                *counter = match (first_training, present) {
                    (true, true) => 2,
                    (true, false) => 0,
                    (false, true) => (*counter + 1).min(3),
                    (false, false) => counter.saturating_sub(1),
                };
            }
        }
        // 8 pcs x 4 offsets = 32 keys over 4096 slots: no evictions, so
        // every key must match the reference exactly.
        for ((pc, off), counters) in model {
            let expect: u64 = (0..15)
                .filter(|&b| counters[b] >= 2)
                .map(|b| 1u64 << b)
                .sum();
            let got = t.predict(pc, off).expect("entry must exist");
            prop_assert_eq!(got.mask(), expect, "key ({}, {})", pc, off);
        }
    }

    /// fold_hash is stable and in-range for any width.
    #[test]
    fn fold_hash_in_range(x in any::<u64>(), bits in 1u32..=63) {
        let h = fold_hash(x, bits);
        prop_assert!(h < (1u64 << bits));
        prop_assert_eq!(h, fold_hash(x, bits));
    }

    /// The way predictor converges: after updating with a fixed way, the
    /// next prediction for the same page returns that way.
    #[test]
    fn way_predictor_converges(pages in proptest::collection::vec(0u64..1000, 1..100)) {
        let mut wp = WayPredictor::new(12, 4);
        for (i, &p) in pages.iter().enumerate() {
            let w = (i as u32) % 4;
            wp.update(wp.slot(p), w);
            prop_assert_eq!(wp.predict(wp.slot(p)), w);
        }
    }

    /// The miss predictor's counters never leave their 3-bit range and
    /// predictions stay consistent with counter polarity.
    #[test]
    fn miss_predictor_is_bounded(outcomes in proptest::collection::vec(any::<bool>(), 1..200)) {
        let mut mp = MissPredictor::new(1, 4);
        let s = mp.slot(0, 0xabc);
        for &hit in &outcomes {
            mp.update(s, hit);
            let _ = mp.predict(s);
        }
        // All-hits must end in Hit prediction; all-misses in Miss.
        let mut all_hit = MissPredictor::new(1, 4);
        let s = all_hit.slot(0, 0xabc);
        for _ in 0..outcomes.len() {
            all_hit.update(s, true);
        }
        prop_assert_eq!(all_hit.predict(s), MissPrediction::Hit);
    }

    /// The hash-once way predictor makes the same predictions, keeps the
    /// same accuracy counts and leaves the same table as a reference that
    /// hashes the page on every call and takes `% ways` on every read, the
    /// way the predictor worked before slots. Each step is one Unison
    /// access: predict, then either resolve a probe or train the way a
    /// new page was installed in.
    #[test]
    fn way_predictor_matches_two_hash_reference(
        bits in 1u32..=14,
        ways in 1u32..=4,
        steps in proptest::collection::vec((any::<u64>(), 0u64..64, 0u32..8, any::<bool>()), 1..300),
    ) {
        let mut wp = WayPredictor::new(bits, ways);
        let mut naive = NaiveWay::new(bits, ways);
        for (raw, small, way, probe) in steps {
            // Mix arbitrary pages with a few hot ones so entries repeat.
            let page = if raw % 2 == 0 { raw } else { small };
            let slot = wp.slot(page);
            let predicted = wp.predict(slot);
            prop_assert_eq!(predicted, naive.predict(page));
            if probe {
                // A probe may find any way of a wider cache.
                prop_assert_eq!(
                    wp.observe_probe(slot, predicted, way),
                    naive.observe_probe(page, predicted, way)
                );
            } else {
                let way = way % ways;
                wp.update(slot, way);
                naive.update(page, way);
            }
            prop_assert_eq!(wp.accuracy_stats(), naive.accuracy_stats());
        }
        for page in 0..256u64 {
            prop_assert_eq!(wp.predict(wp.slot(page)), naive.predict(page));
        }
    }

    /// The flat, hash-once miss predictor matches a reference with one
    /// table per core that mixes and folds the PC in both `predict` and
    /// `update`: same predictions and the same outcome counts, on random
    /// (core, PC, outcome) streams.
    #[test]
    fn miss_predictor_matches_two_hash_reference(
        cores in 1u32..=16,
        bits in 1u32..=10,
        steps in proptest::collection::vec((any::<u32>(), any::<u64>(), 0u64..16, any::<bool>()), 1..300),
    ) {
        let mut mp = MissPredictor::new(cores, bits);
        let mut naive = NaiveMiss::new(cores, bits);
        for (core, raw, small, was_hit) in steps {
            let core = core % cores;
            let pc = if raw % 2 == 0 { raw } else { 0x400 + small };
            let slot = mp.slot(core, pc);
            prop_assert_eq!(mp.predict(slot), naive.predict(core, pc));
            mp.update(slot, was_hit);
            naive.update(core, pc, was_hit);
            prop_assert_eq!(mp.outcome_stats(), naive.outcome_stats());
        }
        for core in 0..cores {
            for pc in 0x400..0x410u64 {
                prop_assert_eq!(mp.predict(mp.slot(core, pc)), naive.predict(core, pc));
            }
        }
    }
}

/// The way predictor as it was before slots: every call hashes the page
/// and reads the entry modulo the way count.
struct NaiveWay {
    entries: Vec<u8>,
    bits: u32,
    ways: u32,
    lookups: u64,
    correct: u64,
}

impl NaiveWay {
    fn new(bits: u32, ways: u32) -> Self {
        NaiveWay {
            entries: vec![0; 1 << bits],
            bits,
            ways,
            lookups: 0,
            correct: 0,
        }
    }

    fn index(&self, page: u64) -> usize {
        fold_hash(page, self.bits) as usize
    }

    fn predict(&mut self, page: u64) -> u32 {
        self.lookups += 1;
        u32::from(self.entries[self.index(page)]) % self.ways
    }

    fn update(&mut self, page: u64, way: u32) {
        assert!(way < self.ways);
        let idx = self.index(page);
        if u32::from(self.entries[idx]) % self.ways == way {
            self.correct += 1;
        }
        self.entries[idx] = way as u8;
    }

    fn observe_probe(&mut self, page: u64, predicted: u32, actual: u32) -> bool {
        self.update(page, actual.min(self.ways - 1));
        actual == predicted
    }

    fn accuracy_stats(&self) -> (u64, u64) {
        (self.lookups, self.correct)
    }
}

/// The miss predictor as it was before slots: one `Vec` of 3-bit
/// counters per core, and `mix64` + `fold_hash` in every call.
struct NaiveMiss {
    tables: Vec<Vec<u8>>,
    bits: u32,
    outcomes: (u64, u64, u64),
}

impl NaiveMiss {
    fn new(cores: u32, bits: u32) -> Self {
        NaiveMiss {
            tables: vec![vec![0; 1 << bits]; cores as usize],
            bits,
            outcomes: (0, 0, 0),
        }
    }

    fn index(&self, pc: u64) -> usize {
        fold_hash(mix64(pc), self.bits) as usize
    }

    fn predict(&self, core: u32, pc: u64) -> MissPrediction {
        if self.tables[core as usize][self.index(pc)] > 3 {
            MissPrediction::Miss
        } else {
            MissPrediction::Hit
        }
    }

    fn update(&mut self, core: u32, pc: u64, was_hit: bool) {
        let idx = self.index(pc);
        let c = &mut self.tables[core as usize][idx];
        match (*c > 3, was_hit) {
            (true, true) => self.outcomes.1 += 1,
            (false, false) => self.outcomes.2 += 1,
            _ => self.outcomes.0 += 1,
        }
        *c = if was_hit {
            c.saturating_sub(1)
        } else {
            (*c + 1).min(7)
        };
    }

    fn outcome_stats(&self) -> (u64, u64, u64) {
        self.outcomes
    }
}
