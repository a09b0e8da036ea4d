//! The footprint predictor: history table and singleton table.
//!
//! A page's *footprint* is the set of blocks demanded between its
//! allocation and its eviction (§III-A.1). The predictor learns footprints
//! keyed by the `(PC, offset)` pair of the access that triggered the
//! page's allocation, and predicts them for later trigger misses by the
//! same code at the same alignment.

use serde::{Deserialize, Serialize};

use crate::util::{mix64, SatCounter};

/// A set of blocks within a page, up to 64 blocks wide.
///
/// Pages in this reproduction are at most 32 blocks (Footprint Cache's
/// 2 KB pages); Unison Cache uses 15- or 31-block pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Footprint {
    mask: u64,
    blocks: u8,
}

impl Footprint {
    /// Creates an empty footprint over a page of `blocks` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` is 0 or greater than 64.
    pub fn empty(blocks: u32) -> Self {
        assert!((1..=64).contains(&blocks), "page must hold 1..=64 blocks");
        Footprint {
            mask: 0,
            blocks: blocks as u8,
        }
    }

    /// Creates a footprint from a raw bit mask (bit *i* = block *i*).
    /// Bits at or above `blocks` are discarded.
    pub fn from_mask(mask: u64, blocks: u32) -> Self {
        let mut f = Footprint::empty(blocks);
        f.mask = mask & f.page_mask();
        f
    }

    /// A footprint covering every block of the page — the conservative
    /// default used when the history table has no entry.
    pub fn full(blocks: u32) -> Self {
        let f = Footprint::empty(blocks);
        Footprint {
            mask: f.page_mask(),
            blocks: f.blocks,
        }
    }

    /// A footprint containing exactly `block`.
    ///
    /// # Panics
    ///
    /// Panics if `block >= blocks`.
    pub fn single(block: u32, blocks: u32) -> Self {
        let mut f = Footprint::empty(blocks);
        f.insert(block);
        f
    }

    fn page_mask(&self) -> u64 {
        if self.blocks == 64 {
            u64::MAX
        } else {
            (1u64 << self.blocks) - 1
        }
    }

    /// Number of blocks the page holds.
    pub fn page_blocks(&self) -> u32 {
        u32::from(self.blocks)
    }

    /// The raw bit mask.
    pub fn mask(&self) -> u64 {
        self.mask
    }

    /// Marks `block` as part of the footprint.
    ///
    /// # Panics
    ///
    /// Panics if `block` is outside the page.
    pub fn insert(&mut self, block: u32) {
        assert!(block < u32::from(self.blocks), "block {block} outside page");
        self.mask |= 1u64 << block;
    }

    /// True if `block` is in the footprint.
    pub fn contains(&self, block: u32) -> bool {
        block < u32::from(self.blocks) && self.mask & (1u64 << block) != 0
    }

    /// Number of blocks in the footprint.
    pub fn len(&self) -> u32 {
        self.mask.count_ones()
    }

    /// True if no block is set.
    pub fn is_empty(&self) -> bool {
        self.mask == 0
    }

    /// True if the footprint is exactly one block (§III-A.4 singletons).
    pub fn is_singleton(&self) -> bool {
        self.len() == 1
    }

    /// Set union with another footprint of the same page size.
    #[must_use]
    pub fn union(&self, other: &Footprint) -> Footprint {
        debug_assert_eq!(self.blocks, other.blocks);
        Footprint {
            mask: self.mask | other.mask,
            blocks: self.blocks,
        }
    }

    /// Blocks present in `self` but not in `other`.
    #[must_use]
    pub fn minus(&self, other: &Footprint) -> Footprint {
        debug_assert_eq!(self.blocks, other.blocks);
        Footprint {
            mask: self.mask & !other.mask,
            blocks: self.blocks,
        }
    }

    /// Set intersection.
    #[must_use]
    pub fn intersect(&self, other: &Footprint) -> Footprint {
        debug_assert_eq!(self.blocks, other.blocks);
        Footprint {
            mask: self.mask & other.mask,
            blocks: self.blocks,
        }
    }

    /// Iterates over the block indices in the footprint, ascending.
    ///
    /// Walks only the set bits: each step takes the lowest one
    /// (`trailing_zeros`) and clears it, so a fill or writeback of `k`
    /// blocks costs `k` steps, not one per block of the page.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = u32> + Clone {
        let mut rest = self.mask;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let b = rest.trailing_zeros();
                rest &= rest - 1;
                b
            })
        })
    }
}

/// One entry of the footprint history table: a 2-bit saturating counter
/// per block, stored as two bit planes (`hi` is the counter MSB, `lo`
/// the LSB). A block is predicted when its counter is ≥ 2, i.e. when its
/// `hi` bit is set — prediction is a single mask read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct FtEntry {
    tag: u32,
    hi: u64,
    lo: u64,
    lru: u8,
}

impl FtEntry {
    fn predicted_mask(&self) -> u64 {
        self.hi
    }

    /// Folds one observed footprint into the counters: present blocks
    /// increment (saturating at 3), absent blocks decrement (at 0).
    /// Per-bit transition tables, with the counter as `(hi, lo)`:
    /// increment `00→01→10→11→11` gives `hi' = hi|lo`, `lo' = !lo|hi`;
    /// decrement `11→10→01→00→00` gives `hi' = hi&lo`, `lo' = hi&!lo`.
    fn observe(&mut self, actual: u64, page_mask: u64) {
        let p = actual; // present blocks increment, the rest decrement
        let inc_hi = self.hi | self.lo;
        let inc_lo = !self.lo | self.hi;
        let dec_hi = self.hi & self.lo;
        let dec_lo = self.hi & !self.lo;
        self.hi = ((inc_hi & p) | (dec_hi & !p)) & page_mask;
        self.lo = ((inc_lo & p) | (dec_lo & !p)) & page_mask;
    }
}

/// The SRAM footprint history table (Table II: 144 KB for both Footprint
/// Cache and Unison Cache).
///
/// Set-associative and tagged; indexed by a hash of `(PC, offset)`.
/// [`FootprintTable::predict`] returns `None` when no history exists — the
/// caller applies the conservative full-page default, as in the Footprint
/// Cache design.
///
/// Entries hold a **2-bit saturating counter per block** (spatial-pattern
/// hysteresis in the style of Chen et al.'s spatial pattern predictor and
/// SMS) rather than the raw last footprint: a block is predicted while
/// its counter is ≥ 2. One page whose residency happened to demand only a
/// subset (a scan's final partial page, a noisy visit) decays counters by
/// a single step instead of poisoning the whole pattern, while
/// persistently dead blocks decay out within two evictions — bounding
/// both underprediction (a miss per block) and overfetch (bandwidth).
#[derive(Debug, Clone)]
pub struct FootprintTable {
    sets: Vec<Vec<Option<FtEntry>>>,
    ways: usize,
    page_blocks: u32,
    predictions: u64,
    hits: u64,
}

impl FootprintTable {
    /// Creates a table with `sets` sets of `ways` ways for pages of
    /// `page_blocks` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or `ways` is zero.
    pub fn new(sets: usize, ways: usize, page_blocks: u32) -> Self {
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(ways > 0, "need at least one way");
        FootprintTable {
            sets: vec![vec![None; ways]; sets],
            ways,
            page_blocks,
            predictions: 0,
            hits: 0,
        }
    }

    /// The paper-sized table: 144 KB at ~8 B per entry ≈ 18K entries;
    /// rounded to 4096 sets × 4 ways.
    pub fn paper_default(page_blocks: u32) -> Self {
        FootprintTable::new(4096, 4, page_blocks)
    }

    /// Approximate SRAM budget of this geometry in bytes: tag (4 B) +
    /// two bit planes sized to the page (2 bits per block) + LRU.
    pub fn storage_bytes(&self) -> usize {
        let planes = (self.page_blocks as usize * 2).div_ceil(8);
        self.sets.len() * self.ways * (5 + planes)
    }

    fn index_tag(&self, pc: u64, offset: u32) -> (usize, u32) {
        let h = mix64(pc ^ (u64::from(offset) << 48) ^ 0x5bd1_e995);
        let idx = (h as usize) & (self.sets.len() - 1);
        let tag = (h >> 32) as u32;
        (idx, tag)
    }

    /// Looks up the footprint learned for `(pc, offset)`.
    ///
    /// Returns `None` when no history exists; callers should then fall
    /// back to fetching the full page (the conservative default that
    /// preserves hit ratio at the cost of bandwidth).
    pub fn predict(&mut self, pc: u64, offset: u32) -> Option<Footprint> {
        self.predictions += 1;
        let page_blocks = self.page_blocks;
        let (idx, tag) = self.index_tag(pc, offset);
        let found = self.sets[idx]
            .iter()
            .flatten()
            .find(|e| e.tag == tag)
            .map(|e| Footprint::from_mask(e.predicted_mask(), page_blocks));
        if found.is_some() {
            self.hits += 1;
        }
        found
    }

    /// Records the actual footprint observed for `(pc, offset)` at page
    /// eviction, replacing the LRU way when the set is full.
    ///
    /// Existing entries fold the observation into their per-block
    /// counters (see the type docs); new entries start every observed
    /// block at 2 (predicted) so a single training suffices to predict.
    pub fn train(&mut self, pc: u64, offset: u32, actual: Footprint) {
        debug_assert_eq!(actual.page_blocks(), self.page_blocks);
        let page_mask = Footprint::full(self.page_blocks).mask();
        let (idx, tag) = self.index_tag(pc, offset);
        let set = &mut self.sets[idx];

        // Hit: fold in place and refresh recency.
        let mut target = None;
        for (w, e) in set.iter().enumerate() {
            if let Some(e) = e {
                if e.tag == tag {
                    target = Some(w);
                    break;
                }
            }
        }
        let way = match target {
            Some(w) => {
                set[w]
                    .as_mut()
                    .expect("target way is occupied")
                    .observe(actual.mask(), page_mask);
                w
            }
            None => {
                let w = set.iter().position(Option::is_none).unwrap_or_else(|| {
                    // Evict the LRU (highest counter) way.
                    set.iter()
                        .enumerate()
                        .max_by_key(|(_, e)| e.map(|e| e.lru).unwrap_or(u8::MAX))
                        .map(|(w, _)| w)
                        .unwrap_or(0)
                });
                // Fresh entry: observed blocks start at counter 2.
                set[w] = Some(FtEntry {
                    tag,
                    hi: actual.mask(),
                    lo: 0,
                    lru: 0,
                });
                w
            }
        };
        for e in set.iter_mut().flatten() {
            e.lru = e.lru.saturating_add(1);
        }
        if let Some(e) = set[way].as_mut() {
            e.lru = 0;
        }
    }

    /// `(lookups, lookups that found history)` since construction.
    pub fn lookup_stats(&self) -> (u64, u64) {
        (self.predictions, self.hits)
    }

    /// Consumes a page eviction straight from the cache's metadata store:
    /// trains on the actual footprint (when non-empty, as always) and
    /// returns the prediction-quality deltas for the caller's Table V
    /// accounting. This is the single place eviction-time training and
    /// its bookkeeping are defined; both page-based designs call it.
    pub fn observe_eviction(&mut self, info: &EvictionInfo) -> FpQuality {
        let q = FpQuality {
            predicted_blocks: u64::from(info.predicted.len()),
            actual_blocks: u64::from(info.actual.len()),
            covered_blocks: u64::from(info.predicted.intersect(&info.actual).len()),
            over_blocks: u64::from(info.predicted.minus(&info.actual).len()),
        };
        if !info.actual.is_empty() {
            self.train(info.pc, info.offset, info.actual);
        }
        q
    }
}

/// A page-eviction record, assembled by the cache's metadata store
/// (`unison_core::MetaStore::eviction_info`) from its SoA arrays: the
/// allocation-trigger identity plus the block masks the paper's encoded
/// block states imply at eviction (§III-A.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictionInfo {
    /// PC of the access that triggered the page's allocation.
    pub pc: u64,
    /// Block offset of the trigger access.
    pub offset: u32,
    /// Blocks the CPU actually demanded during the residency.
    pub actual: Footprint,
    /// Blocks the footprint fetch installed at allocation.
    pub predicted: Footprint,
    /// Blocks modified during the residency (written back by the caller).
    pub dirty: Footprint,
}

/// Prediction-quality deltas from one eviction — the per-page terms of
/// Table V's "FP Accuracy" / "FP Overfetch" aggregates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FpQuality {
    /// Size of the predicted (installed) footprint.
    pub predicted_blocks: u64,
    /// Size of the actual (demanded) footprint.
    pub actual_blocks: u64,
    /// `|predicted ∩ actual|` — correctly predicted blocks.
    pub covered_blocks: u64,
    /// `|predicted − actual|` — fetched but never demanded.
    pub over_blocks: u64,
}

/// An entry of the [`SingletonTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SingletonEntry {
    /// The `(PC, offset)` pair that triggered the bypassed page.
    pub pc: u64,
    /// Block offset of the trigger access within the page.
    pub offset: u32,
    /// The bypassed page's identifier.
    pub page: u64,
    /// The single block that was fetched.
    pub block: u32,
}

/// The singleton table (§III-A.4, 3 KB in Table II).
///
/// Pages predicted to be singletons are *not allocated*, so their
/// footprint mispredictions can't be corrected at eviction. This small
/// table remembers recently bypassed pages; when a second, different
/// block of such a page is requested, the caller learns the page was not
/// a singleton after all and retrains the history table.
#[derive(Debug, Clone)]
pub struct SingletonTable {
    entries: Vec<Option<(SingletonEntry, SatCounter)>>,
}

impl SingletonTable {
    /// Creates a table with space for `capacity` bypassed pages.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not a power of two.
    pub fn new(capacity: usize) -> Self {
        assert!(
            capacity.is_power_of_two(),
            "capacity must be a power of two"
        );
        SingletonTable {
            entries: vec![None; capacity],
        }
    }

    /// The paper-sized table: 3 KB at ~12 B per entry ≈ 256 entries.
    pub fn paper_default() -> Self {
        SingletonTable::new(256)
    }

    /// Approximate SRAM budget in bytes.
    pub fn storage_bytes(&self) -> usize {
        self.entries.len() * 12
    }

    fn index(&self, page: u64) -> usize {
        (mix64(page) as usize) & (self.entries.len() - 1)
    }

    /// Records a bypassed singleton page (direct-mapped; displaces any
    /// previous occupant of the slot).
    pub fn insert(&mut self, entry: SingletonEntry) {
        let idx = self.index(entry.page);
        self.entries[idx] = Some((entry, SatCounter::new(2, 0)));
    }

    /// Looks up a bypassed page.
    pub fn lookup(&self, page: u64) -> Option<SingletonEntry> {
        let idx = self.index(page);
        self.entries[idx]
            .as_ref()
            .filter(|(e, _)| e.page == page)
            .map(|(e, _)| *e)
    }

    /// Removes a bypassed page (after correction or promotion).
    pub fn remove(&mut self, page: u64) {
        let idx = self.index(page);
        if self.entries[idx]
            .map(|(e, _)| e.page == page)
            .unwrap_or(false)
        {
            self.entries[idx] = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn footprint_set_algebra() {
        let a = Footprint::from_mask(0b1010, 15);
        let b = Footprint::from_mask(0b0110, 15);
        assert_eq!(a.union(&b).mask(), 0b1110);
        assert_eq!(a.minus(&b).mask(), 0b1000);
        assert_eq!(a.intersect(&b).mask(), 0b0010);
        assert_eq!(a.len(), 2);
        assert!(!a.is_singleton());
        assert!(Footprint::single(3, 15).is_singleton());
    }

    #[test]
    fn from_mask_truncates_to_page() {
        let f = Footprint::from_mask(u64::MAX, 15);
        assert_eq!(f.len(), 15);
        assert_eq!(f, Footprint::full(15));
    }

    #[test]
    fn iter_yields_sorted_blocks() {
        let f = Footprint::from_mask(0b1001_0010, 31);
        assert_eq!(f.iter().collect::<Vec<_>>(), vec![1, 4, 7]);
    }

    #[test]
    #[should_panic(expected = "outside page")]
    fn insert_outside_page_panics() {
        let mut f = Footprint::empty(15);
        f.insert(15);
    }

    #[test]
    fn table_learns_and_predicts() {
        let mut t = FootprintTable::new(64, 4, 15);
        assert_eq!(t.predict(0x400, 2), None);
        let fp = Footprint::from_mask(0b10110, 15);
        t.train(0x400, 2, fp);
        assert_eq!(t.predict(0x400, 2), Some(fp));
        // A different offset is a different history entry.
        assert_eq!(t.predict(0x400, 3), None);
    }

    #[test]
    fn table_counters_need_two_observations_for_new_blocks() {
        let mut t = FootprintTable::new(64, 2, 15);
        t.train(1, 0, Footprint::from_mask(0b1, 15));
        // Blocks 1 and 2 appear once: counters reach 1, below threshold.
        t.train(1, 0, Footprint::from_mask(0b111, 15));
        assert_eq!(t.predict(1, 0).unwrap().mask(), 0b1);
        // Second consecutive appearance crosses the threshold.
        t.train(1, 0, Footprint::from_mask(0b111, 15));
        assert_eq!(t.predict(1, 0).unwrap().mask(), 0b111);
    }

    #[test]
    fn table_tolerates_one_partial_observation() {
        // The hysteresis property: a single subset observation must not
        // drop established blocks from the prediction.
        let mut t = FootprintTable::new(64, 2, 15);
        let full = Footprint::from_mask(0x7fff, 15);
        t.train(9, 0, full);
        t.train(9, 0, full); // counters at 3
        t.train(9, 0, Footprint::from_mask(0b11, 15)); // partial tail page
        assert_eq!(t.predict(9, 0), Some(full), "one partial must not poison");
        // But persistent absence decays blocks out (3 -> 2 -> 1).
        t.train(9, 0, Footprint::from_mask(0b11, 15));
        t.train(9, 0, Footprint::from_mask(0b11, 15));
        assert_eq!(t.predict(9, 0).unwrap().mask(), 0b11);
    }

    #[test]
    fn table_evicts_lru_when_full() {
        let mut t = FootprintTable::new(1, 2, 15);
        // Three distinct keys into a 2-way set: the oldest must go.
        t.train(1, 0, Footprint::single(0, 15));
        t.train(2, 0, Footprint::single(1, 15));
        t.train(3, 0, Footprint::single(2, 15));
        let live = [1u64, 2, 3]
            .iter()
            .filter(|&&pc| t.predict(pc, 0).is_some())
            .count();
        assert_eq!(live, 2);
        // The most recent insertion survives.
        assert!(t.predict(3, 0).is_some());
    }

    #[test]
    fn paper_default_is_about_144_kb() {
        // 15-block pages: 4096 sets x 4 ways x (4B tag + 4B planes + 1B
        // LRU) = 144 KB, Table II's figure. The 32-block variant costs
        // 2 bits per extra block.
        let t15 = FootprintTable::paper_default(15);
        assert_eq!(t15.storage_bytes() / 1024, 144);
        let t32 = FootprintTable::paper_default(32);
        let kb = t32.storage_bytes() / 1024;
        assert!((144..=224).contains(&kb), "32-block table is {kb} KB");
    }

    #[test]
    fn singleton_table_roundtrip() {
        let mut s = SingletonTable::new(16);
        let e = SingletonEntry {
            pc: 0x400,
            offset: 5,
            page: 99,
            block: 5,
        };
        s.insert(e);
        assert_eq!(s.lookup(99), Some(e));
        assert_eq!(s.lookup(98), None);
        s.remove(99);
        assert_eq!(s.lookup(99), None);
    }

    #[test]
    fn singleton_table_is_direct_mapped() {
        let mut s = SingletonTable::new(1);
        s.insert(SingletonEntry {
            pc: 1,
            offset: 0,
            page: 1,
            block: 0,
        });
        s.insert(SingletonEntry {
            pc: 2,
            offset: 0,
            page: 2,
            block: 0,
        });
        assert_eq!(s.lookup(1), None, "displaced by the second insert");
        assert!(s.lookup(2).is_some());
    }

    #[test]
    fn singleton_paper_default_is_about_3_kb() {
        let s = SingletonTable::paper_default();
        assert_eq!(s.storage_bytes(), 3 * 1024);
    }
}
