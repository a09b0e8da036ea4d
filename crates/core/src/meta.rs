//! Struct-of-arrays set-metadata engine — the simulator's hot path.
//!
//! Every access a cache design serves walks its set's metadata: probe the
//! ways for a tag match, update recency, read or update per-block
//! valid/dirty state, and on a miss pick a victim. With per-set
//! arrays-of-structs (a `PageEntry` per way, ~40 B each), a 4-way probe
//! touches four scattered struct reads spanning several cache lines, and
//! the victim scan re-walks them. [`MetaStore`] flattens that state into
//! parallel vectors indexed by `set * ways + way`:
//!
//! * `tags` — one `u64` per entry, so a whole set's tags sit in one or
//!   two cache lines;
//! * `valid` — bit-packed into `u64` words (one bit per entry), so a
//!   set's validity is a shift-and-mask, not a per-way load;
//! * `stamp` — recency state (aging LRU counters or timestamp LRU, per
//!   [`Replacement`]);
//! * `present` / `demanded` / `dirty` / `predicted` — the per-block
//!   footprint bit masks of the paper's re-encoded block state
//!   (§III-A.2);
//! * `pc` / `offset` — the allocation-trigger identity the footprint
//!   predictor trains on at eviction (§III-A.1).
//!
//! The batch APIs ([`MetaStore::probe_set`], [`MetaStore::touch`],
//! [`MetaStore::evict_victim`]) do each set walk once over contiguous
//! memory; the way predictor consumes [`MetaStore::probe_set`]'s result
//! via `WayPredictor::observe_probe`, and the footprint predictor
//! consumes [`MetaStore::eviction_info`] via
//! `FootprintTable::observe_eviction` — no caller re-walks entry structs.
//!
//! Behavioral equivalence with the pre-SoA layout is pinned three ways:
//! the golden suite (`tests/soa_equivalence.rs` at the workspace root),
//! the property tests (`crates/core/tests/meta_properties.rs`) that race
//! a [`MetaStore`] against the naive `reference::NaiveStore`, and the
//! `meta` group of the criterion microbench. The scalar kernels
//! (`probe_set_scalar`, `touch_scalar`, `evict_victim_scalar`) and the
//! `reference` module compile only for tests and under the crate's
//! `reference` feature, never into release builds.

use unison_predictors::{EvictionInfo, Footprint};

/// Lane width of the vectorized set walks: the branchless per-way loops
/// in [`MetaStore::probe_set`], [`MetaStore::touch`], and
/// [`MetaStore::evict_victim`] are shaped so LLVM's autovectorizer
/// unrolls them into `LANES`-wide blocks on stable Rust (no `std::simd`
/// required) — eight `u64` tags span two AVX2 registers (one AVX-512
/// register). The workspace targets `x86-64-v3` (see
/// `.cargo/config.toml`) because the x86-64 baseline lacks the 64-bit
/// lane compare (`vpcmpeqq`) and per-lane shift (`vpsllvq`) the probe
/// mask build lowers to. Associativities that are not a multiple of the
/// lane width take a scalar epilogue with identical semantics, which
/// the property tests cover explicitly.
pub const LANES: usize = 8;

/// Which replacement discipline [`MetaStore::touch`] and
/// [`MetaStore::evict_victim`] implement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Replacement {
    /// Aging counters (Unison Cache): touching a way zeroes its stamp and
    /// saturating-increments every other way's (cap 255, the range of the
    /// in-DRAM LRU byte). The victim is the way with the **largest**
    /// stamp; ties resolve to the highest way index (matching the
    /// pre-SoA `Iterator::max_by_key` scan).
    AgingLru,
    /// Timestamp LRU (Footprint Cache): touching a way records the
    /// caller's clock. The victim is the way with the **smallest** stamp;
    /// ties resolve to the lowest way index (matching the pre-SoA
    /// `Iterator::min_by_key` scan).
    TimestampLru,
}

/// An entry's full metadata, gathered from the parallel arrays — the
/// install/eviction-path view. The hit path never materializes this;
/// it reads only the arrays it needs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PageMeta {
    /// Page tag (page number divided by the set count).
    pub tag: u64,
    /// Blocks with valid data in the cache.
    pub present: u32,
    /// Blocks demanded by the CPU at least once (vs merely prefetched).
    pub demanded: u32,
    /// Blocks modified since fill.
    pub dirty: u32,
    /// Blocks the footprint fetch installed (prediction-quality state).
    pub predicted: u32,
    /// PC of the access that triggered the page's allocation.
    pub pc: u64,
    /// Block offset of the trigger access.
    pub offset: u8,
}

/// Struct-of-arrays metadata store for set-associative DRAM caches. See
/// the [module docs](self) for the layout.
#[derive(Debug, Clone)]
pub struct MetaStore {
    sets: u64,
    ways: u32,
    policy: Replacement,
    tags: Vec<u64>,
    /// Bit-packed validity: entry `i` is bit `i % 64` of word `i / 64`.
    valid: Vec<u64>,
    stamp: Vec<u32>,
    present: Vec<u32>,
    demanded: Vec<u32>,
    dirty: Vec<u32>,
    predicted: Vec<u32>,
    pc: Vec<u64>,
    offset: Vec<u8>,
}

impl MetaStore {
    /// Builds a page-cache store: `sets` sets of `ways` ways with every
    /// field array allocated.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is zero, `ways` is zero, or `ways` exceeds 64
    /// (the widest set a single valid-mask word can describe; the paper's
    /// designs use 1–32).
    pub fn paged(sets: u64, ways: u32, policy: Replacement) -> Self {
        assert!(sets > 0, "need at least one set");
        assert!((1..=64).contains(&ways), "ways must be 1..=64");
        let n = (sets * u64::from(ways)) as usize;
        MetaStore {
            sets,
            ways,
            policy,
            tags: vec![0; n],
            valid: vec![0; n.div_ceil(64)],
            stamp: vec![0; n],
            present: vec![0; n],
            demanded: vec![0; n],
            dirty: vec![0; n],
            predicted: vec![0; n],
            pc: vec![0; n],
            offset: vec![0; n],
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.sets
    }

    /// Ways per set.
    pub fn ways(&self) -> u32 {
        self.ways
    }

    /// Approximate heap footprint of the metadata arrays in bytes.
    pub fn storage_bytes(&self) -> usize {
        self.tags.len() * 8
            + self.valid.len() * 8
            + self.stamp.len() * 4
            + self.present.len() * 4
            + self.demanded.len() * 4
            + self.dirty.len() * 4
            + self.predicted.len() * 4
            + self.pc.len() * 8
            + self.offset.len()
    }

    #[inline]
    fn base(&self, set: u64) -> usize {
        debug_assert!(set < self.sets, "set out of range");
        (set * u64::from(self.ways)) as usize
    }

    #[inline]
    fn idx(&self, set: u64, way: u32) -> usize {
        debug_assert!(way < self.ways, "way out of range");
        self.base(set) + way as usize
    }

    /// The set's validity bits as a word: bit `w` is way `w`. Handles
    /// sets whose entries span two packed words.
    #[inline]
    fn valid_mask(&self, set: u64) -> u64 {
        let base = self.base(set);
        let n = self.ways as usize;
        let word = base / 64;
        let off = base % 64;
        let mut bits = self.valid[word] >> off;
        if off + n > 64 {
            bits |= self.valid[word + 1] << (64 - off);
        }
        bits & Self::ways_mask(n)
    }

    #[inline]
    fn ways_mask(n: usize) -> u64 {
        if n >= 64 {
            u64::MAX
        } else {
            (1u64 << n) - 1
        }
    }

    /// True if the entry holds a live page/block.
    #[inline]
    pub fn is_valid(&self, set: u64, way: u32) -> bool {
        let i = self.idx(set, way);
        self.valid[i / 64] >> (i % 64) & 1 == 1
    }

    #[inline]
    fn set_valid_bit(&mut self, i: usize, v: bool) {
        let bit = 1u64 << (i % 64);
        if v {
            self.valid[i / 64] |= bit;
        } else {
            self.valid[i / 64] &= !bit;
        }
    }

    /// Probes the set for `tag`: one vectorized walk over the contiguous
    /// tag slice, gated by the set's packed valid bits. Returns the first
    /// (lowest) matching valid way, like the pre-SoA `(0..assoc).find(..)`
    /// scan.
    ///
    /// The walk builds an equality bitmask in one branchless pass (each
    /// way contributes `u64::from(t == tag) << way`, which LLVM lowers
    /// to [`LANES`]-wide compare + variable-shift vector ops), masks it
    /// with the valid bits, and takes `trailing_zeros` — so "first
    /// matching valid way" falls out of bit order rather than an
    /// early-exit branch per way. Bit-identical to
    /// `MetaStore::probe_set_scalar` (property-raced).
    #[inline]
    pub fn probe_set(&self, set: u64, tag: u64) -> Option<u32> {
        let base = self.base(set);
        let vbits = self.valid_mask(set);
        let tags = &self.tags[base..base + self.ways as usize];
        let mut eq = 0u64;
        for (w, &t) in tags.iter().enumerate() {
            eq |= u64::from(t == tag) << w;
        }
        let hit = eq & vbits;
        (hit != 0).then(|| hit.trailing_zeros())
    }

    /// The pre-vectorization probe: an early-exit scalar walk. Kept as
    /// the executable reference the property tests race against
    /// [`MetaStore::probe_set`] and the nightly release-mode assertion
    /// measures the vectorized path's speedup over.
    #[cfg(any(test, feature = "reference"))]
    #[inline]
    pub fn probe_set_scalar(&self, set: u64, tag: u64) -> Option<u32> {
        let base = self.base(set);
        let vbits = self.valid_mask(set);
        let tags = &self.tags[base..base + self.ways as usize];
        for (w, &t) in tags.iter().enumerate() {
            if vbits >> w & 1 == 1 && t == tag {
                return Some(w as u32);
            }
        }
        None
    }

    /// Records a use of `(set, way)` under the store's replacement
    /// policy. `clock` is consumed by [`Replacement::TimestampLru`] and
    /// ignored by [`Replacement::AgingLru`].
    ///
    /// The AgingLru batch age is vectorized: one branchless
    /// saturating-increment sweep over the whole stamp slice (which LLVM
    /// turns into wide `min` lanes), then a single store of 0 to the
    /// touched way — the same result as the old per-way
    /// `if w == way { 0 } else { .. }` branch, since the touched way's
    /// incremented value is overwritten unconditionally. Bit-identical to
    /// `MetaStore::touch_scalar` (property-raced).
    #[inline]
    pub fn touch(&mut self, set: u64, way: u32, clock: u32) {
        debug_assert!(way < self.ways);
        let base = self.base(set);
        match self.policy {
            Replacement::AgingLru => {
                let stamps = &mut self.stamp[base..base + self.ways as usize];
                for s in stamps.iter_mut() {
                    *s = (*s + 1).min(255);
                }
                stamps[way as usize] = 0;
            }
            Replacement::TimestampLru => {
                self.stamp[base + way as usize] = clock;
            }
        }
    }

    /// The pre-vectorization recency update: the branchy per-way walk.
    /// Kept as the executable reference the property tests race against
    /// [`MetaStore::touch`].
    #[cfg(any(test, feature = "reference"))]
    #[inline]
    pub fn touch_scalar(&mut self, set: u64, way: u32, clock: u32) {
        debug_assert!(way < self.ways);
        let base = self.base(set);
        match self.policy {
            Replacement::AgingLru => {
                let stamps = &mut self.stamp[base..base + self.ways as usize];
                for (w, s) in stamps.iter_mut().enumerate() {
                    *s = if w as u32 == way {
                        0
                    } else {
                        (*s + 1).min(255)
                    };
                }
            }
            Replacement::TimestampLru => {
                self.stamp[base + way as usize] = clock;
            }
        }
    }

    /// Picks the way to evict: the first invalid way if any (claimed via
    /// `trailing_zeros` of the inverted valid mask), otherwise the
    /// policy's LRU choice (see [`Replacement`] for tie-breaking).
    ///
    /// The full-set scan is a vectorized masked min/max over **packed
    /// keys** `(stamp << 6) | way` (way fits in 6 bits because ways ≤ 64,
    /// stamp is ≤ 32 bits, so keys are ≤ 38 bits — no overflow). A plain
    /// `max` reduce over packed keys breaks stamp ties toward the
    /// *highest* way and a `min` reduce toward the *lowest*, which are
    /// exactly AgingLru's `max_by_key` and TimestampLru's `min_by_key`
    /// tie rules — so the whole scan is one branchless reduce LLVM
    /// vectorizes. Bit-identical to `MetaStore::evict_victim_scalar`
    /// (property-raced).
    #[inline]
    pub fn evict_victim(&self, set: u64) -> u32 {
        let vbits = self.valid_mask(set);
        let invalid = !vbits & Self::ways_mask(self.ways as usize);
        if invalid != 0 {
            return invalid.trailing_zeros();
        }
        let base = self.base(set);
        let stamps = &self.stamp[base..base + self.ways as usize];
        match self.policy {
            Replacement::AgingLru => {
                // Oldest = largest age; ties to the highest index.
                let mut best = 0u64;
                for (w, &s) in stamps.iter().enumerate() {
                    best = best.max(u64::from(s) << 6 | w as u64);
                }
                (best & 63) as u32
            }
            Replacement::TimestampLru => {
                // Oldest = smallest timestamp; ties to the lowest index.
                let mut best = u64::MAX;
                for (w, &s) in stamps.iter().enumerate() {
                    best = best.min(u64::from(s) << 6 | w as u64);
                }
                (best & 63) as u32
            }
        }
    }

    /// The pre-vectorization victim scan: the branchy best-so-far walk.
    /// Kept as the executable reference the property tests race against
    /// [`MetaStore::evict_victim`].
    #[cfg(any(test, feature = "reference"))]
    #[inline]
    pub fn evict_victim_scalar(&self, set: u64) -> u32 {
        let vbits = self.valid_mask(set);
        let invalid = !vbits & Self::ways_mask(self.ways as usize);
        if invalid != 0 {
            return invalid.trailing_zeros();
        }
        let base = self.base(set);
        let stamps = &self.stamp[base..base + self.ways as usize];
        let mut victim = 0u32;
        match self.policy {
            Replacement::AgingLru => {
                // Oldest = largest age; ties to the highest index.
                let mut best = 0u32;
                for (w, &s) in stamps.iter().enumerate() {
                    if s >= best {
                        best = s;
                        victim = w as u32;
                    }
                }
            }
            Replacement::TimestampLru => {
                // Oldest = smallest timestamp; ties to the lowest index.
                let mut best = u32::MAX;
                for (w, &s) in stamps.iter().enumerate() {
                    if s < best {
                        best = s;
                        victim = w as u32;
                    }
                }
            }
        }
        victim
    }

    /// Gathers the entry's full metadata (install/eviction-path view).
    pub fn load(&self, set: u64, way: u32) -> PageMeta {
        let i = self.idx(set, way);
        PageMeta {
            tag: self.tags[i],
            present: self.present[i],
            demanded: self.demanded[i],
            dirty: self.dirty[i],
            predicted: self.predicted[i],
            pc: self.pc[i],
            offset: self.offset[i],
        }
    }

    /// Installs a page into `(set, way)`: writes every field array, marks
    /// the entry valid, and zeroes its recency stamp (callers then
    /// [`MetaStore::touch`] it, as the designs do after allocation).
    pub fn install(&mut self, set: u64, way: u32, meta: PageMeta) {
        let i = self.idx(set, way);
        self.tags[i] = meta.tag;
        self.present[i] = meta.present;
        self.demanded[i] = meta.demanded;
        self.dirty[i] = meta.dirty;
        self.predicted[i] = meta.predicted;
        self.pc[i] = meta.pc;
        self.offset[i] = meta.offset;
        self.stamp[i] = 0;
        self.set_valid_bit(i, true);
    }

    /// Marks the entry invalid (its field arrays keep stale values, as
    /// the struct layout did).
    pub fn invalidate(&mut self, set: u64, way: u32) {
        let i = self.idx(set, way);
        self.set_valid_bit(i, false);
    }

    /// The entry's tag.
    #[inline]
    pub fn tag(&self, set: u64, way: u32) -> u64 {
        self.tags[self.idx(set, way)]
    }

    /// The entry's present-blocks mask.
    #[inline]
    pub fn present(&self, set: u64, way: u32) -> u32 {
        self.present[self.idx(set, way)]
    }

    /// The entry's demanded-blocks mask.
    #[inline]
    pub fn demanded(&self, set: u64, way: u32) -> u32 {
        self.demanded[self.idx(set, way)]
    }

    /// The entry's dirty-blocks mask.
    #[inline]
    pub fn dirty(&self, set: u64, way: u32) -> u32 {
        self.dirty[self.idx(set, way)]
    }

    /// ORs `bits` into the present mask.
    #[inline]
    pub fn or_present(&mut self, set: u64, way: u32, bits: u32) {
        let i = self.idx(set, way);
        self.present[i] |= bits;
    }

    /// ORs `bits` into the demanded mask.
    #[inline]
    pub fn or_demanded(&mut self, set: u64, way: u32, bits: u32) {
        let i = self.idx(set, way);
        self.demanded[i] |= bits;
    }

    /// ORs `bits` into the dirty mask.
    #[inline]
    pub fn or_dirty(&mut self, set: u64, way: u32, bits: u32) {
        let i = self.idx(set, way);
        self.dirty[i] |= bits;
    }

    /// Assembles the eviction record the footprint predictor trains on
    /// (`FootprintTable::observe_eviction`): the trigger identity plus
    /// the demanded/predicted/dirty masks as [`Footprint`]s over a
    /// `page_blocks`-block page.
    pub fn eviction_info(&self, set: u64, way: u32, page_blocks: u32) -> EvictionInfo {
        let i = self.idx(set, way);
        EvictionInfo {
            pc: self.pc[i],
            offset: u32::from(self.offset[i]),
            actual: Footprint::from_mask(u64::from(self.demanded[i]), page_blocks),
            predicted: Footprint::from_mask(u64::from(self.predicted[i]), page_blocks),
            dirty: Footprint::from_mask(u64::from(self.dirty[i]), page_blocks),
        }
    }

    /// The set's recency stamps, in way order (diagnostics and the
    /// LRU-order property tests; the hot paths never materialize this).
    pub fn stamps(&self, set: u64) -> &[u32] {
        let base = self.base(set);
        &self.stamp[base..base + self.ways as usize]
    }
}

#[cfg(any(test, feature = "reference"))]
pub mod reference {
    //! The pre-SoA layout, kept as an executable specification: a naive
    //! nested `Vec<Vec<Entry>>` arrays-of-structs store with the same
    //! API as [`MetaStore`](super::MetaStore). The property tests assert
    //! the two stay in lock-step on arbitrary operation streams, and the
    //! `meta` microbench group measures the layouts against each other.

    use super::{PageMeta, Replacement};

    /// One way's metadata as a struct — the old `PageEntry` shape.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct NaiveEntry {
        /// Entry holds a live page.
        pub valid: bool,
        /// Page tag.
        pub tag: u64,
        /// Present-blocks mask.
        pub present: u32,
        /// Demanded-blocks mask.
        pub demanded: u32,
        /// Dirty-blocks mask.
        pub dirty: u32,
        /// Installed-blocks mask.
        pub predicted: u32,
        /// Allocation-trigger PC.
        pub pc: u64,
        /// Allocation-trigger block offset.
        pub offset: u8,
        /// Recency stamp.
        pub stamp: u32,
    }

    /// Nested arrays-of-structs store mirroring [`super::MetaStore`].
    #[derive(Debug, Clone)]
    pub struct NaiveStore {
        sets: Vec<Vec<NaiveEntry>>,
        policy: Replacement,
    }

    impl NaiveStore {
        /// Builds `sets` sets of `ways` default entries.
        pub fn paged(sets: u64, ways: u32, policy: Replacement) -> Self {
            NaiveStore {
                sets: vec![vec![NaiveEntry::default(); ways as usize]; sets as usize],
                policy,
            }
        }

        /// First valid way whose tag matches, walking the entry structs.
        pub fn probe_set(&self, set: u64, tag: u64) -> Option<u32> {
            self.sets[set as usize]
                .iter()
                .position(|e| e.valid && e.tag == tag)
                .map(|w| w as u32)
        }

        /// Recency update (same policies as [`super::MetaStore::touch`]).
        pub fn touch(&mut self, set: u64, way: u32, clock: u32) {
            match self.policy {
                Replacement::AgingLru => {
                    for (w, e) in self.sets[set as usize].iter_mut().enumerate() {
                        e.stamp = if w as u32 == way {
                            0
                        } else {
                            (e.stamp + 1).min(255)
                        };
                    }
                }
                Replacement::TimestampLru => {
                    self.sets[set as usize][way as usize].stamp = clock;
                }
            }
        }

        /// Victim choice (same tie-breaking as
        /// [`super::MetaStore::evict_victim`], via the same iterator
        /// combinators the pre-SoA caches used).
        pub fn evict_victim(&self, set: u64) -> u32 {
            let ways = &self.sets[set as usize];
            if let Some(w) = ways.iter().position(|e| !e.valid) {
                return w as u32;
            }
            match self.policy {
                Replacement::AgingLru => (0..ways.len())
                    .max_by_key(|&w| ways[w].stamp)
                    .expect("ways >= 1") as u32,
                Replacement::TimestampLru => (0..ways.len())
                    .min_by_key(|&w| ways[w].stamp)
                    .expect("ways >= 1") as u32,
            }
        }

        /// Validity of `(set, way)`.
        pub fn is_valid(&self, set: u64, way: u32) -> bool {
            self.sets[set as usize][way as usize].valid
        }

        /// Entry snapshot in the shared [`PageMeta`] shape.
        pub fn load(&self, set: u64, way: u32) -> PageMeta {
            let e = &self.sets[set as usize][way as usize];
            PageMeta {
                tag: e.tag,
                present: e.present,
                demanded: e.demanded,
                dirty: e.dirty,
                predicted: e.predicted,
                pc: e.pc,
                offset: e.offset,
            }
        }

        /// Install, mirroring [`super::MetaStore::install`].
        pub fn install(&mut self, set: u64, way: u32, meta: PageMeta) {
            let e = &mut self.sets[set as usize][way as usize];
            *e = NaiveEntry {
                valid: true,
                tag: meta.tag,
                present: meta.present,
                demanded: meta.demanded,
                dirty: meta.dirty,
                predicted: meta.predicted,
                pc: meta.pc,
                offset: meta.offset,
                stamp: 0,
            };
        }

        /// Invalidate, keeping stale fields like the struct layout did.
        pub fn invalidate(&mut self, set: u64, way: u32) {
            self.sets[set as usize][way as usize].valid = false;
        }

        /// ORs `bits` into the demanded mask.
        pub fn or_demanded(&mut self, set: u64, way: u32, bits: u32) {
            self.sets[set as usize][way as usize].demanded |= bits;
        }

        /// ORs `bits` into the dirty mask.
        pub fn or_dirty(&mut self, set: u64, way: u32, bits: u32) {
            self.sets[set as usize][way as usize].dirty |= bits;
        }

        /// The set's recency stamps (for LRU-order comparisons in tests).
        pub fn stamps(&self, set: u64) -> Vec<u32> {
            self.sets[set as usize].iter().map(|e| e.stamp).collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_finds_first_matching_valid_way() {
        let mut m = MetaStore::paged(4, 4, Replacement::AgingLru);
        assert_eq!(m.probe_set(0, 7), None);
        m.install(
            0,
            2,
            PageMeta {
                tag: 7,
                ..PageMeta::default()
            },
        );
        m.install(
            0,
            3,
            PageMeta {
                tag: 7,
                ..PageMeta::default()
            },
        );
        assert_eq!(m.probe_set(0, 7), Some(2), "lowest matching way wins");
        m.invalidate(0, 2);
        assert_eq!(m.probe_set(0, 7), Some(3));
        assert_eq!(m.probe_set(1, 7), None, "other sets unaffected");
    }

    #[test]
    fn aging_lru_victim_matches_max_by_key_tie_break() {
        let mut m = MetaStore::paged(1, 4, Replacement::AgingLru);
        for w in 0..4 {
            m.install(
                0,
                w,
                PageMeta {
                    tag: w as u64,
                    ..PageMeta::default()
                },
            );
        }
        // All stamps zero: max_by_key returns the LAST maximal way.
        assert_eq!(m.evict_victim(0), 3);
        m.touch(0, 3, 0); // ways 0..=2 age to 1, way 3 resets to 0
        assert_eq!(m.evict_victim(0), 2);
    }

    #[test]
    fn timestamp_lru_victim_is_first_min() {
        let mut m = MetaStore::paged(1, 4, Replacement::TimestampLru);
        for w in 0..4 {
            m.install(
                0,
                w,
                PageMeta {
                    tag: w as u64,
                    ..PageMeta::default()
                },
            );
            m.touch(0, w, 10 + w);
        }
        assert_eq!(m.evict_victim(0), 0);
        m.touch(0, 0, 99);
        assert_eq!(m.evict_victim(0), 1);
        // Equal stamps: min_by_key returns the FIRST minimal way.
        m.touch(0, 1, 50);
        m.touch(0, 2, 50);
        assert_eq!(m.evict_victim(0), 3, "way 3 still holds stamp 13");
    }

    #[test]
    fn invalid_way_is_preferred_victim() {
        let mut m = MetaStore::paged(1, 4, Replacement::AgingLru);
        for w in 0..4 {
            m.install(
                0,
                w,
                PageMeta {
                    tag: w as u64,
                    ..PageMeta::default()
                },
            );
        }
        m.invalidate(0, 1);
        assert_eq!(m.evict_victim(0), 1);
    }

    #[test]
    fn aging_saturates_at_255() {
        let mut m = MetaStore::paged(1, 2, Replacement::AgingLru);
        m.install(0, 0, PageMeta::default());
        m.install(0, 1, PageMeta::default());
        // Way 1's age must cap at 255 (the in-DRAM LRU byte), exactly as
        // the old `u8::saturating_add` did.
        for _ in 0..300 {
            m.touch(0, 0, 0);
        }
        assert_eq!(m.evict_victim(0), 1);
        m.touch(0, 1, 0); // way 1 resets; way 0 ages to 1
        assert_eq!(m.evict_victim(0), 0);
    }

    #[test]
    fn valid_bits_span_word_boundaries() {
        // 3-way sets: entries of set 21 are 63..66, crossing word 0 -> 1.
        let mut m = MetaStore::paged(40, 3, Replacement::AgingLru);
        m.install(
            21,
            0,
            PageMeta {
                tag: 5,
                ..PageMeta::default()
            },
        );
        m.install(
            21,
            2,
            PageMeta {
                tag: 6,
                ..PageMeta::default()
            },
        );
        assert_eq!(m.probe_set(21, 5), Some(0));
        assert_eq!(m.probe_set(21, 6), Some(2));
        assert_eq!(m.evict_victim(21), 1, "middle way is the invalid one");
        assert!(m.is_valid(21, 0) && !m.is_valid(21, 1) && m.is_valid(21, 2));
    }

    #[test]
    fn install_load_roundtrip_and_mask_updates() {
        let mut m = MetaStore::paged(8, 4, Replacement::TimestampLru);
        let meta = PageMeta {
            tag: 42,
            present: 0b1011,
            demanded: 0b0001,
            dirty: 0,
            predicted: 0b1011,
            pc: 0xdead,
            offset: 3,
        };
        m.install(5, 1, meta);
        assert_eq!(m.load(5, 1), meta);
        m.or_demanded(5, 1, 0b10);
        m.or_dirty(5, 1, 0b10);
        m.or_present(5, 1, 0b100);
        assert_eq!(m.demanded(5, 1), 0b11);
        assert_eq!(m.dirty(5, 1), 0b10);
        assert_eq!(m.present(5, 1), 0b1111);
    }

    #[test]
    fn eviction_info_carries_trigger_and_masks() {
        let mut m = MetaStore::paged(2, 2, Replacement::AgingLru);
        m.install(
            1,
            0,
            PageMeta {
                tag: 9,
                present: 0b111,
                demanded: 0b101,
                dirty: 0b100,
                predicted: 0b111,
                pc: 0x400,
                offset: 2,
            },
        );
        let info = m.eviction_info(1, 0, 15);
        assert_eq!(info.pc, 0x400);
        assert_eq!(info.offset, 2);
        assert_eq!(info.actual.mask(), 0b101);
        assert_eq!(info.predicted.mask(), 0b111);
        assert_eq!(info.dirty.mask(), 0b100);
    }

    #[test]
    fn storage_is_struct_of_arrays_sized() {
        let m = MetaStore::paged(256, 4, Replacement::AgingLru);
        // 1024 entries: 8B tag + 8B pc + 4B x4 masks + 4B stamp + 1B
        // offset + 1 valid bit each.
        let expected = 1024 * (8 + 8 + 4 * 5 + 1) + 1024 / 8;
        assert_eq!(m.storage_bytes(), expected);
    }

    #[test]
    #[should_panic(expected = "ways must be 1..=64")]
    fn too_wide_set_panics() {
        let _ = MetaStore::paged(1, 65, Replacement::AgingLru);
    }
}
