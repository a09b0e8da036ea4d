//! Footprint Cache — the state-of-the-art page-based baseline (§II-B,
//! Jevdjic et al., ISCA 2013).
//!
//! 2 KB pages, 32-way set-associative, with the same footprint-prediction
//! machinery as Unison Cache — but tags live in an on-chip **SRAM array
//! whose size and latency grow with capacity** (Table IV: 0.8 MB / 6
//! cycles at 128 MB up to an impractical 50 MB / 48 cycles at 8 GB). The
//! tag latency is charged on every access, hit or miss; that is the
//! scalability wall Unison Cache removes.

use serde::{Deserialize, Serialize};
use unison_dram::{cpu_cycles_to_ps, Op, Ps, RowCol};
use unison_predictors::{Footprint, FootprintTable, SingletonEntry, SingletonTable};

use crate::divisor::Divisor;
use crate::layout::{FcTagModel, ROW_BYTES};
use crate::meta::{MetaStore, PageMeta, Replacement};
use crate::model::{CacheAccess, DramCacheModel};
use crate::ports::MemPorts;
use crate::stats::CacheStats;
use crate::types::{AccessOutcome, Request, BLOCK_BYTES};

/// Configuration of a [`FootprintCache`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FootprintConfig {
    /// Stacked-DRAM capacity in bytes.
    pub cache_bytes: u64,
    /// Set associativity (32 in the paper).
    pub assoc: u32,
    /// Fixed controller overhead per request, in CPU cycles.
    pub ctrl_overhead_cycles: u64,
    /// Capacity used to derive the SRAM tag model (Table IV). Defaults to
    /// `cache_bytes`; scaled-down experiment runs set this to the nominal
    /// paper-labeled size so the tag latency — the very effect the paper
    /// studies — is not shrunk along with the capacity.
    pub nominal_bytes: u64,
}

impl FootprintConfig {
    /// The paper's configuration: 2 KB pages, 32-way.
    pub fn new(cache_bytes: u64) -> Self {
        FootprintConfig {
            cache_bytes,
            assoc: 32,
            ctrl_overhead_cycles: 2,
            nominal_bytes: cache_bytes,
        }
    }

    /// Overrides the size used for the tag-latency model.
    #[must_use]
    pub fn with_nominal(mut self, nominal_bytes: u64) -> Self {
        self.nominal_bytes = nominal_bytes;
        self
    }
}

/// Blocks per 2 KB page.
const PAGE_BLOCKS: u32 = 32;
/// 2 KB page size in bytes.
const PAGE_BYTES: u64 = PAGE_BLOCKS as u64 * BLOCK_BYTES;
/// Pages per 8 KB DRAM row (no embedded metadata: 128 blocks/row,
/// Table II).
const PAGES_PER_ROW: u64 = ROW_BYTES / PAGE_BYTES;

/// The Footprint Cache design. See the [module docs](self).
///
/// Set metadata lives in a struct-of-arrays [`MetaStore`] under
/// timestamp LRU (32-way recency needs more range than a saturating
/// byte, so stamps are the access clock). The set count is a
/// precomputed [`Divisor`], and the controller plus SRAM tag latency is
/// converted to picoseconds once, at construction.
#[derive(Debug, Clone)]
pub struct FootprintCache {
    cfg: FootprintConfig,
    tag_model: FcTagModel,
    /// Number of sets.
    set_div: Divisor,
    /// Controller overhead plus the SRAM tag lookup, in picoseconds.
    tag_ps: Ps,
    meta: MetaStore,
    fp_table: FootprintTable,
    singletons: SingletonTable,
    clock: u32,
    stats: CacheStats,
}

impl FootprintCache {
    /// Builds the cache, deriving the SRAM tag model from the capacity.
    ///
    /// # Panics
    ///
    /// Panics if the geometry yields zero sets.
    pub fn new(cfg: FootprintConfig) -> Self {
        let num_sets = cfg.cache_bytes / (PAGE_BYTES * u64::from(cfg.assoc));
        assert!(num_sets > 0, "cache too small for even one set");
        let tag_model = FcTagModel::for_cache_size(cfg.nominal_bytes);
        FootprintCache {
            tag_ps: cpu_cycles_to_ps(cfg.ctrl_overhead_cycles)
                + cpu_cycles_to_ps(tag_model.latency_cycles),
            tag_model,
            set_div: Divisor::new(num_sets),
            meta: MetaStore::paged(num_sets, cfg.assoc, Replacement::TimestampLru),
            fp_table: FootprintTable::paper_default(PAGE_BLOCKS),
            singletons: SingletonTable::paper_default(),
            clock: 0,
            stats: CacheStats::default(),
            cfg,
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &FootprintConfig {
        &self.cfg
    }

    /// The SRAM tag array model in effect (Table IV).
    pub fn tag_model(&self) -> &FcTagModel {
        &self.tag_model
    }

    /// Number of sets.
    pub fn num_sets(&self) -> u64 {
        self.set_div.get()
    }

    /// Stacked-DRAM location of a block: pages pack four to a row,
    /// way-major (`slot = way * sets + set`) so that consecutive sets
    /// rotate across channels and banks. A set-major layout would derive
    /// the channel from `way / 4` alone, funnelling the hot working set
    /// through a fraction of the device's banks.
    fn data_loc(&self, set: u64, way: u32, block: u32) -> RowCol {
        let slot = u64::from(way) * self.set_div.get() + set;
        let row = slot / PAGES_PER_ROW;
        let col = (slot % PAGES_PER_ROW) * PAGE_BYTES + u64::from(block) * BLOCK_BYTES;
        RowCol::new(row, col as u32)
    }

    fn block_phys_addr(page: u64, block: u32) -> u64 {
        page * PAGE_BYTES + u64::from(block) * BLOCK_BYTES
    }

    fn evict(&mut self, now: Ps, set: u64, way: u32, mem: &mut MemPorts) -> Ps {
        let info = self.meta.eviction_info(set, way, PAGE_BLOCKS);
        let victim_page = self.meta.tag(set, way) * self.set_div.get() + set;
        let done = mem.write_back(
            now,
            info.dirty.iter(),
            |b| self.data_loc(set, way, b),
            |b| Self::block_phys_addr(victim_page, b),
        );
        let wb_blocks = u64::from(info.dirty.len());
        self.stats.stacked_read_bytes += wb_blocks * BLOCK_BYTES;
        self.stats.offchip_write_bytes += wb_blocks * BLOCK_BYTES;
        self.stats.writeback_blocks += wb_blocks;
        let q = self.fp_table.observe_eviction(&info);
        self.stats.fp_predicted_blocks += q.predicted_blocks;
        self.stats.fp_actual_blocks += q.actual_blocks;
        self.stats.fp_covered_blocks += q.covered_blocks;
        self.stats.fp_over_blocks += q.over_blocks;
        self.stats.evictions += 1;
        self.meta.invalidate(set, way);
        done
    }

    #[allow(clippy::too_many_arguments)]
    fn fetch_footprint(
        &mut self,
        now: Ps,
        page: u64,
        set: u64,
        way: u32,
        trigger: u32,
        mask: Footprint,
        mem: &mut MemPorts,
    ) -> (Ps, Ps) {
        let (crit, done) = mem.fill(
            now,
            std::iter::once(trigger).chain(mask.iter().filter(move |&b| b != trigger)),
            |b| Self::block_phys_addr(page, b),
            |b| self.data_loc(set, way, b),
        );
        let blocks = u64::from(mask.len());
        self.stats.offchip_read_bytes += blocks * BLOCK_BYTES;
        self.stats.stacked_write_bytes += blocks * BLOCK_BYTES;
        self.stats.fill_blocks += blocks;
        (crit, done)
    }
}

impl DramCacheModel for FootprintCache {
    fn name(&self) -> &'static str {
        "Footprint"
    }

    fn capacity_bytes(&self) -> u64 {
        self.cfg.cache_bytes
    }

    fn access(&mut self, now: Ps, req: &Request, mem: &mut MemPorts) -> CacheAccess {
        self.stats.accesses += 1;
        self.clock = self.clock.wrapping_add(1);
        let bn = req.block_number();
        let page = bn / u64::from(PAGE_BLOCKS);
        let offset = (bn % u64::from(PAGE_BLOCKS)) as u32;
        let (tag, set) = self.set_div.divmod(page);

        // Every access pays the SRAM tag-array latency (Table IV).
        let tag_known = now + self.tag_ps;

        let found = self.meta.probe_set(set, tag);
        let clock = self.clock;
        let access = match found {
            Some(way) => {
                let block_bit = 1u32 << offset;
                if self.meta.present(set, way) & block_bit != 0 {
                    // Hit: the SRAM tags name the exact way, so only the
                    // data block is read from stacked DRAM.
                    let d = mem.stacked.access(
                        tag_known,
                        Op::Read,
                        self.data_loc(set, way, offset),
                        BLOCK_BYTES as u32,
                    );
                    self.stats.stacked_read_bytes += BLOCK_BYTES;
                    let mut done = d.last_data_ps;
                    if req.is_write {
                        let w = mem.stacked.access(
                            d.last_data_ps,
                            Op::Write,
                            self.data_loc(set, way, offset),
                            BLOCK_BYTES as u32,
                        );
                        self.stats.stacked_write_bytes += BLOCK_BYTES;
                        done = done.max(w.last_data_ps);
                    }
                    self.meta.or_demanded(set, way, block_bit);
                    if req.is_write {
                        self.meta.or_dirty(set, way, block_bit);
                    }
                    self.meta.touch(set, way, clock);
                    self.stats.hits += 1;
                    CacheAccess {
                        outcome: AccessOutcome::Hit,
                        critical_ps: d.last_data_ps,
                        done_ps: done,
                    }
                } else {
                    // Underprediction: fetch just the block.
                    let oc = mem.offchip.access_addr(
                        tag_known,
                        Op::Read,
                        Self::block_phys_addr(page, offset),
                        BLOCK_BYTES as u32,
                    );
                    self.stats.offchip_read_bytes += BLOCK_BYTES;
                    let fill = mem.stacked.access(
                        oc.last_data_ps,
                        Op::Write,
                        self.data_loc(set, way, offset),
                        BLOCK_BYTES as u32,
                    );
                    self.stats.stacked_write_bytes += BLOCK_BYTES;
                    self.stats.fill_blocks += 1;
                    self.meta.or_present(set, way, block_bit);
                    self.meta.or_demanded(set, way, block_bit);
                    if req.is_write {
                        self.meta.or_dirty(set, way, block_bit);
                    }
                    self.meta.touch(set, way, clock);
                    self.stats.underprediction_misses += 1;
                    CacheAccess {
                        outcome: AccessOutcome::UnderpredictionMiss,
                        critical_ps: oc.first_data_ps,
                        done_ps: fill.last_data_ps,
                    }
                }
            }
            None => {
                // Trigger miss: singleton machinery then allocation, as
                // in Unison (§III-A.4 credits the mechanism to FC).
                let singleton_info = self.singletons.lookup(page);
                let corrected = match singleton_info {
                    Some(s) if s.block != offset => {
                        let mut fp = Footprint::single(s.block, PAGE_BLOCKS);
                        fp.insert(offset);
                        self.fp_table.train(s.pc, s.offset, fp);
                        self.singletons.remove(page);
                        Some(fp)
                    }
                    _ => None,
                };
                let predicted_fp = corrected.or_else(|| self.fp_table.predict(req.pc, offset));
                let is_singleton_pred =
                    corrected.is_none() && predicted_fp.map(|f| f.is_singleton()).unwrap_or(false);

                if is_singleton_pred {
                    let oc = mem.offchip.access_addr(
                        tag_known,
                        Op::Read,
                        Self::block_phys_addr(page, offset),
                        BLOCK_BYTES as u32,
                    );
                    self.stats.offchip_read_bytes += BLOCK_BYTES;
                    self.singletons.insert(SingletonEntry {
                        pc: req.pc,
                        offset,
                        page,
                        block: offset,
                    });
                    self.stats.singleton_bypasses += 1;
                    CacheAccess {
                        outcome: AccessOutcome::SingletonBypass,
                        critical_ps: oc.first_data_ps,
                        done_ps: oc.last_data_ps,
                    }
                } else {
                    let way = self.meta.evict_victim(set);
                    let mut evict_done = tag_known;
                    if self.meta.is_valid(set, way) {
                        evict_done = self.evict(tag_known, set, way, mem);
                    }
                    let mut fetch = predicted_fp.unwrap_or_else(|| Footprint::full(PAGE_BLOCKS));
                    fetch.insert(offset);
                    let (crit, fill_done) =
                        self.fetch_footprint(tag_known, page, set, way, offset, fetch, mem);
                    let block_bit = 1u32 << offset;
                    self.meta.install(
                        set,
                        way,
                        PageMeta {
                            tag,
                            present: fetch.mask() as u32,
                            demanded: block_bit,
                            dirty: if req.is_write { block_bit } else { 0 },
                            predicted: fetch.mask() as u32,
                            pc: req.pc,
                            offset: offset as u8,
                        },
                    );
                    self.meta.touch(set, way, clock);
                    self.stats.trigger_misses += 1;
                    CacheAccess {
                        outcome: AccessOutcome::TriggerMiss,
                        critical_ps: crit,
                        done_ps: fill_done.max(evict_done),
                    }
                }
            }
        };
        self.stats.critical_latency_sum_ps += access.critical_ps.saturating_sub(now);
        access
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> (FootprintCache, MemPorts) {
        (
            FootprintCache::new(FootprintConfig::new(1 << 20)),
            MemPorts::paper_default(),
        )
    }

    fn read(addr: u64) -> Request {
        Request {
            core: 0,
            pc: 0x400,
            addr,
            is_write: false,
        }
    }

    #[test]
    fn miss_then_hit_with_spatial_fetch() {
        let (mut fc, mut mem) = cache();
        let a = fc.access(0, &read(0), &mut mem);
        assert_eq!(a.outcome, AccessOutcome::TriggerMiss);
        // Full-page default: a different block of the 2 KB page hits.
        let a2 = fc.access(a.done_ps, &read(1024), &mut mem);
        assert_eq!(a2.outcome, AccessOutcome::Hit);
    }

    #[test]
    fn tag_latency_grows_with_capacity() {
        let small = FootprintCache::new(FootprintConfig::new(128 << 20));
        let large = FootprintCache::new(FootprintConfig::new(1 << 30));
        assert!(small.tag_model().latency_cycles < large.tag_model().latency_cycles);
        assert_eq!(small.tag_model().latency_cycles, 6);
        assert_eq!(large.tag_model().latency_cycles, 16);
    }

    #[test]
    fn hit_latency_includes_tag_latency() {
        // Compare 128 MB (6-cycle tags) against an 8 GB-parameterized
        // model: same access pattern, higher latency.
        let mut mem1 = MemPorts::paper_default();
        let mut small = FootprintCache::new(FootprintConfig::new(128 << 20));
        let a = small.access(0, &read(0), &mut mem1);
        let t = a.done_ps + 1_000_000;
        let h_small = small.access(t, &read(0), &mut mem1).critical_ps - t;

        let mut mem2 = MemPorts::paper_default();
        let mut big = FootprintCache::new(FootprintConfig::new(8 << 30));
        let a = big.access(0, &read(0), &mut mem2);
        let t = a.done_ps + 1_000_000;
        let h_big = big.access(t, &read(0), &mut mem2).critical_ps - t;

        let diff_cycles = unison_dram::ps_to_cpu_cycles(h_big - h_small);
        assert!(
            (40..=45).contains(&diff_cycles),
            "8GB vs 128MB hit-latency gap should be ~42 cycles, got {diff_cycles}"
        );
    }

    #[test]
    fn thirty_two_pages_coexist_in_a_set() {
        let (mut fc, mut mem) = cache();
        let sets = fc.num_sets();
        let mut t = 0;
        for k in 0..32u64 {
            let a = fc.access(t, &read(k * sets * PAGE_BYTES), &mut mem);
            t = a.done_ps;
            assert_eq!(a.outcome, AccessOutcome::TriggerMiss);
        }
        for k in 0..32u64 {
            let a = fc.access(t, &read(k * sets * PAGE_BYTES), &mut mem);
            t = a.done_ps;
            assert_eq!(a.outcome, AccessOutcome::Hit, "way {k} evicted");
        }
        assert_eq!(fc.stats().evictions, 0);
    }

    #[test]
    fn lru_evicts_oldest_of_33() {
        let (mut fc, mut mem) = cache();
        let sets = fc.num_sets();
        let mut t = 0;
        for k in 0..33u64 {
            let a = fc.access(t, &read(k * sets * PAGE_BYTES), &mut mem);
            t = a.done_ps;
        }
        assert_eq!(fc.stats().evictions, 1);
        // Page 0 (the oldest) was the victim, so this access cannot hit.
        // (It may resolve as a singleton bypass: every page in this test
        // demanded exactly one block, so the predictor learned a
        // singleton footprint for this PC — which is itself correct.)
        let a = fc.access(t, &read(0), &mut mem);
        assert_ne!(a.outcome, AccessOutcome::Hit);
    }

    #[test]
    fn footprint_learning_works() {
        let (mut fc, mut mem) = cache();
        let sets = fc.num_sets();
        let mut t = 0;
        // Touch blocks 0 and 9 of page 0, then evict with 32 conflicts.
        let a = fc.access(t, &read(0), &mut mem);
        t = a.done_ps;
        let a = fc.access(t, &read(9 * 64), &mut mem);
        t = a.done_ps;
        for k in 1..=32u64 {
            let a = fc.access(t, &read(k * sets * PAGE_BYTES), &mut mem);
            t = a.done_ps;
        }
        let fills_before = fc.stats().fill_blocks;
        let a = fc.access(t, &read(0), &mut mem);
        assert_eq!(a.outcome, AccessOutcome::TriggerMiss);
        assert_eq!(fc.stats().fill_blocks - fills_before, 2, "learned {{0, 9}}");
    }
}
