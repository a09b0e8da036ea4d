//! Alloy Cache — the state-of-the-art block-based baseline (§II-A,
//! Qureshi & Loh, MICRO 2012).
//!
//! Direct-mapped, with each 64 B block *alloyed* with its 8 B tag into a
//! 72 B tag-and-data unit (TAD). One TAD streams out per lookup, so a hit
//! costs a single DRAM access — but there is no spatial fetching, so hit
//! rates ride on the scarce temporal locality left below the L2. A MAP-I
//! miss predictor decides whether to probe the cache first (predicted
//! hit) or to launch the off-chip access in parallel (predicted miss).

use serde::{Deserialize, Serialize};
use unison_dram::{cpu_cycles_to_ps, Op, Ps, RowCol};
use unison_predictors::{MissPrediction, MissPredictor};

use crate::divisor::Divisor;
use crate::layout::{AlloyRowLayout, TAD_BYTES};
use crate::meta::MetaStore;
use crate::model::{CacheAccess, DramCacheModel};
use crate::ports::MemPorts;
use crate::stats::CacheStats;
use crate::types::{AccessOutcome, Request, BLOCK_BYTES};

/// Configuration of an [`AlloyCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AlloyConfig {
    /// Stacked-DRAM capacity in bytes.
    pub cache_bytes: u64,
    /// Use the MAP-I miss predictor (the paper's Alloy Cache does; turn
    /// off for a static always-hit ablation).
    pub miss_predictor: bool,
    /// Fixed controller overhead per request, in CPU cycles.
    pub ctrl_overhead_cycles: u64,
}

impl AlloyConfig {
    /// The paper's configuration: miss predictor on, one-cycle predictor
    /// latency folded into the control path.
    pub fn new(cache_bytes: u64) -> Self {
        AlloyConfig {
            cache_bytes,
            miss_predictor: true,
            ctrl_overhead_cycles: 2,
        }
    }
}

/// The Alloy Cache design. See the [module docs](self).
///
/// TAD metadata (tag, valid bit, dirty bit) lives in a direct-mapped
/// block-mode [`MetaStore`] — the same SoA engine the page caches use,
/// with the footprint/recency arrays left empty. The TAD count and the
/// TADs per row are precomputed [`Divisor`]s, and the controller latency
/// is converted to picoseconds once, at construction.
#[derive(Debug, Clone)]
pub struct AlloyCache {
    cfg: AlloyConfig,
    /// Number of TAD slots.
    tad_div: Divisor,
    /// TADs per row.
    row_div: Divisor,
    /// Controller overhead (plus the predictor's cycle when it is on),
    /// in picoseconds.
    ctrl_ps: Ps,
    meta: MetaStore,
    mp: MissPredictor,
    stats: CacheStats,
}

impl AlloyCache {
    /// Builds the cache.
    ///
    /// # Panics
    ///
    /// Panics if the capacity holds no TADs.
    pub fn new(cfg: AlloyConfig) -> Self {
        let layout = AlloyRowLayout::paper();
        let num_tads = layout.num_tads(cfg.cache_bytes);
        assert!(num_tads > 0, "cache too small for even one TAD");
        let ctrl_cycles = cfg.ctrl_overhead_cycles + u64::from(cfg.miss_predictor);
        AlloyCache {
            cfg,
            tad_div: Divisor::new(num_tads),
            row_div: Divisor::new(u64::from(layout.tads_per_row)),
            ctrl_ps: cpu_cycles_to_ps(ctrl_cycles),
            meta: MetaStore::blocks(num_tads),
            mp: MissPredictor::paper_default(),
            stats: CacheStats::default(),
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &AlloyConfig {
        &self.cfg
    }

    /// Number of TAD slots.
    pub fn num_tads(&self) -> u64 {
        self.tad_div.get()
    }

    fn tad_loc(&self, tad: u64) -> RowCol {
        let (row, slot) = self.row_div.divmod(tad);
        RowCol::new(row, slot as u32 * TAD_BYTES)
    }

    /// Fills `tad` with `tag`, writing back the old occupant if dirty.
    /// The victim's data already streamed out with the probe TAD read, so
    /// the writeback is a single off-chip write.
    fn fill(
        &mut self,
        now: Ps,
        tad: u64,
        loc: RowCol,
        tag: u32,
        dirty: bool,
        mem: &mut MemPorts,
    ) -> Ps {
        let old_valid = self.meta.is_valid(tad, 0);
        let mut done = now;
        if old_valid && self.meta.block_dirty(tad) {
            let victim_bn = self.meta.tag(tad, 0) * self.tad_div.get() + tad;
            let wb = mem.offchip.access_addr(
                now,
                Op::Write,
                victim_bn * BLOCK_BYTES,
                BLOCK_BYTES as u32,
            );
            self.stats.offchip_write_bytes += BLOCK_BYTES;
            self.stats.writeback_blocks += 1;
            done = done.max(wb.last_data_ps);
        }
        if old_valid {
            self.stats.evictions += 1;
        }
        let w = mem.stacked.access(now, Op::Write, loc, TAD_BYTES);
        self.stats.stacked_write_bytes += u64::from(TAD_BYTES);
        self.stats.fill_blocks += 1;
        self.meta.install_block(tad, u64::from(tag), dirty);
        done.max(w.last_data_ps)
    }
}

impl DramCacheModel for AlloyCache {
    fn name(&self) -> &'static str {
        "Alloy"
    }

    fn capacity_bytes(&self) -> u64 {
        self.cfg.cache_bytes
    }

    fn access(&mut self, now: Ps, req: &Request, mem: &mut MemPorts) -> CacheAccess {
        self.stats.accesses += 1;
        let bn = req.block_number();
        let (tag, tad) = self.tad_div.divmod(bn);
        let tag = tag as u32;
        let loc = self.tad_loc(tad);
        let is_hit = self.meta.probe_set(tad, u64::from(tag)).is_some();

        // Miss prediction: one extra cycle of predictor latency, already
        // in `ctrl_ps`. The (core, PC) pair hashes once for the
        // prediction and the training below.
        let t0 = now + self.ctrl_ps;
        let mp_slot = self
            .cfg
            .miss_predictor
            .then(|| self.mp.slot(u32::from(req.core), req.pc));
        let prediction = mp_slot.map_or(MissPrediction::Hit, |slot| self.mp.predict(slot));

        let access = match prediction {
            MissPrediction::Hit => {
                // Probe the cache first; on a miss the off-chip request
                // is serialized behind the failed lookup (§II-A).
                let probe = mem.stacked.access(t0, Op::Read, loc, TAD_BYTES);
                self.stats.stacked_read_bytes += u64::from(TAD_BYTES);
                let tag_known = probe.last_data_ps + cpu_cycles_to_ps(1);
                if is_hit {
                    let mut done = tag_known;
                    if req.is_write {
                        let w = mem.stacked.access(tag_known, Op::Write, loc, TAD_BYTES);
                        self.stats.stacked_write_bytes += u64::from(TAD_BYTES);
                        self.meta.mark_block_dirty(tad);
                        done = done.max(w.last_data_ps);
                    }
                    self.stats.hits += 1;
                    CacheAccess {
                        outcome: AccessOutcome::Hit,
                        critical_ps: tag_known,
                        done_ps: done,
                    }
                } else {
                    let oc = mem.offchip.access_addr(
                        tag_known,
                        Op::Read,
                        bn * BLOCK_BYTES,
                        BLOCK_BYTES as u32,
                    );
                    self.stats.offchip_read_bytes += BLOCK_BYTES;
                    let done = self.fill(oc.last_data_ps, tad, loc, tag, req.is_write, mem);
                    self.stats.block_misses += 1;
                    CacheAccess {
                        outcome: AccessOutcome::BlockMiss,
                        critical_ps: oc.first_data_ps,
                        done_ps: done,
                    }
                }
            }
            MissPrediction::Miss => {
                // Launch the off-chip access immediately; probe the cache
                // in parallel to verify (dirty data must come from the
                // cache).
                let oc =
                    mem.offchip
                        .access_addr(t0, Op::Read, bn * BLOCK_BYTES, BLOCK_BYTES as u32);
                self.stats.offchip_read_bytes += BLOCK_BYTES;
                let probe = mem.stacked.access(t0, Op::Read, loc, TAD_BYTES);
                self.stats.stacked_read_bytes += u64::from(TAD_BYTES);
                let tag_known = probe.last_data_ps + cpu_cycles_to_ps(1);
                if is_hit {
                    // False miss: the memory fetch was wasted bandwidth;
                    // serve from the cache (covers the dirty case).
                    let mut done = tag_known.max(oc.last_data_ps);
                    if req.is_write {
                        let w = mem.stacked.access(tag_known, Op::Write, loc, TAD_BYTES);
                        self.stats.stacked_write_bytes += u64::from(TAD_BYTES);
                        self.meta.mark_block_dirty(tad);
                        done = done.max(w.last_data_ps);
                    }
                    self.stats.hits += 1;
                    CacheAccess {
                        outcome: AccessOutcome::Hit,
                        critical_ps: tag_known,
                        done_ps: done,
                    }
                } else {
                    let done = self.fill(oc.last_data_ps, tad, loc, tag, req.is_write, mem);
                    self.stats.block_misses += 1;
                    CacheAccess {
                        outcome: AccessOutcome::BlockMiss,
                        critical_ps: oc.first_data_ps,
                        done_ps: done,
                    }
                }
            }
        };

        if let Some(slot) = mp_slot {
            self.mp.update(slot, is_hit);
            let (c, fm, fh) = self.mp.outcome_stats();
            self.stats.mp_correct = c;
            self.stats.mp_false_miss = fm;
            self.stats.mp_false_hit = fh;
        }
        self.stats.critical_latency_sum_ps += access.critical_ps.saturating_sub(now);
        access
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
        self.mp.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> (AlloyCache, MemPorts) {
        (
            AlloyCache::new(AlloyConfig::new(1 << 20)),
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
    fn miss_then_hit() {
        let (mut ac, mut mem) = cache();
        let a = ac.access(0, &read(0x5000), &mut mem);
        assert_eq!(a.outcome, AccessOutcome::BlockMiss);
        let a2 = ac.access(a.done_ps, &read(0x5000), &mut mem);
        assert_eq!(a2.outcome, AccessOutcome::Hit);
    }

    #[test]
    fn no_spatial_fetching() {
        // The neighbouring block misses even after its neighbour filled —
        // the key weakness vs page-based designs.
        let (mut ac, mut mem) = cache();
        let a = ac.access(0, &read(0x5000), &mut mem);
        let a2 = ac.access(a.done_ps, &read(0x5000 + 64), &mut mem);
        assert_eq!(a2.outcome, AccessOutcome::BlockMiss);
    }

    #[test]
    fn direct_mapped_conflict_evicts() {
        let (mut ac, mut mem) = cache();
        let stride = ac.num_tads() * BLOCK_BYTES;
        let a = ac.access(0, &read(0), &mut mem);
        let b = ac.access(a.done_ps, &read(stride), &mut mem);
        assert_eq!(b.outcome, AccessOutcome::BlockMiss);
        let c = ac.access(b.done_ps, &read(0), &mut mem);
        assert_eq!(c.outcome, AccessOutcome::BlockMiss, "conflict must evict");
        assert!(ac.stats().evictions >= 1);
    }

    #[test]
    fn dirty_victim_written_back() {
        let (mut ac, mut mem) = cache();
        let stride = ac.num_tads() * BLOCK_BYTES;
        let w = Request {
            core: 0,
            pc: 0x400,
            addr: 0,
            is_write: true,
        };
        let a = ac.access(0, &w, &mut mem);
        let before = ac.stats().offchip_write_bytes;
        let b = ac.access(a.done_ps, &read(stride), &mut mem);
        assert_eq!(b.outcome, AccessOutcome::BlockMiss);
        assert_eq!(ac.stats().offchip_write_bytes - before, 64);
        assert_eq!(ac.stats().writeback_blocks, 1);
    }

    #[test]
    fn predicted_miss_overlaps_memory_access() {
        // Train the predictor to predict misses for a PC, then compare
        // the miss latency against an untrained (predicted-hit) miss:
        // prediction must shave off the serialized cache probe.
        let (mut ac, mut mem) = cache();
        let miss_pc = 0x8888;
        let mut t = 0;
        // Cold misses with predicted-hit: serialized.
        let serial = {
            let r = Request {
                core: 0,
                pc: miss_pc,
                addr: 0x100_0000,
                is_write: false,
            };
            let a = ac.access(t, &r, &mut mem);
            t = a.done_ps;
            a.critical_ps
        };
        // Train: many misses for this PC.
        for i in 1..20u64 {
            let r = Request {
                core: 0,
                pc: miss_pc,
                addr: 0x100_0000 + i * 1_000_000,
                is_write: false,
            };
            let a = ac.access(t, &r, &mut mem);
            t = a.done_ps;
        }
        let t_start = t + 10_000_000;
        let r = Request {
            core: 0,
            pc: miss_pc,
            addr: 0x900_0000,
            is_write: false,
        };
        let a = ac.access(t_start, &r, &mut mem);
        let parallel = a.critical_ps - t_start;
        assert!(
            parallel < serial,
            "predicted miss ({parallel} ps) should beat serialized miss ({serial} ps)"
        );
    }

    #[test]
    fn mp_stats_populate() {
        let (mut ac, mut mem) = cache();
        let mut t = 0;
        for i in 0..50u64 {
            let a = ac.access(t, &read(i * 64), &mut mem);
            t = a.done_ps;
        }
        let s = ac.stats();
        assert!(s.mp_correct + s.mp_false_hit + s.mp_false_miss == 50);
    }

    #[test]
    fn static_always_hit_config() {
        let mut ac = AlloyCache::new(AlloyConfig {
            miss_predictor: false,
            ..AlloyConfig::new(1 << 20)
        });
        let mut mem = MemPorts::paper_default();
        let a = ac.access(0, &read(0), &mut mem);
        assert_eq!(a.outcome, AccessOutcome::BlockMiss);
        assert_eq!(ac.stats().mp_correct, 0, "no predictor stats when disabled");
    }

    /// TAD index, tag and row placement equal the `/` and `%` formulas
    /// they replaced, at every preset size.
    #[test]
    fn placement_matches_division_reference() {
        for size in [1u64 << 20, 8 << 20, 96 << 20, 512 << 20, 8 << 30] {
            let ac = AlloyCache::new(AlloyConfig::new(size));
            let tads = ac.num_tads();
            assert_eq!(tads, size / 8192 * 112);
            for bn in [0, 1, tads - 1, tads, tads + 1, 987_654_321, u64::MAX / 64] {
                assert_eq!(ac.tad_div.divmod(bn), (bn / tads, bn % tads));
            }
            for tad in [0, 1, 111, 112, 113, tads / 2, tads - 1] {
                let reference = RowCol::new(tad / 112, (tad % 112) as u32 * TAD_BYTES);
                assert_eq!(ac.tad_loc(tad), reference, "tad {tad} of {tads}");
            }
        }
    }
}
