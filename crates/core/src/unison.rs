//! Unison Cache — the paper's contribution (§III).
//!
//! A page-based, set-associative stacked-DRAM cache with:
//!
//! * **in-DRAM tags** (one tag per page, stored at the head of each DRAM
//!   row — Figures 2–3) so no SRAM tag array is needed at any capacity;
//! * **overlapped tag + data reads**: the 32 B set-metadata read and the
//!   64 B data read of the *predicted way* issue back-to-back to the same
//!   row, so a hit costs roughly one DRAM access plus two CPU cycles of
//!   metadata transfer (§III-A);
//! * **way prediction** (§III-A.6) to make 4-way associativity free in
//!   latency and bandwidth;
//! * **footprint prediction** (§III-A.1–3) to fetch only the blocks a
//!   page will actually use, and **singleton bypass** (§III-A.4) to avoid
//!   wasting a page frame on one-block footprints;
//! * **residue-arithmetic address mapping** (§III-A.7) for the
//!   non-power-of-two 960 B / 1984 B page sizes.

use serde::{Deserialize, Serialize};
use unison_dram::{cpu_cycles_to_ps, Op, Ps, RowCol};
use unison_predictors::{Footprint, FootprintTable, SingletonEntry, SingletonTable, WayPredictor};

use crate::divisor::Divisor;
use crate::layout::{unison_tag_read_bytes, UnisonRowLayout, ROW_BYTES};
use crate::meta::{MetaStore, PageMeta, Replacement};
use crate::model::{CacheAccess, DramCacheModel};
use crate::ports::MemPorts;
use crate::stats::CacheStats;
use crate::types::{AccessOutcome, Request, BLOCK_BYTES};

/// How the cache locates the correct way of a set.
///
/// Serialized by its CLI spelling (`"predict"`, `"parallel-fetch"`,
/// `"serial-tag-data"`) so scenario JSON files and sweep axis flags share
/// one vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WayPolicy {
    /// The paper's design: predict one way, read it alongside the tags.
    Predict,
    /// Ablation: read *all* ways alongside the tags (no predictor) — the
    /// "vast data overfetch" alternative §III-A.5 rejects.
    ParallelFetch,
    /// Ablation: read tags first, then the correct way — the
    /// "tags-then-data serialization" alternative §III-A.5 rejects.
    SerialTagData,
}

impl WayPolicy {
    /// Every policy, in display order.
    pub const ALL: [WayPolicy; 3] = [
        WayPolicy::Predict,
        WayPolicy::ParallelFetch,
        WayPolicy::SerialTagData,
    ];

    /// The policy's canonical (CLI and JSON) spelling.
    pub fn name(&self) -> &'static str {
        match self {
            WayPolicy::Predict => "predict",
            WayPolicy::ParallelFetch => "parallel-fetch",
            WayPolicy::SerialTagData => "serial-tag-data",
        }
    }

    /// Comma-joined list of all valid names, for error messages.
    pub fn valid_names() -> String {
        Self::ALL
            .iter()
            .map(|p| p.name())
            .collect::<Vec<_>>()
            .join(", ")
    }

    /// Parses a policy name (case-insensitive; `parallel` and `serial`
    /// are accepted shorthands).
    pub fn from_name(name: &str) -> Option<WayPolicy> {
        match name.trim().to_ascii_lowercase().as_str() {
            "predict" => Some(WayPolicy::Predict),
            "parallel-fetch" | "parallel" => Some(WayPolicy::ParallelFetch),
            "serial-tag-data" | "serial" => Some(WayPolicy::SerialTagData),
            _ => None,
        }
    }

    /// [`Self::from_name`] with an error that lists the valid names.
    ///
    /// # Errors
    ///
    /// Returns the full valid-name list when `name` matches no policy.
    pub fn parse(name: &str) -> Result<WayPolicy, String> {
        Self::from_name(name).ok_or_else(|| {
            format!(
                "unknown way policy {name:?} (valid policies: {})",
                Self::valid_names()
            )
        })
    }
}

impl Serialize for WayPolicy {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.name().to_string())
    }
}

impl Deserialize for WayPolicy {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        match v {
            serde::Value::Str(s) => Self::parse(s).map_err(serde::DeError::msg),
            other => Err(serde::DeError::msg(format!(
                "expected a way-policy name, got {}",
                other.kind()
            ))),
        }
    }
}

/// Configuration of a [`UnisonCache`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UnisonConfig {
    /// Stacked-DRAM capacity managed by the cache, in bytes.
    pub cache_bytes: u64,
    /// Blocks per page: 15 (960 B pages) or 31 (1984 B). Must be
    /// `2^n − 1` for the residue mapper.
    pub page_blocks: u32,
    /// Set associativity (1, 4, or 32 in the paper's experiments).
    pub assoc: u32,
    /// Way-location policy (the paper uses prediction).
    pub way_policy: WayPolicy,
    /// Fixed cache-controller overhead per request, in CPU cycles
    /// (request routing and the residue unit; the paper overlaps the
    /// residue computation with the L2 access, so this stays small).
    pub ctrl_overhead_cycles: u64,
    /// Capacity used for the way-predictor sizing rule (12-bit hash up
    /// to 4 GB, 16-bit above — §III-A.6). Defaults to `cache_bytes`;
    /// scaled experiment runs set the nominal paper-labeled size.
    pub nominal_bytes: u64,
}

impl UnisonConfig {
    /// The paper's default organization: 960 B pages, 4-way, way
    /// prediction (§IV-C.1).
    pub fn new(cache_bytes: u64) -> Self {
        UnisonConfig {
            cache_bytes,
            page_blocks: 15,
            assoc: 4,
            way_policy: WayPolicy::Predict,
            ctrl_overhead_cycles: 2,
            nominal_bytes: cache_bytes,
        }
    }

    /// Overrides the size used for the way-predictor sizing rule.
    #[must_use]
    pub fn with_nominal(mut self, nominal_bytes: u64) -> Self {
        self.nominal_bytes = nominal_bytes;
        self
    }

    /// The 1984 B-page variant evaluated in Table V.
    pub fn large_pages(cache_bytes: u64) -> Self {
        UnisonConfig {
            page_blocks: 31,
            ..UnisonConfig::new(cache_bytes)
        }
    }

    /// Same organization with a different associativity (Figure 5).
    #[must_use]
    pub fn with_assoc(mut self, assoc: u32) -> Self {
        self.assoc = assoc;
        self
    }

    /// Same organization with a different page size, given in **blocks**
    /// (must be `2^n − 1` for the residue mapper: 3, 7, 15, 31, 63 …
    /// i.e. 192 B, 448 B, 960 B, 1984 B, 4032 B pages).
    #[must_use]
    pub fn with_page_blocks(mut self, page_blocks: u32) -> Self {
        self.page_blocks = page_blocks;
        self
    }

    /// Same organization with a different way policy (ablations).
    #[must_use]
    pub fn with_way_policy(mut self, policy: WayPolicy) -> Self {
        self.way_policy = policy;
        self
    }
}

/// The Unison Cache design. See the [module docs](self) for the feature
/// inventory and the paper-section mapping.
///
/// Set metadata — tags, per-block present/demanded/dirty masks (the
/// paper's re-encoded block state, §III-A.2), LRU ages, and the
/// allocation-trigger `(PC, offset)` pairs — lives in a struct-of-arrays
/// [`MetaStore`] so the per-access probe/touch/victim walks run over
/// contiguous memory.
///
/// Every size an access divides by is fixed when the cache is built, so
/// each is a precomputed [`Divisor`]: the page split (the exact result of
/// the §III-A.7 residue unit, see [`crate::residue`]), the set index and
/// tag, a set's DRAM row, and a way's slot in its row when sets span
/// rows.
#[derive(Debug, Clone)]
pub struct UnisonCache {
    cfg: UnisonConfig,
    layout: UnisonRowLayout,
    /// Blocks per page.
    page_div: Divisor,
    /// Number of sets.
    set_div: Divisor,
    /// Sets per row (1 when sets span rows, where it is unused).
    row_div: Divisor,
    /// Pages per row: a way's slot in its row when sets span rows.
    way_div: Divisor,
    /// The controller overhead in picoseconds.
    ctrl_ps: Ps,
    meta: MetaStore,
    fp_table: FootprintTable,
    singletons: SingletonTable,
    wp: WayPredictor,
    stats: CacheStats,
}

impl UnisonCache {
    /// Builds the cache with paper-default predictor geometries.
    ///
    /// # Panics
    ///
    /// Panics if `page_blocks` is not of the form `2^n − 1`, or the
    /// geometry yields zero sets.
    pub fn new(cfg: UnisonConfig) -> Self {
        assert!(
            (cfg.page_blocks + 1).is_power_of_two(),
            "page_blocks must be 2^n - 1 for the residue mapper"
        );
        assert!(cfg.assoc >= 1, "associativity must be at least 1");
        let layout = UnisonRowLayout::new(cfg.page_blocks, cfg.assoc);
        let num_sets = layout.num_sets(cfg.cache_bytes);
        assert!(num_sets > 0, "cache too small for even one set");
        UnisonCache {
            layout,
            page_div: Divisor::new(u64::from(cfg.page_blocks)),
            set_div: Divisor::new(num_sets),
            row_div: Divisor::new(u64::from(layout.sets_per_row.max(1))),
            way_div: Divisor::new(u64::from(layout.pages_per_row)),
            ctrl_ps: cpu_cycles_to_ps(cfg.ctrl_overhead_cycles),
            meta: MetaStore::paged(num_sets, cfg.assoc, Replacement::AgingLru),
            fp_table: FootprintTable::paper_default(cfg.page_blocks),
            singletons: SingletonTable::paper_default(),
            // 2-bit entries hold at most 4 ways; larger associativities
            // (the Figure 5 hypothetical) degrade to way 0 prediction.
            wp: WayPredictor::for_cache_size(cfg.nominal_bytes, cfg.assoc.min(4)),
            stats: CacheStats::default(),
            cfg,
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &UnisonConfig {
        &self.cfg
    }

    /// The derived row layout.
    pub fn layout(&self) -> &UnisonRowLayout {
        &self.layout
    }

    /// Number of sets.
    pub fn num_sets(&self) -> u64 {
        self.set_div.get()
    }

    /// Where `set` lives in stacked DRAM, computed once per access.
    fn place(&self, set: u64) -> SetPlace {
        if self.layout.sets_per_row > 0 {
            let (row, slot) = self.row_div.divmod(set);
            let slot = slot as u32;
            let assoc = self.cfg.assoc;
            SetPlace {
                row,
                meta_col: slot * 16 * assoc,
                data_col: 16 * assoc * self.layout.sets_per_row
                    + slot * assoc * self.layout.page_bytes() as u32,
            }
        } else {
            // Hypothetical multi-row sets (32-way, Figure 5): timing is
            // approximated by addressing the set's first row.
            SetPlace {
                row: set,
                meta_col: 0,
                data_col: 0,
            }
        }
    }

    /// Stacked-DRAM location of a set's metadata region.
    fn meta_loc(&self, at: SetPlace) -> RowCol {
        RowCol::new(at.row, at.meta_col)
    }

    /// Stacked-DRAM location of a block within a way of a set.
    fn data_loc(&self, at: SetPlace, way: u32, block: u32) -> RowCol {
        if self.layout.sets_per_row > 0 {
            let col =
                at.data_col + way * self.layout.page_bytes() as u32 + block * BLOCK_BYTES as u32;
            debug_assert!(u64::from(col) + BLOCK_BYTES <= ROW_BYTES);
            RowCol::new(at.row, col)
        } else {
            let (_, slot) = self.way_div.divmod(u64::from(way));
            let col = (slot * self.layout.page_bytes() + u64::from(block) * BLOCK_BYTES)
                % (ROW_BYTES - BLOCK_BYTES);
            RowCol::new(at.row, col as u32)
        }
    }

    /// Physical byte address of `block` within `page`.
    fn block_phys_addr(&self, page: u64, block: u32) -> u64 {
        (page * u64::from(self.cfg.page_blocks) + u64::from(block)) * BLOCK_BYTES
    }

    /// Evicts the page in (set, way), writing back dirty blocks and
    /// training the footprint predictor with the observed footprint.
    /// Returns the time the eviction traffic completes.
    fn evict(&mut self, now: Ps, set: u64, at: SetPlace, way: u32, mem: &mut MemPorts) -> Ps {
        debug_assert!(self.meta.is_valid(set, way));
        // One gather from the SoA arrays covers the whole eviction: the
        // trigger identity and the demanded/predicted/dirty masks.
        let info = self.meta.eviction_info(set, way, self.cfg.page_blocks);
        let victim_page = self.meta.tag(set, way) * self.set_div.get() + set;
        let mut done = now;

        // The (PC, offset) pair and bit vectors are read from the row at
        // eviction (§III-A.6): one small metadata read, typically a row
        // buffer hit.
        let meta = mem.stacked.access(now, Op::Read, self.meta_loc(at), 8);
        done = done.max(meta.last_data_ps);
        self.stats.stacked_read_bytes += 8;

        // Dirty blocks: read out of the cache row, write back off-chip.
        let wb_done = mem.write_back(
            meta.last_data_ps,
            info.dirty.iter(),
            |b| self.data_loc(at, way, b),
            |b| self.block_phys_addr(victim_page, b),
        );
        done = done.max(wb_done);
        let wb_blocks = u64::from(info.dirty.len());
        self.stats.stacked_read_bytes += wb_blocks * BLOCK_BYTES;
        self.stats.offchip_write_bytes += wb_blocks * BLOCK_BYTES;
        self.stats.writeback_blocks += wb_blocks;

        // Train the footprint predictor with the actual footprint and
        // record the prediction-quality accounting (Table V).
        let q = self.fp_table.observe_eviction(&info);
        self.stats.fp_predicted_blocks += q.predicted_blocks;
        self.stats.fp_actual_blocks += q.actual_blocks;
        self.stats.fp_covered_blocks += q.covered_blocks;
        self.stats.fp_over_blocks += q.over_blocks;
        self.stats.evictions += 1;

        self.meta.invalidate(set, way);
        done
    }

    /// Fetches `mask` from off-chip memory into (set, way), critical
    /// (trigger) block first. Returns `(critical_ready, all_done)`.
    #[allow(clippy::too_many_arguments)]
    fn fetch_footprint(
        &mut self,
        now: Ps,
        page: u64,
        at: SetPlace,
        way: u32,
        trigger: u32,
        mask: Footprint,
        mem: &mut MemPorts,
    ) -> (Ps, Ps) {
        debug_assert!(mask.contains(trigger));
        let (crit, done) = mem.fill(
            now,
            std::iter::once(trigger).chain(mask.iter().filter(move |&b| b != trigger)),
            |b| self.block_phys_addr(page, b),
            |b| self.data_loc(at, way, b),
        );
        let blocks = u64::from(mask.len());
        self.stats.offchip_read_bytes += blocks * BLOCK_BYTES;
        self.stats.stacked_write_bytes += blocks * BLOCK_BYTES;
        self.stats.fill_blocks += blocks;
        (crit, done)
    }
}

impl DramCacheModel for UnisonCache {
    fn name(&self) -> &'static str {
        "Unison"
    }

    fn capacity_bytes(&self) -> u64 {
        self.cfg.cache_bytes
    }

    fn access(&mut self, now: Ps, req: &Request, mem: &mut MemPorts) -> CacheAccess {
        self.stats.accesses += 1;
        let t0 = now + self.ctrl_ps;
        let (page, offset) = self.page_div.divmod(req.block_number());
        let offset = offset as u32;
        let (tag, set) = self.set_div.divmod(page);
        let at = self.place(set);

        // Way prediction happens in the DRAM controller, off the critical
        // path (§III-A.6). The page hashes once; the probe result and any
        // install train the same entry.
        let wp_slot = matches!(self.cfg.way_policy, WayPolicy::Predict).then(|| self.wp.slot(page));
        let predicted_way = wp_slot.map_or(0, |slot| self.wp.predict(slot));

        // Metadata read: the tags + bit vectors of all ways (32 B for
        // 4 ways), always issued.
        let meta = mem.stacked.access(
            t0,
            Op::Read,
            self.meta_loc(at),
            unison_tag_read_bytes(self.cfg.assoc.min(self.layout.pages_per_row)),
        );
        self.stats.stacked_read_bytes += u64::from(unison_tag_read_bytes(self.cfg.assoc));
        let tag_known = meta.last_data_ps + cpu_cycles_to_ps(1); // tag compare

        // The overlapped data read(s), per way policy.
        let mut speculative_read_done = 0;
        match self.cfg.way_policy {
            WayPolicy::Predict => {
                let d = mem.stacked.access(
                    t0,
                    Op::Read,
                    self.data_loc(at, predicted_way, offset),
                    BLOCK_BYTES as u32,
                );
                self.stats.stacked_read_bytes += BLOCK_BYTES;
                speculative_read_done = d.last_data_ps;
            }
            WayPolicy::ParallelFetch => {
                let ways = self.cfg.assoc.min(self.layout.pages_per_row);
                mem.stacked.access_train(
                    Op::Read,
                    BLOCK_BYTES as u32,
                    (0..ways).map(|w| (t0, self.data_loc(at, w, offset))),
                    |d| speculative_read_done = speculative_read_done.max(d.last_data_ps),
                );
                self.stats.stacked_read_bytes += u64::from(ways) * BLOCK_BYTES;
            }
            WayPolicy::SerialTagData => {} // data read issued after tags
        }

        let found = self.meta.probe_set(set, tag);

        // Way-predictor bookkeeping: accuracy is defined over accesses to
        // resident pages (a prediction is "correct" when the page is
        // found in the predicted way). The predictor consumes the probe
        // result directly.
        if let (Some(slot), Some(w)) = (wp_slot, found) {
            self.stats.wp_lookups += 1;
            if self.wp.observe_probe(slot, predicted_way, w) {
                self.stats.wp_correct += 1;
            }
        }

        let access = match found {
            Some(way) => {
                let block_bit = 1u32 << offset;
                if self.meta.present(set, way) & block_bit != 0 {
                    // ---- HIT ----
                    let data_ready = match self.cfg.way_policy {
                        WayPolicy::Predict => {
                            if way == predicted_way {
                                speculative_read_done.max(tag_known)
                            } else {
                                // Mispredict: re-read the correct way; the
                                // row is open, so this is a cheap row hit.
                                let d = mem.stacked.access(
                                    tag_known,
                                    Op::Read,
                                    self.data_loc(at, way, offset),
                                    BLOCK_BYTES as u32,
                                );
                                self.stats.stacked_read_bytes += BLOCK_BYTES;
                                d.last_data_ps
                            }
                        }
                        WayPolicy::ParallelFetch => speculative_read_done.max(tag_known),
                        WayPolicy::SerialTagData => {
                            let d = mem.stacked.access(
                                tag_known,
                                Op::Read,
                                self.data_loc(at, way, offset),
                                BLOCK_BYTES as u32,
                            );
                            self.stats.stacked_read_bytes += BLOCK_BYTES;
                            d.last_data_ps
                        }
                    };
                    let mut meta_dirty = false;
                    if self.meta.demanded(set, way) & block_bit == 0 {
                        self.meta.or_demanded(set, way, block_bit);
                        meta_dirty = true;
                    }
                    if req.is_write && self.meta.dirty(set, way) & block_bit == 0 {
                        self.meta.or_dirty(set, way, block_bit);
                        meta_dirty = true;
                    }
                    let mut done = data_ready;
                    if req.is_write {
                        // Store data into the row (background).
                        let w = mem.stacked.access(
                            data_ready,
                            Op::Write,
                            self.data_loc(at, way, offset),
                            BLOCK_BYTES as u32,
                        );
                        self.stats.stacked_write_bytes += BLOCK_BYTES;
                        done = done.max(w.last_data_ps);
                    }
                    if meta_dirty {
                        // Bit-vector update: coalesced in the controller's
                        // write queue and drained opportunistically, so it
                        // is charged as traffic but not as a timed access
                        // (an immediate write would charge a spurious
                        // write-to-read turnaround on every hit).
                        self.stats.stacked_write_bytes += 8;
                    }
                    self.stats.hits += 1;
                    CacheAccess {
                        outcome: AccessOutcome::Hit,
                        critical_ps: data_ready,
                        done_ps: done,
                    }
                } else {
                    // ---- UNDERPREDICTION MISS ---- (§III-A.3: page
                    // resident, block missing; fetch just the block).
                    let oc = mem.offchip.access_addr(
                        tag_known,
                        Op::Read,
                        self.block_phys_addr(page, offset),
                        BLOCK_BYTES as u32,
                    );
                    self.stats.offchip_read_bytes += BLOCK_BYTES;
                    let fill = mem.stacked.access(
                        oc.last_data_ps,
                        Op::Write,
                        self.data_loc(at, way, offset),
                        BLOCK_BYTES as u32,
                    );
                    self.stats.stacked_write_bytes += BLOCK_BYTES;
                    self.stats.fill_blocks += 1;
                    // Bit-vector update rides the write queue (see hit path).
                    self.stats.stacked_write_bytes += 8;
                    self.meta.or_present(set, way, block_bit);
                    self.meta.or_demanded(set, way, block_bit);
                    if req.is_write {
                        self.meta.or_dirty(set, way, block_bit);
                    }
                    self.stats.underprediction_misses += 1;
                    CacheAccess {
                        outcome: AccessOutcome::UnderpredictionMiss,
                        critical_ps: oc.first_data_ps,
                        done_ps: fill.last_data_ps,
                    }
                }
            }
            None => {
                // ---- TRIGGER MISS ---- (§III-A.3/4).
                // Singleton-table correction: a previously bypassed page
                // touched at a *different* block was not a singleton.
                let singleton_info = self.singletons.lookup(page);
                let corrected = match singleton_info {
                    Some(s) if s.block != offset => {
                        let mut fp = Footprint::single(s.block, self.cfg.page_blocks);
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
                    // Bypass: forward the block, allocate nothing.
                    let oc = mem.offchip.access_addr(
                        tag_known,
                        Op::Read,
                        self.block_phys_addr(page, offset),
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
                    // Allocate: evict the LRU way, fetch the footprint.
                    let way = self.meta.evict_victim(set);
                    let mut evict_done = tag_known;
                    if self.meta.is_valid(set, way) {
                        evict_done = self.evict(tag_known, set, at, way, mem);
                    }
                    // No history => conservative full-page default.
                    let mut fetch =
                        predicted_fp.unwrap_or_else(|| Footprint::full(self.cfg.page_blocks));
                    fetch.insert(offset);

                    let (crit, fill_done) =
                        self.fetch_footprint(tag_known, page, at, way, offset, fetch, mem);

                    // Install metadata (tag, bit vectors, PC+offset): one
                    // 16 B write riding the write queue with the fills.
                    self.stats.stacked_write_bytes += 16;

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
                    if let Some(slot) = wp_slot {
                        self.wp.update(slot, way.min(3));
                    }
                    self.meta.touch(set, way, 0);
                    self.stats.trigger_misses += 1;
                    return self.finish(
                        now,
                        CacheAccess {
                            outcome: AccessOutcome::TriggerMiss,
                            critical_ps: crit,
                            done_ps: fill_done.max(evict_done),
                        },
                    );
                }
            }
        };

        if let Some(way) = found {
            self.meta.touch(set, way, 0);
        }
        self.finish(now, access)
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
        self.wp.reset_stats();
    }
}

/// A set's DRAM row and the columns of its metadata and first page.
#[derive(Debug, Clone, Copy)]
struct SetPlace {
    row: u64,
    meta_col: u32,
    data_col: u32,
}

impl UnisonCache {
    fn finish(&mut self, now: Ps, a: CacheAccess) -> CacheAccess {
        self.stats.critical_latency_sum_ps += a.critical_ps.saturating_sub(now);
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache() -> (UnisonCache, MemPorts) {
        // 1 MB cache: 128 rows, 256 sets of 4 ways.
        (
            UnisonCache::new(UnisonConfig::new(1 << 20)),
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

    fn write(addr: u64) -> Request {
        Request {
            core: 0,
            pc: 0x400,
            addr,
            is_write: true,
        }
    }

    #[test]
    fn cold_access_is_trigger_miss_then_hit() {
        let (mut uc, mut mem) = small_cache();
        let a1 = uc.access(0, &read(0x10000), &mut mem);
        assert_eq!(a1.outcome, AccessOutcome::TriggerMiss);
        let a2 = uc.access(a1.done_ps, &read(0x10000), &mut mem);
        assert_eq!(a2.outcome, AccessOutcome::Hit);
        assert_eq!(uc.stats().hits, 1);
        assert_eq!(uc.stats().trigger_misses, 1);
    }

    #[test]
    fn full_page_default_makes_neighbors_hit() {
        // With no footprint history the whole page is fetched, so a
        // different block of the same page hits.
        let (mut uc, mut mem) = small_cache();
        let a1 = uc.access(0, &read(0), &mut mem);
        assert_eq!(a1.outcome, AccessOutcome::TriggerMiss);
        let a2 = uc.access(a1.done_ps, &read(5 * 64), &mut mem);
        assert_eq!(a2.outcome, AccessOutcome::Hit);
    }

    #[test]
    fn hit_latency_well_below_miss_latency() {
        let (mut uc, mut mem) = small_cache();
        let a1 = uc.access(0, &read(0x40000), &mut mem);
        let t = a1.done_ps + 1_000_000;
        let a2 = uc.access(t, &read(0x40000), &mut mem);
        let miss_lat = a1.critical_ps;
        let hit_lat = a2.critical_ps - t;
        assert!(
            hit_lat * 2 < miss_lat,
            "hit {hit_lat} ps should be far below miss {miss_lat} ps"
        );
    }

    #[test]
    fn hit_latency_is_about_60_cpu_cycles() {
        // §V.B: "~60 cycles it takes to access DRAM". Cold-bank hit:
        // ACT + CAS + burst + 2 cycles tags + compare + ctrl.
        let (mut uc, mut mem) = small_cache();
        let a1 = uc.access(0, &read(0x40000), &mut mem);
        let t = a1.done_ps + 10_000_000; // bank long precharged? rows stay open; fine
        let a2 = uc.access(t, &read(0x40000), &mut mem);
        let hit_cycles = unison_dram::ps_to_cpu_cycles(a2.critical_ps - t);
        assert!(
            (20..=90).contains(&hit_cycles),
            "hit latency {hit_cycles} cycles out of plausible range"
        );
    }

    #[test]
    fn dirty_eviction_writes_back() {
        // Fill one set's 4 ways plus one more page mapping to the same
        // set; the LRU victim's dirty blocks must be written back.
        let (mut uc, mut mem) = small_cache();
        let sets = uc.num_sets();
        let page_bytes = 960u64;
        // Pages that map to set 0: page = k * sets.
        let mut t = 0;
        let a = uc.access(t, &write(0), &mut mem);
        t = a.done_ps;
        for k in 1..=4u64 {
            let addr = k * sets * page_bytes;
            let a = uc.access(t, &read(addr), &mut mem);
            t = a.done_ps;
        }
        assert!(uc.stats().evictions >= 1);
        assert!(uc.stats().writeback_blocks >= 1);
        assert!(uc.stats().offchip_write_bytes >= 64);
    }

    #[test]
    fn footprint_is_learned_after_eviction() {
        // Touch two blocks of a page, evict it, then re-trigger with the
        // same PC/offset: only those two blocks should be fetched.
        let (mut uc, mut mem) = small_cache();
        let sets = uc.num_sets();
        let page_bytes = 960u64;
        let mut t = 0;
        // Visit page 0: blocks 2 and 5, trigger offset 2.
        let a = uc.access(t, &read(2 * 64), &mut mem);
        t = a.done_ps;
        let a = uc.access(t, &read(5 * 64), &mut mem);
        t = a.done_ps;
        // Evict page 0 by filling set 0 with 4 conflicting pages.
        for k in 1..=4u64 {
            let a = uc.access(t, &read(k * sets * page_bytes + 2 * 64), &mut mem);
            t = a.done_ps;
        }
        assert!(uc.stats().evictions >= 1);
        let fills_before = uc.stats().fill_blocks;
        // Re-trigger page 0 at offset 2 with the same PC: prediction
        // should fetch exactly {2, 5}.
        let a = uc.access(t, &read(2 * 64), &mut mem);
        assert_eq!(a.outcome, AccessOutcome::TriggerMiss);
        assert_eq!(uc.stats().fill_blocks - fills_before, 2);
    }

    #[test]
    fn singleton_prediction_bypasses_allocation() {
        let (mut uc, mut mem) = small_cache();
        let sets = uc.num_sets();
        let page_bytes = 960u64;
        let pc_single = 0x9000;
        let mut t = 0;
        // Teach the predictor that pc_single touches exactly one block:
        // visit a page once, then evict it.
        let touch = Request {
            core: 0,
            pc: pc_single,
            addr: 7 * 64,
            is_write: false,
        };
        let a = uc.access(t, &touch, &mut mem);
        t = a.done_ps;
        for k in 1..=4u64 {
            let a = uc.access(t, &read(k * sets * page_bytes + 7 * 64), &mut mem);
            t = a.done_ps;
        }
        // New page, same (pc, offset=7): should bypass.
        let fresh = Request {
            core: 0,
            pc: pc_single,
            addr: 10 * sets * page_bytes + 7 * 64,
            is_write: false,
        };
        let a = uc.access(t, &fresh, &mut mem);
        assert_eq!(a.outcome, AccessOutcome::SingletonBypass);
        assert_eq!(uc.stats().singleton_bypasses, 1);
    }

    #[test]
    fn singleton_correction_promotes_page() {
        let (mut uc, mut mem) = small_cache();
        let sets = uc.num_sets();
        let page_bytes = 960u64;
        let pc = 0xa000;
        let mut t = 0;
        // Teach singleton for (pc, offset 3).
        let r1 = Request {
            core: 0,
            pc,
            addr: 3 * 64,
            is_write: false,
        };
        let a = uc.access(t, &r1, &mut mem);
        t = a.done_ps;
        for k in 1..=4u64 {
            let a = uc.access(t, &read(k * sets * page_bytes + 3 * 64), &mut mem);
            t = a.done_ps;
        }
        // Bypass a fresh page.
        let base = 20 * sets * page_bytes;
        let r2 = Request {
            core: 0,
            pc,
            addr: base + 3 * 64,
            is_write: false,
        };
        let a = uc.access(t, &r2, &mut mem);
        assert_eq!(a.outcome, AccessOutcome::SingletonBypass);
        t = a.done_ps;
        // Touch a *different* block of the bypassed page: correction
        // kicks in and the page is allocated this time.
        let r3 = Request {
            core: 0,
            pc,
            addr: base + 9 * 64,
            is_write: false,
        };
        let a = uc.access(t, &r3, &mut mem);
        assert_eq!(a.outcome, AccessOutcome::TriggerMiss);
        t = a.done_ps;
        // Both blocks now resident.
        let a = uc.access(
            t,
            &Request {
                core: 0,
                pc,
                addr: base + 3 * 64,
                is_write: false,
            },
            &mut mem,
        );
        assert_eq!(a.outcome, AccessOutcome::Hit);
    }

    #[test]
    fn way_predictor_accuracy_high_on_repeated_pages() {
        let (mut uc, mut mem) = small_cache();
        let mut t = 0;
        // Allocate a page then hammer it.
        for i in 0..50u64 {
            let a = uc.access(t, &read((i % 10) * 64), &mut mem);
            t = a.done_ps;
        }
        let s = uc.stats();
        assert!(s.wp_lookups > 0);
        assert!(
            s.wp_accuracy() > 0.9,
            "repeated-page stream should predict well, got {}",
            s.wp_accuracy()
        );
    }

    #[test]
    fn direct_mapped_config_works() {
        let mut uc = UnisonCache::new(UnisonConfig::new(1 << 20).with_assoc(1));
        let mut mem = MemPorts::paper_default();
        let a = uc.access(0, &read(0), &mut mem);
        assert_eq!(a.outcome, AccessOutcome::TriggerMiss);
        let a = uc.access(a.done_ps, &read(0), &mut mem);
        assert_eq!(a.outcome, AccessOutcome::Hit);
    }

    #[test]
    fn thirty_two_way_config_works() {
        let mut uc = UnisonCache::new(UnisonConfig::new(1 << 20).with_assoc(32));
        let mut mem = MemPorts::paper_default();
        let a = uc.access(0, &read(0), &mut mem);
        assert_eq!(a.outcome, AccessOutcome::TriggerMiss);
        let a = uc.access(a.done_ps, &read(0), &mut mem);
        assert_eq!(a.outcome, AccessOutcome::Hit);
    }

    #[test]
    fn conflicting_pages_coexist_with_associativity() {
        // Four pages mapping to one set must all be resident in a 4-way
        // cache (they'd thrash a direct-mapped one).
        let (mut uc, mut mem) = small_cache();
        let sets = uc.num_sets();
        let page_bytes = 960u64;
        let mut t = 0;
        for k in 0..4u64 {
            let a = uc.access(t, &read(k * sets * page_bytes), &mut mem);
            t = a.done_ps;
            assert_eq!(a.outcome, AccessOutcome::TriggerMiss);
        }
        for k in 0..4u64 {
            let a = uc.access(t, &read(k * sets * page_bytes), &mut mem);
            t = a.done_ps;
            assert_eq!(a.outcome, AccessOutcome::Hit, "page {k} evicted too early");
        }
        assert_eq!(uc.stats().evictions, 0);
    }

    #[test]
    fn write_hit_marks_dirty_and_writes_stacked() {
        let (mut uc, mut mem) = small_cache();
        let a = uc.access(0, &read(0x800), &mut mem);
        let before = uc.stats().stacked_write_bytes;
        let a2 = uc.access(a.done_ps, &write(0x800), &mut mem);
        assert_eq!(a2.outcome, AccessOutcome::Hit);
        assert!(uc.stats().stacked_write_bytes > before);
    }

    #[test]
    fn large_page_config_matches_layout() {
        let uc = UnisonCache::new(UnisonConfig::large_pages(1 << 20));
        assert_eq!(uc.layout().page_blocks, 31);
        assert_eq!(uc.layout().blocks_per_row, 124);
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let (mut uc, mut mem) = small_cache();
        let a = uc.access(0, &read(0), &mut mem);
        uc.reset_stats();
        assert_eq!(uc.stats().accesses, 0);
        let a2 = uc.access(a.done_ps, &read(0), &mut mem);
        assert_eq!(
            a2.outcome,
            AccessOutcome::Hit,
            "contents must survive reset"
        );
    }

    #[test]
    #[should_panic(expected = "2^n - 1")]
    fn bad_page_blocks_panics() {
        let _ = UnisonCache::new(UnisonConfig {
            page_blocks: 16,
            ..UnisonConfig::new(1 << 20)
        });
    }

    #[test]
    fn way_policy_names_round_trip() {
        for p in WayPolicy::ALL {
            assert_eq!(WayPolicy::from_name(p.name()), Some(p), "{}", p.name());
        }
        assert_eq!(
            WayPolicy::from_name("Parallel"),
            Some(WayPolicy::ParallelFetch)
        );
        assert_eq!(
            WayPolicy::from_name("serial"),
            Some(WayPolicy::SerialTagData)
        );
        let e = WayPolicy::parse("bogus").unwrap_err();
        for p in WayPolicy::ALL {
            assert!(e.contains(p.name()), "error {e:?} missing {}", p.name());
        }
    }

    #[test]
    fn with_page_blocks_builds_the_large_page_variant() {
        assert_eq!(
            UnisonConfig::new(1 << 30).with_page_blocks(31),
            UnisonConfig::large_pages(1 << 30)
        );
    }

    /// The placement computed once per access equals the `/` and `%`
    /// formulas it replaced, for every geometry the experiments build
    /// (960 B and 1984 B pages, 1-way, 4-way and the multi-row 32-way
    /// sets) plus page sizes whose sets or pages per row are not powers
    /// of two.
    #[test]
    fn placement_matches_division_reference() {
        let shapes = [
            (15, 4),
            (31, 4),
            (15, 1),
            (15, 32),
            (31, 32),
            (3, 4),
            (7, 2),
            (63, 1),
            (7, 32),
            (3, 64),
        ];
        for (blocks, assoc) in shapes {
            for size in [1u64 << 20, 8 << 20, 96 << 20, 1 << 30, 8 << 30] {
                let uc = UnisonCache::new(
                    UnisonConfig::new(size)
                        .with_page_blocks(blocks)
                        .with_assoc(assoc),
                );
                let l = *uc.layout();
                let sets = uc.num_sets();
                assert_eq!(sets, l.num_sets(size));
                for set in [0, 1, sets / 3, sets / 2 + 1, sets - 1] {
                    let at = uc.place(set);
                    for way in 0..assoc {
                        for block in [0, blocks / 2, blocks - 1] {
                            let (meta, data) = if l.sets_per_row > 0 {
                                let spr = u64::from(l.sets_per_row);
                                let (row, slot) = (set / spr, (set % spr) as u32);
                                let page_idx = slot * assoc + way;
                                let col = 16 * assoc * l.sets_per_row
                                    + page_idx * l.page_bytes() as u32
                                    + block * 64;
                                (RowCol::new(row, slot * 16 * assoc), RowCol::new(row, col))
                            } else {
                                let col = (u64::from(way % l.pages_per_row) * l.page_bytes()
                                    + u64::from(block) * 64)
                                    % (ROW_BYTES - 64);
                                (RowCol::new(set, 0), RowCol::new(set, col as u32))
                            };
                            assert_eq!(uc.meta_loc(at), meta, "{blocks}x{assoc} set {set}");
                            assert_eq!(
                                uc.data_loc(at, way, block),
                                data,
                                "{blocks}x{assoc} set {set} way {way} block {block}"
                            );
                        }
                    }
                }
                for bn in [0, 1, u64::from(blocks), 123_456_789, u64::MAX / 64] {
                    let page = bn / u64::from(blocks);
                    assert_eq!(uc.page_div.divmod(bn), (page, bn % u64::from(blocks)));
                    assert_eq!(uc.set_div.divmod(page), (page / sets, page % sets));
                }
            }
        }
    }
}
