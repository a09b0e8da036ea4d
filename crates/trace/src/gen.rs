//! The synthetic trace engine.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::codec::Layout;
use crate::profile::{FunctionProfile, REGION_BLOCKS, REGION_BYTES};
use crate::record::{AccessKind, TraceRecord, BLOCK_BYTES};
use crate::spec::WorkloadSpec;
use crate::zipf::Zipf;

/// An infinite, deterministic post-L2 trace stream for one workload.
///
/// Construction is cheap (the function library, not the address space, is
/// materialized); records are produced on demand via `Iterator`. The same
/// `(spec, seed)` pair always yields the identical stream.
///
/// # Example
///
/// ```
/// use unison_trace::{workloads, WorkloadGen};
///
/// let gen = WorkloadGen::new(workloads::data_serving(), 7);
/// let records: Vec<_> = gen.take(1000).collect();
/// assert_eq!(records.len(), 1000);
/// ```
#[derive(Debug, Clone)]
pub struct WorkloadGen {
    spec: WorkloadSpec,
    rng: SmallRng,
    region_zipf: Zipf,
    fn_zipf: Zipf,
    functions: Vec<FunctionProfile>,
    /// Multiplier coprime to the region count; scatters popularity ranks
    /// across the physical address space so hot regions don't cluster
    /// into adjacent cache sets.
    perm_mult: u64,
    perm_add: u64,
    stream_cursor: u64,
    cores: Vec<CoreState>,
    rr_next: usize,
}

#[derive(Debug, Clone, Default)]
struct CoreState {
    visit: Option<Visit>,
}

#[derive(Debug, Clone)]
struct Visit {
    region: u64,
    pc: u64,
    /// The accessor's index in the function library, which is also the
    /// PC's index in [`WorkloadGen::layout`]'s PC table.
    fn_idx: u32,
    /// Blocks still to touch (bit per region block).
    remaining: u64,
    /// The trigger block, emitted first.
    trigger: u8,
    trigger_done: bool,
    /// Further consecutive regions this scan continues into.
    scan_left: u32,
}

impl WorkloadGen {
    /// Creates a generator for `spec`, deterministic in `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`WorkloadSpec::validate`].
    pub fn new(spec: WorkloadSpec, seed: u64) -> Self {
        if let Err(e) = spec.validate() {
            panic!("invalid workload spec for {}: {e}", spec.name);
        }
        let mut lib_rng = SmallRng::seed_from_u64(seed ^ 0xfeed_f00d_dead_beef);
        let functions: Vec<FunctionProfile> = (0..spec.n_functions)
            .map(|i| {
                FunctionProfile::generate(i, &spec.profile_mix, spec.offset_entropy, &mut lib_rng)
            })
            .collect();
        let region_count = spec.region_count();
        let perm_mult = coprime_near(region_count, (region_count as f64 * 0.618) as u64);
        let perm_add = seed % region_count;
        let hot = spec.hot_region_count();
        let cores = vec![CoreState::default(); spec.cores as usize];
        WorkloadGen {
            region_zipf: Zipf::new(hot, spec.zipf_theta),
            fn_zipf: Zipf::new(spec.n_functions as u64, spec.fn_zipf_theta),
            rng: SmallRng::seed_from_u64(seed),
            functions,
            perm_mult,
            perm_add,
            stream_cursor: 0,
            cores,
            rr_next: 0,
            spec,
        }
    }

    /// The workload specification driving this generator.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// The synthetic function library (exposed for tests and analysis).
    pub fn functions(&self) -> &[FunctionProfile] {
        &self.functions
    }

    /// A codec [`Layout`] every record of this stream fits, known before
    /// the first record: the PC table is the function library's PCs,
    /// addresses are block-aligned and below the footprint's last
    /// region, and a gap is at most what the smallest `1 - u` a uniform
    /// draw can take (2^-53) yields.
    ///
    /// Function `i`'s PC is `0x40_0000 + i * 0x40`, so the table's
    /// ascending order is the library's order: a record's PC-table index
    /// is its function's library index.
    pub fn layout(&self) -> Layout {
        Layout::new(
            self.functions.iter().map(|f| f.pc).collect(),
            BLOCK_BYTES.trailing_zeros(),
            self.spec.region_count() * REGION_BYTES - BLOCK_BYTES,
            igap_for(0.5f64.powi(53), f64::from(self.spec.mean_igap)),
        )
    }

    /// Maps a popularity rank (or streaming index) to a physical region.
    ///
    /// Placement hashes rather than permutes: real allocators scatter hot
    /// data with *binomial* per-set pressure, and it is exactly the lumps
    /// in that distribution that make direct-mapped page caches conflict
    /// (§III-A.5). An affine permutation would spread ranks too evenly
    /// and underrepresent conflicts. Occasional rank collisions (two
    /// ranks sharing a region) are harmless popularity jitter.
    fn place_region(&self, index: u64) -> u64 {
        let n = self.spec.region_count();
        let x = (index % n)
            .wrapping_mul(self.perm_mult)
            .wrapping_add(self.perm_add);
        // SplitMix64 finalizer.
        let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }

    fn start_visit(&mut self) -> Visit {
        let spec = &self.spec;
        let hot = spec.hot_region_count();
        let streaming = self.rng.gen::<f64>() < spec.stream_fraction && spec.region_count() > hot;
        let region_index = if streaming {
            // Streaming: march through the cold portion of the space.
            let cold = spec.region_count() - hot;
            let idx = hot + (self.stream_cursor % cold);
            self.stream_cursor += 1;
            idx
        } else {
            self.region_zipf.sample(&mut self.rng)
        };
        let region = self.place_region(region_index);

        // A region is owned by its accessor function: data structures are
        // touched by their own code, which is what makes footprints
        // predictable. A region-seeded RNG keeps the choice deterministic
        // per region while preserving the Zipf popularity of functions.
        // Streaming regions map the popularity rank to the *tail* of the
        // library, so scan code has its own (mostly-missing) PCs — which
        // is what makes Alloy's PC-indexed miss predictor effective.
        let mut region_rng = SmallRng::seed_from_u64(region.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let affine = self.rng.gen::<f64>() < spec.fn_region_affinity;
        let fn_idx = {
            let rank = if affine {
                self.fn_zipf.sample(&mut region_rng)
            } else {
                self.fn_zipf.sample(&mut self.rng)
            };
            if streaming {
                self.functions.len() as u64 - 1 - rank
            } else {
                rank
            }
        };
        let f = &self.functions[fn_idx as usize];
        let offset = if affine {
            f.offsets[region_rng.gen_range(0..f.offsets.len())]
        } else {
            f.offsets[self.rng.gen_range(0..f.offsets.len())]
        };
        let mut mask = f.mask_at(offset);
        // Dense scans continue across consecutive regions.
        let scan_left = if matches!(f.class, crate::profile::PatternClass::Dense { .. })
            && spec.scan_span > 0
        {
            self.rng.gen_range(0..=spec.scan_span)
        } else {
            0
        };

        // Per-visit noise: drop pattern blocks with probability
        // `pattern_noise`, and (rarely) touch a stray block. Additions are
        // kept much rarer than drops because a resident page's observed
        // footprint is the *union* over all its visits — symmetric
        // additions would accumulate into trained footprints across a
        // residency and destroy predictability far in excess of the
        // per-visit noise level. The trigger block is never dropped.
        let noise = spec.pattern_noise;
        if noise > 0.0 {
            let density = f64::from(mask.count_ones()) / f64::from(REGION_BLOCKS);
            let add_p = noise * density * 0.2;
            for b in 0..REGION_BLOCKS {
                let bit = 1u64 << b;
                if b == u32::from(offset) {
                    continue;
                }
                if mask & bit != 0 {
                    if self.rng.gen::<f64>() < noise {
                        mask &= !bit;
                    }
                } else if self.rng.gen::<f64>() < add_p {
                    mask |= bit;
                }
            }
        }

        Visit {
            region,
            pc: f.pc,
            fn_idx: fn_idx as u32,
            remaining: mask,
            trigger: offset,
            trigger_done: false,
            scan_left,
        }
    }

    /// Core `core`'s next record, with its PC-table index.
    ///
    /// Inlined into both callers: called out of line, it hands the
    /// record back through memory, which costs the freeze loop about a
    /// third of its time per record.
    #[inline(always)]
    fn emit(&mut self, core: usize) -> (TraceRecord, u32) {
        // Take (or refresh) the core's active visit.
        if self.cores[core].visit.is_none() {
            let v = self.start_visit();
            self.cores[core].visit = Some(v);
        }
        let spec_write = self.spec.write_fraction;
        let mean_igap = f64::from(self.spec.mean_igap);
        let u: f64 = self.rng.gen();
        let igap = igap_for(1.0 - u, mean_igap);
        let is_write = self.rng.gen::<f64>() < spec_write;

        let visit = self.cores[core].visit.as_mut().expect("visit just ensured");
        let block = if !visit.trigger_done {
            visit.trigger_done = true;
            visit.remaining &= !(1u64 << visit.trigger);
            u32::from(visit.trigger)
        } else {
            let b = visit.remaining.trailing_zeros();
            visit.remaining &= !(1u64 << b);
            b
        };
        let addr = visit.region * REGION_BYTES + u64::from(block) * BLOCK_BYTES;
        let rec = TraceRecord {
            core: core as u8,
            kind: if is_write {
                AccessKind::Write
            } else {
                AccessKind::Read
            },
            pc: visit.pc,
            addr,
            igap,
        };
        let fn_idx = visit.fn_idx;
        if visit.remaining == 0 {
            if visit.scan_left > 0 {
                // The scan rolls into the physically next region, covering
                // it densely from block 0.
                let next = (visit.region + 1) % self.spec.region_count();
                let scan_left = visit.scan_left - 1;
                let pc = visit.pc;
                self.cores[core].visit = Some(Visit {
                    region: next,
                    pc,
                    fn_idx,
                    remaining: u64::MAX,
                    trigger: 0,
                    trigger_done: false,
                    scan_left,
                });
            } else {
                self.cores[core].visit = None;
            }
        }
        (rec, fn_idx)
    }

    /// The stream's next record with its index in [`Self::layout`]'s PC
    /// table, so a packer needs no PC lookup.
    #[inline]
    pub(crate) fn next_indexed(&mut self) -> (TraceRecord, u32) {
        // Rotate through cores with random skips so per-core streams stay
        // ordered but globally interleave irregularly.
        let n = self.cores.len();
        let hop = self.rng.gen_range(1..=3usize);
        self.rr_next = (self.rr_next + hop) % n;
        self.emit(self.rr_next)
    }
}

impl Iterator for WorkloadGen {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<TraceRecord> {
        Some(self.next_indexed().0)
    }
}

/// The instruction gap for an exponential draw with mean `mean_igap`
/// from `one_minus_u` in `(0, 1]`: larger for smaller `one_minus_u`, and
/// at least 1.
fn igap_for(one_minus_u: f64, mean_igap: f64) -> u32 {
    (one_minus_u.ln().mul_add(-mean_igap, 1.0) as u32).max(1)
}

/// Finds a multiplier near `start` that is coprime to `n`.
fn coprime_near(n: u64, start: u64) -> u64 {
    fn gcd(a: u64, b: u64) -> u64 {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }
    if n <= 1 {
        return 1;
    }
    let mut c = start.max(1) | 1; // odd candidates first
    loop {
        if gcd(c % n, n) == 1 && !c.is_multiple_of(n) {
            return c % n;
        }
        c += 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;
    use std::collections::HashMap;

    #[test]
    fn coprime_near_finds_coprime() {
        for n in [10u64, 12, 17, 1024, 999_983, 50_331_648] {
            let c = coprime_near(n, (n as f64 * 0.618) as u64);
            let mut a = n;
            let mut b = c;
            while b != 0 {
                let t = a % b;
                a = b;
                b = t;
            }
            assert_eq!(a, 1, "gcd({n}, {c}) != 1");
        }
    }

    #[test]
    fn declared_layout_fits_every_record() {
        for spec in workloads::all() {
            let spec = spec.scaled(64);
            let gen = WorkloadGen::new(spec.clone(), 11);
            let layout = gen.layout();
            assert_eq!(layout.pcs().len(), spec.n_functions);
            let mut enc = crate::codec::Encoder::with_capacity(layout, 16, 20_000);
            for r in gen.take(20_000) {
                let index = enc.layout().index_of(r.pc);
                enc.push(&r, index); // panics on a record that does not fit
            }
        }
        // The widest gap comes from the smallest `1 - u` a draw yields.
        let u_max = ((1u64 << 53) - 1) as f64 / (1u64 << 53) as f64;
        assert_eq!(1.0 - u_max, 0.5f64.powi(53));
        assert_eq!(igap_for(1.0 - u_max, 550.0), 20_206);
        assert_eq!(igap_for(1.0, 550.0), 1);
    }

    #[test]
    fn pc_table_index_is_the_function_library_index() {
        for spec in workloads::all() {
            let gen = WorkloadGen::new(spec.scaled(64), 3);
            let layout = gen.layout();
            assert_eq!(layout.pcs().len(), gen.functions().len());
            for (i, f) in gen.functions().iter().enumerate() {
                assert_eq!(layout.pcs()[i], f.pc, "{}: function {i}", gen.spec().name);
            }
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a: Vec<_> = WorkloadGen::new(workloads::tpch(), 9).take(5000).collect();
        let b: Vec<_> = WorkloadGen::new(workloads::tpch(), 9).take(5000).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a: Vec<_> = WorkloadGen::new(workloads::web_search(), 1)
            .take(100)
            .collect();
        let b: Vec<_> = WorkloadGen::new(workloads::web_search(), 2)
            .take(100)
            .collect();
        assert_ne!(a, b);
    }

    #[test]
    fn addresses_stay_inside_footprint() {
        let spec = workloads::data_serving();
        let limit = spec.mem_footprint_bytes;
        for r in WorkloadGen::new(spec, 3).take(20_000) {
            assert!(r.addr < limit);
        }
    }

    #[test]
    fn all_cores_participate() {
        let spec = workloads::web_serving();
        let cores = spec.cores;
        let mut seen = vec![false; cores as usize];
        for r in WorkloadGen::new(spec, 4).take(5_000) {
            seen[r.core as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "some cores never issued: {seen:?}");
    }

    #[test]
    fn per_core_visits_touch_their_region_contiguously() {
        // Each core's consecutive records should frequently share a region
        // (spatial locality): group by core and count region runs.
        let spec = workloads::web_search();
        let mut last_region: HashMap<u8, u64> = HashMap::new();
        let mut same = 0u64;
        let mut total = 0u64;
        for r in WorkloadGen::new(spec, 5).take(50_000) {
            let region = r.addr / REGION_BYTES;
            if let Some(&prev) = last_region.get(&r.core) {
                total += 1;
                if prev == region {
                    same += 1;
                }
            }
            last_region.insert(r.core, region);
        }
        let frac = same as f64 / total as f64;
        assert!(frac > 0.5, "expected spatial runs, got {frac:.2}");
    }

    #[test]
    fn write_fraction_is_respected() {
        let spec = workloads::data_serving();
        let want = spec.write_fraction;
        let n = 100_000;
        let writes = WorkloadGen::new(spec, 6)
            .take(n)
            .filter(|r| r.kind.is_write())
            .count();
        let got = writes as f64 / n as f64;
        assert!((got - want).abs() < 0.02, "write fraction {got} vs {want}");
    }

    #[test]
    fn igap_mean_is_respected() {
        let spec = workloads::tpch();
        let want = f64::from(spec.mean_igap);
        let n = 100_000;
        let sum: u64 = WorkloadGen::new(spec, 8)
            .take(n)
            .map(|r| u64::from(r.igap))
            .sum();
        let got = sum as f64 / n as f64;
        assert!(
            (got - want).abs() / want < 0.05,
            "igap mean {got} vs {want}"
        );
    }

    #[test]
    fn hot_regions_recur() {
        // With Zipf reuse, some regions must appear many times.
        let spec = workloads::data_serving();
        let mut counts: HashMap<u64, u32> = HashMap::new();
        for r in WorkloadGen::new(spec, 10).take(100_000) {
            *counts.entry(r.addr / REGION_BYTES).or_default() += 1;
        }
        let max = counts.values().max().copied().unwrap_or(0);
        assert!(max > 50, "expected recurring hot regions, max count {max}");
    }
}
