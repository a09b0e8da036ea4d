//! Experiment runner: (design, size, workload) → [`RunResult`].

use serde::{Deserialize, Serialize};
use unison_core::{
    AlloyCache, AlloyConfig, DramCacheModel, FootprintCache, FootprintConfig, IdealCache, NoCache,
    UnisonCache, UnisonConfig,
};
use unison_trace::{artifact_key, TraceArtifact, TraceRecord, WorkloadGen, WorkloadSpec};

use crate::metrics::RunResult;
use crate::scenario::SystemSpec;
use crate::system::{Buffered, DispatchSession, RecordSource, System, FILLER};

/// The cache designs the experiments compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Design {
    /// Alloy Cache (block-based baseline).
    Alloy,
    /// Footprint Cache (page-based baseline, SRAM tags).
    Footprint,
    /// Unison Cache, 960 B pages, 4-way (the paper's default).
    Unison,
    /// Unison Cache with 1984 B pages (Table V variant).
    Unison1984,
    /// Unison Cache with explicit associativity (Figure 5).
    UnisonAssoc(u32),
    /// The ideal 100%-hit reference.
    Ideal,
    /// No DRAM cache (speedup baseline).
    NoCache,
}

impl Design {
    /// Display name matching the paper's figures.
    pub fn name(&self) -> String {
        match self {
            Design::Alloy => "Alloy".into(),
            Design::Footprint => "Footprint".into(),
            Design::Unison => "Unison".into(),
            Design::Unison1984 => "Unison-1984B".into(),
            Design::UnisonAssoc(w) => format!("Unison-{w}way"),
            Design::Ideal => "Ideal".into(),
            Design::NoCache => "NoCache".into(),
        }
    }

    /// The valid CLI spellings, for error messages.
    pub const VALID_NAMES: &'static str =
        "alloy, footprint, unison, unison1984, unison-<N>way, ideal, nocache";

    /// [`Design::from_name`] with an error that lists the valid names.
    ///
    /// # Errors
    ///
    /// Returns the full valid-name list when `name` matches no design.
    pub fn parse(name: &str) -> Result<Design, String> {
        Self::from_name(name).ok_or_else(|| {
            format!(
                "unknown design {name:?} (valid designs: {})",
                Self::VALID_NAMES
            )
        })
    }

    /// Parses a design from a user-facing name (CLI spelling). Accepts
    /// the display names of [`Design::name`] case-insensitively plus the
    /// shorthands `unison-<N>way` and `unison1984`.
    pub fn from_name(name: &str) -> Option<Design> {
        let lower = name.trim().to_ascii_lowercase();
        match lower.as_str() {
            "alloy" => Some(Design::Alloy),
            "footprint" => Some(Design::Footprint),
            "unison" => Some(Design::Unison),
            "unison1984" | "unison-1984" | "unison-1984b" => Some(Design::Unison1984),
            "ideal" => Some(Design::Ideal),
            "nocache" | "no-cache" | "none" => Some(Design::NoCache),
            _ => {
                let ways = lower.strip_prefix("unison-")?.strip_suffix("way")?;
                // 0 ways would assert deep inside UnisonCache::new; reject
                // it here so CLIs report a clean unknown-design error.
                ways.parse()
                    .ok()
                    .filter(|&w| w >= 1)
                    .map(Design::UnisonAssoc)
            }
        }
    }

    /// Instantiates the design at `cache_bytes` on the default system.
    pub fn build(&self, cache_bytes: u64) -> Box<dyn DramCacheModel> {
        self.build_scaled(cache_bytes, cache_bytes, &SystemSpec::default())
    }

    /// The Unison-family cache geometry this design runs under `system`:
    /// the scenario's overrides fill whatever the design variant does not
    /// itself pin (`Unison1984` keeps its 1984 B pages, `UnisonAssoc`
    /// its way count), and the paper defaults fill the rest. Plain
    /// `Design::Unison` takes all three knobs from the scenario.
    fn unison_config(&self, scaled_bytes: u64, system: &SystemSpec) -> UnisonConfig {
        let base = UnisonConfig::new(scaled_bytes);
        let page_blocks = system
            .page_blocks()
            .unwrap_or(crate::scenario::DEFAULT_PAGE_BYTES / 64);
        let ways = system.ways.unwrap_or(crate::scenario::DEFAULT_WAYS);
        let policy = system.way_policy.unwrap_or(base.way_policy);
        let cfg = base
            .with_page_blocks(page_blocks)
            .with_assoc(ways)
            .with_way_policy(policy);
        match self {
            Design::Unison1984 => cfg.with_page_blocks(31),
            Design::UnisonAssoc(w) => cfg.with_assoc(*w),
            _ => cfg,
        }
    }

    /// The page size (bytes), ways, and way policy this design **actually
    /// runs** under `system` — the design variant's pinned knobs win over
    /// the scenario's overrides, exactly as [`Design::build_scaled`]
    /// resolves them. `None` for designs the geometry knobs do not apply
    /// to (Alloy, Footprint, Ideal, NoCache). Result sinks use this so
    /// their geometry columns describe the simulated cache, not merely
    /// the requested overrides.
    pub fn unison_geometry(
        &self,
        system: &SystemSpec,
    ) -> Option<(u32, u32, unison_core::WayPolicy)> {
        match self {
            Design::Unison | Design::Unison1984 | Design::UnisonAssoc(_) => {
                // The three knobs are capacity-independent; the size fed
                // here never reaches the caller.
                let cfg = self.unison_config(1 << 20, system);
                Some((cfg.page_blocks * 64, cfg.assoc, cfg.way_policy))
            }
            _ => None,
        }
    }

    /// Instantiates the design at the *scaled* capacity while deriving
    /// size-dependent structures (Footprint Cache's SRAM tag latency, the
    /// way-predictor sizing rule) from the *nominal* paper-labeled size —
    /// those latencies are the effect under study and must not shrink
    /// with the fast-run scale factor. Cache-geometry overrides come from
    /// `system` ([`SystemSpec`]); they apply to the Unison family (page
    /// size, ways, way policy) and leave the block-based Alloy and the
    /// SRAM-tag Footprint baselines at their published organizations.
    pub fn build_scaled(
        &self,
        scaled_bytes: u64,
        nominal_bytes: u64,
        system: &SystemSpec,
    ) -> Box<dyn DramCacheModel> {
        match self {
            Design::Alloy => Box::new(AlloyCache::new(AlloyConfig::new(scaled_bytes))),
            Design::Footprint => Box::new(FootprintCache::new(
                FootprintConfig::new(scaled_bytes).with_nominal(nominal_bytes),
            )),
            Design::Unison | Design::Unison1984 | Design::UnisonAssoc(_) => {
                Box::new(UnisonCache::new(
                    self.unison_config(scaled_bytes, system)
                        .with_nominal(nominal_bytes),
                ))
            }
            Design::Ideal => Box::new(IdealCache::new(scaled_bytes)),
            Design::NoCache => Box::new(NoCache::new()),
        }
    }
}

/// Simulation-scale parameters shared by all experiments, plus the
/// [`SystemSpec`] naming the machine the experiment simulates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Total trace records per run (warmup + measurement).
    pub accesses: u64,
    /// Fraction of records used for warmup (statistics discarded). The
    /// paper uses two thirds of each trace (§IV-A).
    pub warmup_fraction: f64,
    /// The simulated machine: core count/model, cache geometry
    /// overrides, DRAM device presets. [`SystemSpec::default`] is the
    /// paper's Table III system.
    pub system: SystemSpec,
    /// Trace seed.
    pub seed: u64,
    /// Divide workload footprints *and* cache sizes by this factor to
    /// trade fidelity for runtime; shapes are preserved because cache
    /// and working set shrink together (see "Scale substitution and
    /// workload calibration" in the repository README).
    pub scale: u64,
}

impl SimConfig {
    /// Full-fidelity defaults (slow; used for final EXPERIMENTS.md runs).
    pub fn full() -> Self {
        SimConfig {
            accesses: 24_000_000,
            warmup_fraction: 2.0 / 3.0,
            system: SystemSpec::default(),
            seed: 42,
            scale: 1,
        }
    }

    /// Bench defaults: ÷8 scale, enough accesses for steady state at the
    /// scaled sizes.
    pub fn bench_default() -> Self {
        SimConfig {
            accesses: 6_000_000,
            warmup_fraction: 2.0 / 3.0,
            system: SystemSpec::default(),
            seed: 42,
            scale: 8,
        }
    }

    /// Tiny runs for unit/integration tests.
    pub fn quick_test() -> Self {
        SimConfig {
            accesses: 120_000,
            warmup_fraction: 0.5,
            system: SystemSpec::default(),
            seed: 42,
            scale: 64,
        }
    }

    /// Applies the scale factor to a nominal (paper-labeled) cache size.
    pub fn scaled_cache_bytes(&self, nominal: u64) -> u64 {
        (nominal / self.scale).max(1 << 20)
    }

    /// Trace length for a run against a cache of `scaled_bytes`: at least
    /// the configured floor, and enough that the warmup region can fill
    /// the cache about twice over (≈ one 64 B block fetched per access),
    /// so the measurement region sees steady-state behaviour.
    pub fn accesses_for(&self, scaled_bytes: u64) -> u64 {
        self.accesses.max(3 * scaled_bytes / 64)
    }

    /// The trace a run of nominal `cache_bytes` over `spec` requires —
    /// the **single source of truth** both for [`run_experiment`]'s live
    /// generation and for trace-artifact stores deciding what to freeze.
    ///
    /// The system spec's core-count override is applied *before* scaling,
    /// so the scaled spec (and therefore every artifact key and baseline
    /// memo key derived from it) reflects the machine actually simulated:
    /// scenarios differing in core count never share a trace.
    pub fn trace_plan(&self, spec: &WorkloadSpec, cache_bytes: u64) -> TracePlan {
        let scaled_spec = self.system.effective_workload(spec).scaled(self.scale);
        let total = self.accesses_for(self.scaled_cache_bytes(cache_bytes));
        TracePlan {
            scaled_spec,
            total,
            frozen_len: total + replay_lookahead(total),
        }
    }
}

/// Read-ahead margin frozen into artifacts beyond the consumed total.
///
/// The dispatch loop reads records past the ones it consumes: each core
/// holds a head-of-line record, and at the warmup/measurement boundary
/// the stream-position rule drops everything up to the latest of them
/// (see [`crate::DispatchSession`]). Live generation is infinite so this
/// is invisible; a frozen artifact must cover the overshoot or a column
/// runs dry near the end.
///
/// The overshoot is how far the per-core *stream* positions skew, which
/// tracks how far the core *clocks* skew: a core stuck in a stall-heavy
/// phase consumes slowly in issue-time order while the fast cores read
/// on — observed at ~0.2% of a 9 M-record TPC-H run. The margin is a
/// 16 Ki floor plus 1/32nd of the consumed total (~15× the observed
/// skew). It is a *provisioning* knob, not a correctness bound: replay
/// re-freezes a longer artifact if the margin is ever exceeded
/// (bit-identical either way; see [`TraceSource::Replay`]).
pub fn replay_lookahead(total: u64) -> u64 {
    16_384 + total / 32
}

/// The trace requirements of one experiment run (see
/// [`SimConfig::trace_plan`]).
#[derive(Debug, Clone)]
pub struct TracePlan {
    /// The workload spec the generator actually runs with (footprint
    /// scaled down by `cfg.scale`).
    pub scaled_spec: WorkloadSpec,
    /// Records the run consumes (warmup + measurement).
    pub total: u64,
    /// Records an artifact should hold to replay the run without
    /// touching the generator: [`Self::total`] plus
    /// [`replay_lookahead`].
    pub frozen_len: u64,
}

/// Where [`run_experiment_with_source`] gets its record stream.
///
/// Both variants produce **bit-identical** results: a replayed artifact
/// frozen from the run's `(scaled spec, seed)` yields exactly the stream
/// live generation would (pinned by the golden fixtures and
/// `tests/trace_artifacts.rs`). Replay skips the per-record RNG/Zipf
/// synthesis cost, which is what makes multi-design campaigns over a
/// shared workload fast.
#[derive(Debug, Clone, Copy)]
pub enum TraceSource<'a> {
    /// Generate the stream live with [`WorkloadGen`] (the historical
    /// behaviour; always available).
    Live,
    /// Replay a frozen [`TraceArtifact`]. Must have been frozen from the
    /// run's scaled spec and seed (asserted — a mismatched artifact
    /// would silently simulate the wrong workload) and at least cover
    /// the planned `frozen_len` (asserted — stores must provision the
    /// read-ahead margin). The dispatch loop reads each core's records
    /// straight off the artifact's per-core columns. Should its
    /// read-ahead ever exceed even that margin, a longer prefix
    /// extension of the same stream is frozen on the spot, so results
    /// stay bit-identical in all cases.
    Replay(&'a TraceArtifact),
}

/// Records [`ArtifactColumns`] decodes from a column at a time. Sixteen
/// records span about six 64 B lines whose misses overlap; 32 measured
/// no faster on a dispatch-only cell and 8 a little slower (see the
/// README's dispatch section).
const BURST: usize = 16;

/// A frozen artifact's per-core columns as a [`RecordSource`], with a
/// growth safety net.
///
/// The hot path hands out core `c`'s next record from a small per-core
/// buffer, which is refilled [`BURST`] records at a time straight off the
/// core's column. Only if a column runs dry (the warmup-boundary drop ate
/// past the artifact's provisioned margin) does the cold path re-freeze a
/// longer prefix extension of the same `(spec, seed)`; every column of
/// the longer artifact extends the shorter one's, so each core's cursor
/// stays valid and results stay bit-identical to live generation no
/// matter how far the run reads.
pub struct ArtifactColumns<'a> {
    base: &'a TraceArtifact,
    grown: Option<TraceArtifact>,
    scaled_spec: &'a WorkloadSpec,
    seed: u64,
    /// Records handed out from each core's column so far.
    next: Vec<usize>,
    /// Core `c`'s decoded records wait in `burst[c * BURST..][..filled[c]]`;
    /// `taken[c]` of them have been handed out.
    burst: Vec<TraceRecord>,
    taken: Vec<u32>,
    filled: Vec<u32>,
    /// Whether some column ran dry with no extension to fill it.
    dry: bool,
}

impl<'a> ArtifactColumns<'a> {
    /// Columns of `artifact`, frozen from `(scaled_spec, seed)`, for a
    /// system of `cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if the artifact has more columns than the system has
    /// cores: its extra cores' records would have no core to run on.
    pub fn new(
        artifact: &'a TraceArtifact,
        scaled_spec: &'a WorkloadSpec,
        seed: u64,
        cores: usize,
    ) -> Self {
        assert!(
            artifact.columns().cores() <= cores,
            "trace has {} core columns but the system only {cores} cores",
            artifact.columns().cores(),
        );
        ArtifactColumns {
            base: artifact,
            grown: None,
            scaled_spec,
            seed,
            next: vec![0; cores],
            burst: vec![FILLER; cores * BURST],
            taken: vec![0; cores],
            filled: vec![0; cores],
            dry: false,
        }
    }

    /// Refills `core`'s buffer from its column and takes the first
    /// record, growing the artifact if the column has none left. Out of
    /// line, so the per-record path that inlines into the dispatch loop
    /// stays a compare and a load.
    #[inline(never)]
    fn refill_and_take(&mut self, core: usize) -> Option<TraceRecord> {
        let at = self.next[core];
        let slots = &mut self.burst[core * BURST..][..BURST];
        let artifact = self.grown.as_ref().unwrap_or(self.base);
        let mut n = artifact.columns().column(core).decode_into(at, slots);
        if n == 0 {
            let len = artifact.len() as u64;
            let longer = TraceArtifact::freeze(self.scaled_spec, self.seed, 2 * len + 1024);
            n = longer.columns().column(core).decode_into(at, slots);
            self.grown = Some(longer);
            if n == 0 {
                // The core issues nothing even in a doubled trace; treat
                // the stream as ended for it.
                self.dry = true;
                return None;
            }
        }
        self.next[core] = at + 1;
        self.taken[core] = 1;
        self.filled[core] = n as u32;
        Some(slots[0])
    }
}

impl RecordSource for ArtifactColumns<'_> {
    #[inline]
    fn next_record(&mut self, core: usize) -> Option<TraceRecord> {
        let i = self.taken[core];
        if i < self.filled[core] {
            self.taken[core] = i + 1;
            self.next[core] += 1;
            return Some(self.burst[core * BURST + i as usize]);
        }
        self.refill_and_take(core)
    }

    fn skip_to_stream_position(&mut self) {
        let columns = self.grown.as_ref().unwrap_or(self.base).columns();
        columns.skip_to_stream_position(&mut self.next, self.dry);
        self.dry = false;
        // The buffered records follow the old cursors.
        self.filled.fill(0);
    }
}

/// Runs one experiment: `design` at nominal `cache_bytes` (scaled per
/// `cfg`) over `spec` (footprint scaled likewise).
///
/// The returned [`RunResult`] reports the *nominal* cache size.
pub fn run_experiment(
    design: Design,
    cache_bytes: u64,
    spec: &WorkloadSpec,
    cfg: &SimConfig,
) -> RunResult {
    run_experiment_with_source(design, cache_bytes, spec, cfg, TraceSource::Live)
}

/// [`run_experiment`] with an explicit record stream: live generation or
/// zero-copy replay of a frozen artifact (see [`TraceSource`]).
///
/// # Panics
///
/// Panics if a [`TraceSource::Replay`] artifact was frozen from a
/// different `(scaled spec, seed)` than this run requires, or is shorter
/// than the run's planned `frozen_len` — either would silently change
/// results.
pub fn run_experiment_with_source(
    design: Design,
    cache_bytes: u64,
    spec: &WorkloadSpec,
    cfg: &SimConfig,
    source: TraceSource<'_>,
) -> RunResult {
    let plan = cfg.trace_plan(spec, cache_bytes);
    let cores = cfg.system.resolved_cores(spec) as usize;
    match source {
        TraceSource::Live => {
            let trace = Buffered::new(WorkloadGen::new(plan.scaled_spec, cfg.seed), cores);
            drive(design, cache_bytes, spec, cfg, trace, plan.total)
        }
        TraceSource::Replay(artifact) => {
            assert_eq!(
                artifact.key(),
                artifact_key(&plan.scaled_spec, cfg.seed),
                "trace artifact was frozen for a different (scaled spec, seed) than \
                 this run of '{}' (seed {}, scale 1/{}) requires",
                spec.name,
                cfg.seed,
                cfg.scale,
            );
            assert!(
                artifact.len() as u64 >= plan.frozen_len,
                "trace artifact for '{}' holds {} records but this run plans for {} \
                 ({} consumed + read-ahead margin); the trace store must freeze \
                 TracePlan::frozen_len",
                spec.name,
                artifact.len(),
                plan.frozen_len,
                plan.total,
            );
            let columns = ArtifactColumns::new(artifact, &plan.scaled_spec, cfg.seed, cores);
            drive(design, cache_bytes, spec, cfg, columns, plan.total)
        }
    }
}

/// The shared experiment body: both arms of [`run_experiment_with_source`]
/// monomorphize through here, so replay pays no dynamic dispatch on the
/// per-record path.
///
/// `Ideal` and `NoCache` additionally run on **concrete** cache types
/// rather than `Box<dyn DramCacheModel>`: their access paths are a few
/// tens of nanoseconds, so devirtualizing (and letting the access inline
/// into the dispatch loop) is a measurable win — and it is exactly these
/// cheap designs whose campaigns are trace-generation-bound. The heavy
/// designs keep the boxed path, where one indirect call is noise.
fn drive<S: RecordSource>(
    design: Design,
    cache_bytes: u64,
    spec: &WorkloadSpec,
    cfg: &SimConfig,
    trace: S,
    total: u64,
) -> RunResult {
    let scaled_cache = cfg.scaled_cache_bytes(cache_bytes);
    match design {
        Design::Ideal => drive_cache(
            IdealCache::new(scaled_cache),
            design,
            cache_bytes,
            spec,
            cfg,
            trace,
            total,
        ),
        Design::NoCache => {
            drive_cache(NoCache::new(), design, cache_bytes, spec, cfg, trace, total)
        }
        _ => drive_cache(
            design.build_scaled(scaled_cache, cache_bytes.max(1), &cfg.system),
            design,
            cache_bytes,
            spec,
            cfg,
            trace,
            total,
        ),
    }
}

fn drive_cache<C: DramCacheModel, S: RecordSource>(
    cache: C,
    design: Design,
    cache_bytes: u64,
    spec: &WorkloadSpec,
    cfg: &SimConfig,
    trace: S,
    total: u64,
) -> RunResult {
    let mut sys = System::new(
        cfg.system.resolved_cores(spec) as usize,
        cache,
        cfg.system.mem_ports(),
        cfg.system.core,
    );

    let warmup = (total as f64 * cfg.warmup_fraction) as u64;
    let mut session = DispatchSession::new(trace);
    let warmed = sys.run_session(&mut session, warmup);
    // Both live generation and artifact replay present effectively
    // infinite streams (replay re-freezes a longer artifact past the
    // frozen margin), so both phases must always run to their full
    // budget; a shortfall means a genuinely finite source, which would
    // otherwise *silently* skew the measurement.
    assert_eq!(
        warmed, warmup,
        "trace for '{}' ran dry during warmup ({warmed} of {warmup} records)",
        spec.name,
    );
    let before = sys.progress();
    sys.reset_measurement();
    session.next_phase();
    let measured = sys.run_session(&mut session, total - warmup);
    assert_eq!(
        measured,
        total - warmup,
        "trace for '{}' ran dry during measurement",
        spec.name,
    );
    let after = sys.progress();

    let instructions = after.instructions - before.instructions;
    let elapsed_ps = after.elapsed_ps.saturating_sub(before.elapsed_ps).max(1);
    // UIPC at 3 GHz: instructions / cycles, cycles = ps * 3 / 1000.
    let cycles = (elapsed_ps * 3) as f64 / 1000.0;
    let (cache, mem) = sys.into_parts();

    RunResult {
        design: design.name(),
        workload: spec.name.to_string(),
        cache_bytes,
        measured_accesses: measured,
        instructions,
        elapsed_ps,
        uipc: instructions as f64 / cycles,
        cache: *cache.stats(),
        stacked: *mem.stacked.stats(),
        offchip: *mem.offchip.stats(),
        stacked_energy: mem.stacked.energy(),
        offchip_energy: mem.offchip.energy(),
    }
}

/// A design's result paired with its speedup over the no-cache baseline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SpeedupResult {
    /// The design's run.
    pub run: RunResult,
    /// `design UIPC / NoCache UIPC` — the y-axis of Figures 7 and 8.
    pub speedup: f64,
}

/// Runs the NoCache baseline for `(spec, cfg)` — the denominator of
/// every speedup. A baseline depends only on the workload, seed, and
/// simulation scale, so campaigns should run this **once** per
/// `(workload, seed)` and share it (see `unison_harness::BaselineStore`);
/// this function is the single place the baseline is defined.
pub fn run_baseline(spec: &WorkloadSpec, cfg: &SimConfig) -> RunResult {
    run_experiment(Design::NoCache, 0, spec, cfg)
}

/// Runs `design` and computes its speedup against a **precomputed**
/// baseline (from [`run_baseline`], typically memoized by the harness's
/// baseline store). Sweeping N designs against one baseline costs N
/// simulations, not 2N.
pub fn run_speedup_with_baseline(
    design: Design,
    cache_bytes: u64,
    spec: &WorkloadSpec,
    cfg: &SimConfig,
    baseline: &RunResult,
) -> SpeedupResult {
    run_speedup_with_baseline_source(design, cache_bytes, spec, cfg, baseline, TraceSource::Live)
}

/// [`run_speedup_with_baseline`] with an explicit [`TraceSource`] — the
/// entry point campaigns use to replay a shared frozen trace.
///
/// # Panics
///
/// Panics if `baseline.uipc` is zero, negative, or non-finite: dividing
/// by a degenerate baseline would silently turn every speedup into
/// `inf`/`NaN` and poison downstream geomeans. A NoCache run that retires
/// no instructions indicates a broken trace or configuration and must be
/// surfaced, not averaged away.
pub fn run_speedup_with_baseline_source(
    design: Design,
    cache_bytes: u64,
    spec: &WorkloadSpec,
    cfg: &SimConfig,
    baseline: &RunResult,
    source: TraceSource<'_>,
) -> SpeedupResult {
    assert!(
        baseline.uipc.is_finite() && baseline.uipc > 0.0,
        "degenerate NoCache baseline for '{}' (uipc = {}): speedups against it would be \
         inf/NaN; check the baseline run (zero measured instructions? empty trace?)",
        baseline.workload,
        baseline.uipc,
    );
    let run = run_experiment_with_source(design, cache_bytes, spec, cfg, source);
    SpeedupResult {
        speedup: run.uipc / baseline.uipc,
        run,
    }
}

/// Runs `design` and the no-cache baseline under identical conditions
/// and returns the speedup.
///
/// Convenience for one-off comparisons: each call re-simulates the
/// baseline. Sweeps over multiple designs or sizes should compute the
/// baseline once with [`run_baseline`] and use
/// [`run_speedup_with_baseline`] (or drive the whole grid through
/// `unison_harness::Campaign::run_speedups`, which memoizes baselines
/// across the campaign).
pub fn run_speedup(
    design: Design,
    cache_bytes: u64,
    spec: &WorkloadSpec,
    cfg: &SimConfig,
) -> SpeedupResult {
    let base = run_baseline(spec, cfg);
    run_speedup_with_baseline(design, cache_bytes, spec, cfg, &base)
}

#[cfg(test)]
mod tests {
    use super::*;
    use unison_trace::workloads;

    #[test]
    fn design_names_are_stable() {
        assert_eq!(Design::Unison.name(), "Unison");
        assert_eq!(Design::UnisonAssoc(32).name(), "Unison-32way");
    }

    #[test]
    fn design_names_round_trip_through_from_name() {
        for d in [
            Design::Alloy,
            Design::Footprint,
            Design::Unison,
            Design::Unison1984,
            Design::UnisonAssoc(32),
            Design::Ideal,
            Design::NoCache,
        ] {
            assert_eq!(Design::from_name(&d.name()), Some(d), "{}", d.name());
        }
        assert_eq!(Design::from_name("UNISON"), Some(Design::Unison));
        assert_eq!(Design::from_name("bogus"), None);
        assert_eq!(Design::from_name("unison-0way"), None, "0 ways is invalid");
    }

    #[test]
    fn precomputed_baseline_gives_same_speedup() {
        let cfg = SimConfig::quick_test();
        let w = workloads::data_serving();
        let base = run_baseline(&w, &cfg);
        let with = run_speedup_with_baseline(Design::Ideal, 1 << 30, &w, &cfg, &base);
        let without = run_speedup(Design::Ideal, 1 << 30, &w, &cfg);
        assert!((with.speedup - without.speedup).abs() < 1e-12);
    }

    #[test]
    fn quick_experiment_produces_sane_results() {
        let cfg = SimConfig::quick_test();
        let r = run_experiment(Design::Unison, 128 << 20, &workloads::web_search(), &cfg);
        assert_eq!(r.design, "Unison");
        assert!(r.uipc > 0.0 && r.uipc < 64.0);
        assert!(r.cache.accesses > 0);
        assert!(r.cache.miss_ratio() < 1.0);
        assert!(r.measured_accesses > 0);
    }

    #[test]
    fn warmup_region_is_excluded_from_stats() {
        let cfg = SimConfig::quick_test();
        let r = run_experiment(Design::Alloy, 128 << 20, &workloads::web_serving(), &cfg);
        let expected = cfg.accesses - (cfg.accesses as f64 * cfg.warmup_fraction) as u64;
        assert_eq!(r.cache.accesses, expected);
    }

    #[test]
    fn speedup_of_ideal_exceeds_one() {
        let cfg = SimConfig::quick_test();
        let s = run_speedup(Design::Ideal, 1 << 30, &workloads::data_serving(), &cfg);
        assert!(
            s.speedup > 1.0,
            "ideal cache must beat no cache, got {}",
            s.speedup
        );
    }

    #[test]
    fn scaled_cache_sizes_have_floor() {
        let cfg = SimConfig::quick_test();
        assert_eq!(cfg.scaled_cache_bytes(64 << 20), 1 << 20);
    }

    #[test]
    fn trace_plan_matches_run_experiment_inputs() {
        let cfg = SimConfig::quick_test();
        let w = workloads::tpch();
        let plan = cfg.trace_plan(&w, 512 << 20);
        assert_eq!(plan.scaled_spec, w.clone().scaled(cfg.scale));
        assert_eq!(
            plan.total,
            cfg.accesses_for(cfg.scaled_cache_bytes(512 << 20))
        );
        assert_eq!(plan.frozen_len, plan.total + replay_lookahead(plan.total));
        assert!(
            plan.frozen_len - plan.total >= 16_384 + plan.total / 32,
            "margin must scale with the trace length"
        );
    }

    /// The read-ahead safety net: an artifact covering the planned
    /// margin minimally is still bit-identical even if the dispatch
    /// loop's warmup-boundary drop eats into it — a column that runs
    /// dry continues in a re-frozen, longer prefix extension.
    #[test]
    fn replay_tail_fallback_is_bit_identical() {
        let cfg = SimConfig::quick_test();
        let w = workloads::web_serving();
        let size = 128 << 20;
        let plan = cfg.trace_plan(&w, size);
        // Freeze the bare minimum the assert allows; the boundary drop
        // may then run a column dry near the end of the measurement
        // phase on some designs.
        let minimal =
            unison_trace::TraceArtifact::freeze(&plan.scaled_spec, cfg.seed, plan.frozen_len);
        // And a comfortably oversized one that never needs the tail.
        let oversized = unison_trace::TraceArtifact::freeze(
            &plan.scaled_spec,
            cfg.seed,
            plan.frozen_len + 100_000,
        );
        let a = run_experiment_with_source(
            Design::Alloy,
            size,
            &w,
            &cfg,
            TraceSource::Replay(&minimal),
        );
        let b = run_experiment_with_source(
            Design::Alloy,
            size,
            &w,
            &cfg,
            TraceSource::Replay(&oversized),
        );
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "artifact length above the required minimum must never affect results"
        );
    }

    #[test]
    fn replay_source_is_bit_identical_to_live() {
        let cfg = SimConfig::quick_test();
        let w = workloads::web_serving();
        let size = 128 << 20;
        let plan = cfg.trace_plan(&w, size);
        let artifact =
            unison_trace::TraceArtifact::freeze(&plan.scaled_spec, cfg.seed, plan.frozen_len);

        let live = run_experiment(Design::Unison, size, &w, &cfg);
        let replayed = run_experiment_with_source(
            Design::Unison,
            size,
            &w,
            &cfg,
            TraceSource::Replay(&artifact),
        );
        assert_eq!(
            serde_json::to_string(&live).unwrap(),
            serde_json::to_string(&replayed).unwrap(),
            "replay must reproduce live generation bit for bit"
        );
    }

    /// The pre-burst source, kept as the oracle for [`ArtifactColumns`]:
    /// one [`unison_trace::codec::Column::get`] per record, with the same
    /// growth and stream-position rules.
    struct DirectColumns<'a> {
        current: std::borrow::Cow<'a, TraceArtifact>,
        spec: &'a WorkloadSpec,
        seed: u64,
        next: Vec<usize>,
        dry: bool,
    }

    impl DirectColumns<'_> {
        fn take(&mut self, core: usize) -> Option<TraceRecord> {
            let i = self.next[core];
            let mut rec = self.current.columns().column(core).get(i);
            if rec.is_none() {
                let len = 2 * self.current.len() as u64 + 1024;
                let longer = TraceArtifact::freeze(self.spec, self.seed, len);
                rec = longer.columns().column(core).get(i);
                self.current = std::borrow::Cow::Owned(longer);
            }
            match rec {
                Some(_) => self.next[core] += 1,
                None => self.dry = true,
            }
            rec
        }

        fn skip(&mut self) {
            let columns = self.current.columns();
            columns.skip_to_stream_position(&mut self.next, self.dry);
            self.dry = false;
        }
    }

    use proptest::prelude::*;

    proptest! {
        /// Burst decoding is invisible: under a random sequence of
        /// per-core requests and phase boundaries, over artifacts short
        /// enough that columns run dry and grow, [`ArtifactColumns`]
        /// hands out exactly the records direct per-record reads do.
        #[test]
        fn burst_columns_hand_out_the_direct_reads(
            cores in prop_oneof![Just(1usize), Just(3), Just(16), 1usize..=17],
            seed in any::<u64>(),
            len in 0u64..1_500,
            ops in proptest::collection::vec(0usize..64, 1..3_000),
        ) {
            let mut spec = workloads::web_serving().scaled(64);
            spec.cores = cores as u32;
            let artifact = TraceArtifact::freeze(&spec, seed, len);
            let mut burst = ArtifactColumns::new(&artifact, &spec, seed, cores);
            let mut direct = DirectColumns {
                current: std::borrow::Cow::Borrowed(&artifact),
                spec: &spec,
                seed,
                next: vec![0; cores],
                dry: false,
            };
            for (step, &op) in ops.iter().enumerate() {
                // One op in 64 ends a phase; the rest ask a core for its
                // next record.
                if op == 0 {
                    burst.skip_to_stream_position();
                    direct.skip();
                } else {
                    let core = op % cores;
                    prop_assert_eq!(
                        burst.next_record(core),
                        direct.take(core),
                        "step {} core {}",
                        step,
                        core
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "different (scaled spec, seed)")]
    fn replay_rejects_wrong_artifact() {
        let cfg = SimConfig::quick_test();
        let w = workloads::web_serving();
        let plan = cfg.trace_plan(&w, 128 << 20);
        let wrong_seed =
            unison_trace::TraceArtifact::freeze(&plan.scaled_spec, cfg.seed + 1, plan.frozen_len);
        let _ = run_experiment_with_source(
            Design::Unison,
            128 << 20,
            &w,
            &cfg,
            TraceSource::Replay(&wrong_seed),
        );
    }

    #[test]
    #[should_panic(expected = "records but this run plans for")]
    fn replay_rejects_short_artifact() {
        let cfg = SimConfig::quick_test();
        let w = workloads::web_serving();
        let plan = cfg.trace_plan(&w, 128 << 20);
        let short =
            unison_trace::TraceArtifact::freeze(&plan.scaled_spec, cfg.seed, plan.total / 2);
        let _ = run_experiment_with_source(
            Design::Unison,
            128 << 20,
            &w,
            &cfg,
            TraceSource::Replay(&short),
        );
    }

    #[test]
    #[should_panic(expected = "degenerate NoCache baseline")]
    fn zero_uipc_baseline_is_rejected() {
        let cfg = SimConfig::quick_test();
        let w = workloads::data_serving();
        let mut baseline = run_baseline(&w, &cfg);
        baseline.uipc = 0.0;
        let _ = run_speedup_with_baseline(Design::Ideal, 1 << 30, &w, &cfg, &baseline);
    }

    #[test]
    #[should_panic(expected = "degenerate NoCache baseline")]
    fn non_finite_baseline_is_rejected() {
        let cfg = SimConfig::quick_test();
        let w = workloads::data_serving();
        let mut baseline = run_baseline(&w, &cfg);
        baseline.uipc = f64::NAN;
        let _ = run_speedup_with_baseline(Design::Ideal, 1 << 30, &w, &cfg, &baseline);
    }
}
